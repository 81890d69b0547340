"""What the benchmark harness reaches in the package: every function that
perfbench/spans.py wraps, loaded by path, and the quadrature call shapes
that spans.py and perfbench/workloads.py use."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from latticeym.groups import GroupSpec
from latticeym.quadrature import QuadratureSpec, i_beta

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"latticeym.{module}.{name}" for module, name, *_ in spans.TARGETS
               if not hasattr(importlib.import_module(f"latticeym.{module}"), name)]
    assert spans.TARGETS
    assert missing == []


def test_quadrature_call_shapes():
    # spans._weyl_points reads quad.method; workloads.check_outputs passes quad to i_beta.
    assert hasattr(QuadratureSpec(), "method")
    assert np.isfinite(i_beta(2, np.inf, GroupSpec(1), QuadratureSpec()))
