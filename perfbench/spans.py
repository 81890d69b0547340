"""Span recording around latticeym's layer boundaries, from outside the package.

`Tracer.install` replaces selected functions with recording wrappers.  A
function is replaced under every module attribute that refers to it, so a
call is seen whichever namespace it goes through: ``latticeym.single_bond.
z_upper`` and the name ``latticeym.mc.z_upper`` are the same object and get
the same wrapper.  Nothing in the package changes; `Tracer.uninstall` puts
the originals back.

Spans are kept in memory as lists ``[name, key, parent, start, end, note]``
and written out once, by `Tracer.write`, when the run ends.  ``key`` names
the parameters the call ran at (rank, lattice, route); ``note`` is a value
the span carries for per-layer counts (acceptance rate, grid points,
sampling signature).
"""

from __future__ import annotations

import json
import re
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("groups", "quadrature", "single_bond", "factorized", "lattice", "mc",
          "scalar", "reporting", "cli")

MC_CASES = ("d3-L4-N1-free", "d3-L4-N1-periodic", "d3-L4-N2-free", "d3-L4-N2-periodic")
GEOMETRIES = ("d3-L4-free", "d3-L4-periodic")
RANKS = ("N1", "N2", "N3")
PROPAGATOR_ROUTES = ("d3-momentum", "d4-momentum", "d3-laplace", "d4-laplace")
SUITES = ("group-check", "weyl-check", "single-bond", "approx", "stability", "genfun",
          "scalar")


def _rank(group) -> str:
    return f"N{group.n}"


def _case(geom, n: int) -> str:
    return f"d{geom.d}-L{geom.L}-N{n}-{geom.boundary}"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _weyl_points(args, kwargs, result):
    """Grid points one tensor weyl_integrate call evaluates (both resolutions)."""
    group = _arg(args, kwargs, 1, "group")
    quad = _arg(args, kwargs, 2, "quad")
    if quad.method != "tensor":
        return 0
    panels = 2 if kwargs.get("split_origin", False) else 1
    coarse = max(8, (2 * quad.points) // 3)
    return (quad.points * panels) ** group.n + (coarse * panels) ** group.n


def _i_beta_points(args, kwargs, result):
    group = _arg(args, kwargs, 2, "group")
    quad = _arg(args, kwargs, 3, "quad")
    coarse = max(8, (2 * quad.points) // 3)
    return quad.points ** group.n + coarse ** group.n


def _sampling_signature(args, kwargs, result):
    geom, coupling, group, plaquettes, params = args[:5]
    return repr((_case(geom, group.n), coupling.beta, tuple(int(p) for p in plaquettes), params))


def _bytes_written(args, kwargs, result):
    return sum(Path(path).stat().st_size for path in result.values())


# (module, function, key(args, kwargs), note(args, kwargs, result)).  The key
# and note functions index the arguments as the package's call sites pass
# them.
TARGETS = (
    ("groups", "haar_sample_batch", lambda a, k: _rank(a[0]), None),
    ("groups", "quadratic_bound_scan", lambda a, k: _rank(a[0]), None),
    ("quadrature", "weyl_integrate", lambda a, k: _rank(_arg(a, k, 1, "group")),
     _weyl_points),
    ("quadrature", "i_beta", lambda a, k: _rank(_arg(a, k, 2, "group")), _i_beta_points),
    ("single_bond", "z_upper", lambda a, k: _rank(a[1]), None),
    ("single_bond", "z_lower", lambda a, k: _rank(a[1]), None),
    ("single_bond", "bound_constants", lambda a, k: _rank(a[1]), None),
    ("single_bond", "z_upper_source_envelope", lambda a, k: _rank(a[2]), None),
    ("factorized", "plaquette_moment", lambda a, k: _rank(a[2]), None),
    ("factorized", "normalized_free_energy", lambda a, k: _rank(a[1]), None),
    ("lattice", "build_geometry",
     lambda a, k: f"d{a[0]}-L{a[1]}-{_arg(a, k, 2, 'boundary')}",
     lambda a, k, r: len(r.classes)),
    ("lattice", "wilson_action", lambda a, k: _case(a[1], a[0].n), None),
    ("lattice", "scaled_field_traces", lambda a, k: _case(a[1], a[0].n), None),
    ("mc", "metropolis_sweep", lambda a, k: _case(a[1], a[5].n), lambda a, k, r: r),
    ("mc", "estimate_mean_action", lambda a, k: _case(a[0], a[1].n), None),
    ("mc", "estimate_log_z", lambda a, k: _case(a[0], a[2].n), None),
    ("mc", "verify_stability", lambda a, k: "", None),
    ("mc", "sample_source_fields", lambda a, k: _case(a[0], a[2].n), _sampling_signature),
    ("mc", "estimate_generating_function", lambda a, k: _case(a[0], a[2].n), None),
    ("mc", "generating_function_ceiling", lambda a, k: _rank(a[2]), None),
    ("scalar", "scaled_propagator", lambda a, k: f"d{a[0].d}", None),
    ("scalar", "_scaled_propagator_cached", lambda a, k: f"d{a[0].d}",
     lambda a, k, r: repr(a)),
    ("scalar", "_momentum_value", lambda a, k: "", None),
    ("scalar", "_laplace_value", lambda a, k: "", None),
    ("scalar", "gaussian_generating_function", lambda a, k: f"d{a[0].d}", None),
    ("scalar", "generating_function_bound", lambda a, k: f"d{a[0].d}", None),
    ("scalar", "fit_decay_rate", lambda a, k: f"d{a[0].d}", None),
    ("scalar", "derivative_correlation", lambda a, k: f"d{a[0].d}", None),
    ("reporting", "write_reports", lambda a, k: a[1], _bytes_written),
    ("cli", "run_suite", lambda a, k: a[0].suite, None),
)

NAME, KEY, PARENT, START, END, NOTE = range(6)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name, fn, key, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, key(args, kwargs), stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package_modules: dict) -> None:
        """Wrap every target under each module attribute that names it."""
        for module_name, attr, key, note in TARGETS:
            original = getattr(package_modules[module_name], attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original, key, note)
            for module in package_modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "run": self.run_id, "id": index, "name": span[NAME],
                    "key": span[KEY], "parent": span[PARENT], "start": span[START],
                    "end": span[END], "note": span[NOTE],
                }, default=str) + "\n")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list, first: int, last: int) -> dict:
    """Per-layer metrics of the spans recorded in one pass, ``spans[first:last]``.

    Time metrics are means per call unless named ``self_s`` (a layer's total
    self time in the pass); layers the pass never entered report 0.
    """
    window = spans[first:last]
    children = defaultdict(float)
    child_names = defaultdict(set)
    for span in window:
        if span[PARENT] >= first:
            children[span[PARENT]] += span[END] - span[START]
            child_names[span[PARENT]].add(span[NAME])
    by_name = defaultdict(list)
    self_time = defaultdict(float)
    for index, span in enumerate(window, start=first):
        duration = span[END] - span[START]
        own = duration - children[index]
        by_name[span[NAME]].append((span[KEY], duration, own, span[NOTE], index))
        self_time[span[NAME].split(".")[0]] += own

    def calls(name, key=None):
        return [c for c in by_name[name] if key is None or c[0] == key]

    def mean_ms(name, key=None, own=False):
        return 1e3 * _mean([c[2] if own else c[1] for c in calls(name, key)])

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]

    sweeps = calls("mc.metropolis_sweep")
    out["mc.replica_sweeps"] = len(sweeps)
    for case in MC_CASES:
        out[f"mc.sweep_ms.{case}"] = mean_ms("mc.metropolis_sweep", case, own=True)
        out[f"mc.accept_rate.{case}"] = _mean(
            [c[3] for c in sweeps if c[0] == case])
        out[f"mc.mean_action_s.{case}"] = mean_ms("mc.estimate_mean_action", case) / 1e3
        out[f"lattice.wilson_action_us.{case}"] = 1e3 * mean_ms(
            "lattice.wilson_action", case)
    samplings = calls("mc.sample_source_fields")
    out["mc.sample_source_fields_calls"] = len(samplings)
    out["mc.sample_reuse_ratio"] = (
        len({c[3] for c in samplings}) / len(samplings) if samplings else 0.0)
    out["lattice.scaled_field_traces_us"] = 1e3 * mean_ms("lattice.scaled_field_traces")
    out["lattice.build_geometry_ms"] = mean_ms("lattice.build_geometry")
    for geometry in GEOMETRIES:
        classes = [c[3] for c in calls("lattice.build_geometry", geometry)]
        out[f"lattice.conflict_classes.{geometry}"] = max(classes, default=0)

    out["quadrature.grid_points"] = sum(
        c[3] for name in ("quadrature.weyl_integrate", "quadrature.i_beta")
        for c in calls(name))
    for rank in RANKS:
        out[f"quadrature.weyl_integrate_ms.{rank}"] = mean_ms(
            "quadrature.weyl_integrate", rank)
        out[f"quadrature.i_beta_ms.{rank}"] = mean_ms("quadrature.i_beta", rank)
        for metric, name in (
            ("single_bond.z_upper_ms", "single_bond.z_upper"),
            ("single_bond.z_lower_ms", "single_bond.z_lower"),
            ("single_bond.bound_constants_ms", "single_bond.bound_constants"),
            ("single_bond.envelope_ms", "single_bond.z_upper_source_envelope"),
            ("factorized.plaquette_moment_ms", "factorized.plaquette_moment"),
            ("factorized.free_energy_ms", "factorized.normalized_free_energy"),
        ):
            out[f"{metric}.{rank}"] = mean_ms(name, rank)
    out["groups.quadratic_bound_scan_ms"] = mean_ms("groups.quadratic_bound_scan")
    out["groups.haar_sample_batch_ms"] = mean_ms("groups.haar_sample_batch")

    # A cached propagator value is computed exactly when its span has a
    # route span below it; hits return from the cache with no children.
    computed = defaultdict(list)
    for key, duration, _, _, index in by_name["scalar._scaled_propagator_cached"]:
        routes = child_names[index]
        if "scalar._laplace_value" in routes:
            computed[f"{key}-laplace"].append(duration)
        elif "scalar._momentum_value" in routes:
            computed[f"{key}-momentum"].append(duration)
    for route in PROPAGATOR_ROUTES:
        out[f"scalar.propagator_ms.{route}"] = 1e3 * _mean(computed[route])
    propagator_calls = len(calls("scalar.scaled_propagator"))
    out["scalar.propagator_calls"] = propagator_calls
    distinct = {c[3] for c in calls("scalar._scaled_propagator_cached")}
    out["scalar.propagator_distinct_ratio"] = (
        len(distinct) / propagator_calls if propagator_calls else 0.0)
    out["scalar.generating_function_ms"] = mean_ms("scalar.gaussian_generating_function")
    out["scalar.fit_decay_rate_ms"] = mean_ms("scalar.fit_decay_rate")
    out["scalar.derivative_correlation_ms"] = mean_ms("scalar.derivative_correlation")

    out["reporting.write_reports_ms"] = mean_ms("reporting.write_reports")
    out["reporting.bytes_written"] = sum(c[3] for c in calls("reporting.write_reports"))
    for suite in SUITES:
        out[f"cli.run_suite_s.{suite}"] = mean_ms("cli.run_suite", suite) / 1e3
    return out


_UNITS = {"ms": "ms", "s": "s", "us": "us", "ratio": "ratio", "rate": "ratio",
          "calls": "count", "sweeps": "count", "points": "count", "written": "count",
          "classes": "count", "spans": "count"}


def unit_of(metric: str) -> str:
    """Unit from the metric's base name: ``mc.sweep_ms.d3-L4-N1-free`` is in ms."""
    base = ".".join(metric.split(".")[:2])
    return _UNITS[re.split(r"[._]", base)[-1]]
