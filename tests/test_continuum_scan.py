"""Exit codes of scripts/continuum_scan.py at extreme scalar parameters."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "continuum_scan.py"


@pytest.fixture(scope="module")
def scan():
    spec = importlib.util.spec_from_file_location("continuum_scan", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(scan, args):
    try:
        return scan.main(["--d", "3", "--N", "1", "--k-max", "1", *args])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "args,code,message",
    [
        (["--m-u", "1e300"], 2, "argument --kappa-u: r must be a finite float, got inf"),
        (["--kappa-u", "1e-300"], 2, "argument --kappa-u: r must be a finite float, got inf"),
        (["--m-u", "1e-300"], 3, "RangeTooNoisy: mass gap 1e-300 at a=1.0"),
        (["--m-u", "5e-324"], 3, "RangeTooNoisy: mass gap 0 at a=1.0"),
    ],
)
def test_extreme_masses_exit_without_traceback(scan, capsys, args, code, message):
    assert run(scan, args) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
