"""Tests for run configuration, report serialization, and the CLI."""

import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import latticeym
from latticeym import __version__
from latticeym.cli import main, run_suite
from latticeym.errors import ConfigInvalid
from latticeym.groups import GroupSpec
from latticeym.quadrature import QuadratureSpec
from latticeym.reporting import (
    _ANNOTATIONS,
    _KEYWORDS,
    RUN_CONFIG_SCHEMA,
    SUITE_NAMES,
    ReportRecord,
    RunConfig,
    _schema_errors,
    write_reports,
)
from latticeym.single_bond import CouplingSpec, log_z, log_zeta_lower, log_zeta_upper


def fresh_python(code):
    """Run `code` in a fresh interpreter that imports this package, so modules
    the test session loaded do not count; raises unless it exits 0."""
    src = str(Path(latticeym.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)


MALFORMED = [
    {"suite": "no-such-suite"},
    {"suite": "approx", "d": 5},
    {"suite": "approx", "a": [2.0]},
    {"suite": "approx", "a": []},
    {"suite": "approx", "unknown_key": 1},
    {},
]

# Schema-valid, since NaN passes every bound, but rejected at the location
# given by the finite and float-range checks that follow the schema.
NON_FINITE = [
    ({"a": [float("nan")]}, "a.0"),
    ({"a": [0.5, float("nan")]}, "a.1"),
    ({"g2": [float("nan")]}, "g2.0"),
    ({"g2": [1.0, float("inf")]}, "g2.1"),
    ({"g0_sq": float("nan")}, "g0_sq"),
    ({"g0_sq": float("inf")}, "g0_sq"),
    # a**-d or beta = a**(d-4)/g2 beyond the float range
    ({"d": 2, "a": [1e-300]}, "a.0"),
    ({"d": 3, "a": [0.5, 1e-300]}, "a.1"),
    ({"g2": [5e-324], "g0_sq": 1.0}, "g2.0"),
    ({"d": 2, "a": [1e-150], "g2": [1.0, 1e-10]}, "g2.1"),
    # beta finite, the lower bound's rate 8 n (d-1) beta = 192 beta is not
    ({"d": 4, "n": [1, 8], "g2": [1.0, 1e-307]}, "g2.1"),
]


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig.from_mapping({"suite": "weyl-check"})
        assert config.n_values == (1,)
        assert config.d == 2
        assert config.L == 4
        assert config.boundary == "free"
        assert config.a_values == (1.0,)
        assert config.g2_values == (1.0,)
        assert config.g0_sq == 4.0
        assert config.out == "reports"
        assert config.seed == 0

    def test_seed_propagates_to_mc(self):
        config = RunConfig.from_mapping({"suite": "stability", "seed": 9})
        assert config.mc.seed == 9

    def test_odd_lattice_size_names_field(self):
        with pytest.raises(ConfigInvalid, match="L"):
            RunConfig.from_mapping({"suite": "stability", "L": 5})

    @pytest.mark.parametrize("mapping", MALFORMED)
    def test_rejects_malformed(self, mapping):
        with pytest.raises(ConfigInvalid):
            RunConfig.from_mapping(mapping)

    @pytest.mark.parametrize("mapping,location", NON_FINITE)
    def test_rejects_non_finite_numbers(self, mapping, location):
        with pytest.raises(ConfigInvalid, match=rf"^{location}: "):
            RunConfig.from_mapping({"suite": "approx", **mapping})

    def test_mc_validation_is_routed(self):
        # schema-valid but rejected by the MC parameter invariants
        with pytest.raises(ConfigInvalid, match=r"^mc\.beta_grid_points: "):
            RunConfig.from_mapping({"suite": "stability", "mc": {"beta_grid_points": 4}})

    def test_first_error_follows_schema_keyword_order(self):
        # "type" precedes "multipleOf" in the shipped schema; a copy saved with
        # sorted keys would report the multipleOf violation instead.
        with pytest.raises(ConfigInvalid) as caught:
            RunConfig.from_mapping({"suite": "approx", "L": 3.5})
        assert str(caught.value) == "L: 3.5 is not of type 'integer'"

    def test_every_suite_name_has_a_runner(self):
        import latticeym.cli as cli_module

        assert set(SUITE_NAMES) == set(cli_module._SUITE_RUNNERS) | {"all"}


def schema_keywords(schema):
    """Every keyword of a schema and of its subschemas, with its argument."""
    for keyword, argument in schema.items():
        yield keyword, argument
        if keyword == "properties":
            for subschema in argument.values():
                yield from schema_keywords(subschema)
        elif keyword == "items":
            yield from schema_keywords(argument)


_TOP_KEYS = list(RUN_CONFIG_SCHEMA["properties"])
_NESTED_KEYS = [key for name in ("mc", "quadrature")
                for key in RUN_CONFIG_SCHEMA["properties"][name]["properties"]]
_SCALARS = st.one_of(
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),  # integral floats are JSON integers
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 0.5, 1.0,
                     1.5, 5e-324, 1e300]),
    st.booleans(),  # a bool is neither an integer nor a number
    st.none(),
    st.sampled_from(list(SUITE_NAMES) + ["free", "periodic", "", "x"]),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),  # empty lists included
    st.lists(st.lists(_SCALARS, max_size=2), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from(_NESTED_KEYS + ["bogus"]), _SCALARS, max_size=4),
)
_MAPPINGS = st.one_of(
    # mostly a valid suite, so the other fields' errors come first
    st.builds(lambda suite, rest: {**rest, **suite},
              st.one_of(st.just({"suite": "approx"}),
                        st.dictionaries(st.just("suite"), _SCALARS)),
              st.dictionaries(st.sampled_from(_TOP_KEYS + ["bogus", "Suite"]), _VALUES,
                              max_size=5)),
    _VALUES,  # a root that is not an object
)


class TestSchemaValidator:
    """The in-house validator against jsonschema's Draft 2020-12 one."""

    @staticmethod
    def assert_same_verdict(data):
        import jsonschema  # a test-only dependency, needed by these tests alone

        ours = [list(path) for path, _ in _schema_errors(data, RUN_CONFIG_SCHEMA)]
        validator = jsonschema.Draft202012Validator(RUN_CONFIG_SCHEMA)
        theirs = [list(error.path) for error in validator.iter_errors(data)]
        assert (not ours) == validator.is_valid(data)
        key = lambda path: list(map(str, path))  # noqa: E731
        assert sorted(ours, key=key) == sorted(theirs, key=key)
        if theirs:
            location = ".".join(map(str, min(theirs, key=key))) or "<root>"
            with pytest.raises(ConfigInvalid, match=rf"^{re.escape(location)}: "):
                RunConfig.from_mapping(data)
        else:
            # a schema-valid mapping builds a config or names its field
            try:
                RunConfig.from_mapping(data)
            except ConfigInvalid:
                pass

    def test_implements_every_schema_keyword(self):
        used = list(schema_keywords(RUN_CONFIG_SCHEMA))
        assert {keyword for keyword, _ in used} <= set(_KEYWORDS) | set(_ANNOTATIONS)
        # the argument forms the validator reads
        assert all(isinstance(arg, str) for keyword, arg in used if keyword == "type")
        assert all(arg is False for keyword, arg in used if keyword == "additionalProperties")

    @pytest.mark.parametrize(
        "mapping",
        MALFORMED + [mapping for mapping, _ in NON_FINITE] + [
            {"suite": "all"},
            {"suite": "stability", "L": 6.0, "d": 3.0, "n": [1, 2.0], "seed": 0},
            {"suite": "stability", "mc": {"sweeps": True, "chains": 0, "bogus": 1}},
            {"suite": "approx", "quadrature": {"points": 7, "rtol": 0}, "seed": -1},
            {"suite": True, "L": False, "a": [True], "g2": [0], "g0_sq": None},
            {"suite": "scalar", "boundary": "open", "d": 2.5, "out": 1, "extra": {}},
            [], "approx", None,
        ],
    )
    def test_known_mappings(self, mapping):
        self.assert_same_verdict(mapping)

    @settings(max_examples=1500, deadline=None)
    @given(_MAPPINGS)
    def test_mutations(self, data):
        self.assert_same_verdict(data)


class TestReportRecord:
    def record(self):
        return ReportRecord(
            suite="single-bond",
            inputs={"n": 1, "a": 0.5},
            values={"log_z_upper": -1.25},
            errors={},
            lhs=-1.25,
            rhs=-0.8,
            verdict="pass",
            seed=4,
        )

    def test_round_trip(self):
        record = self.record()
        text = json.dumps(record.to_mapping(), sort_keys=True)
        assert ReportRecord(**json.loads(text)) == record

    def test_version_stamped(self):
        assert self.record().version == __version__

    def test_verdict_validated(self):
        with pytest.raises(ValueError):
            ReportRecord(
                suite="s", inputs={}, values={}, errors={},
                lhs=None, rhs=None, verdict="maybe", seed=0,
            )

    def test_wall_time_not_serialized(self, tmp_path):
        paths = write_reports(tmp_path, "s", [self.record()], wall_time=1.2345678)
        assert json.loads(paths["meta"].read_text())["wall_time_seconds"] == 1.2345678
        for kind in ("jsonl", "summary", "points"):
            text = paths[kind].read_text()
            assert "wall_time" not in text
            assert "1.2345678" not in text


class TestWriters:
    def records(self):
        first = ReportRecord(
            suite="demo", inputs={"a": 1.0}, values={"x_value": 1.5},
            errors={"x_value": 0.1}, lhs=1.5, rhs=2.0, verdict="pass", seed=0,
        )
        second = ReportRecord(
            suite="demo", inputs={"a": 0.5}, values={"other": -2.0},
            errors={}, lhs=None, rhs=None, verdict="fail", seed=0,
        )
        return [first, second]

    def test_files_written(self, tmp_path):
        paths = write_reports(tmp_path, "demo", self.records(), wall_time=0.5)
        lines = paths["jsonl"].read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["verdict"] == "pass"

        header = paths["summary"].read_text().splitlines()[0].split(",")
        assert header[:7] == ["suite", "record", "verdict", "lhs", "rhs", "seed", "version"]
        # sorted union of value keys, then err_ keys
        assert header[7:] == ["other", "x_value", "err_x_value"]

        points = paths["points"].read_text().splitlines()
        assert points[0] == "x,y,series"
        assert len(points) == 3  # one value per record

        meta = json.loads(paths["meta"].read_text())
        assert meta["record_count"] == 2
        assert meta["wall_time_seconds"] == 0.5

    def test_seventeen_digit_floats(self, tmp_path):
        record = ReportRecord(
            suite="demo", inputs={}, values={"v": 1.0 / 3.0}, errors={},
            lhs=None, rhs=None, verdict="pass", seed=0,
        )
        paths = write_reports(tmp_path, "demo", [record], wall_time=0.0)
        body = paths["summary"].read_text()
        assert "0.33333333333333331" in body


class TestCLI:
    def test_weyl_check_exit_zero(self, tmp_path):
        code = main(["weyl-check", "--N", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "weyl-check.jsonl").exists()
        assert (tmp_path / "weyl-check-summary.csv").exists()
        assert (tmp_path / "weyl-check-points.csv").exists()

    def test_quadrature_suite_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["single-bond", "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["single-bond", "--seed", "7", "--out", str(out_b)]) == 0
        first = (out_a / "single-bond.jsonl").read_bytes()
        second = (out_b / "single-bond.jsonl").read_bytes()
        assert first == second
        summary_a = (out_a / "single-bond-summary.csv").read_bytes()
        summary_b = (out_b / "single-bond-summary.csv").read_bytes()
        assert summary_a == summary_b

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        code = main(["stability", "--L", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "L" in capsys.readouterr().err
        # Schema-valid values that break a parameter invariant name their field.
        config_path = tmp_path / "run.json"
        for mc, location in [
            ({"beta_grid_points": 4}, "mc.beta_grid_points: "),
            ({"sweeps": 100, "thermalization": 100}, "mc.sweeps: "),
            ({"sweeps": 21, "thermalization": 20}, "mc.sweeps: "),  # one measurement
        ]:
            config_path.write_text(json.dumps({"suite": "stability", "mc": mc}))
            code = main(["stability", "--config", str(config_path), "--out", str(tmp_path)])
            assert code == 2
            assert f"invalid configuration -- {location}" in capsys.readouterr().err
        # A config file that cannot be read or parsed names `config`.
        config_path.write_text('{"suite": "stability",')
        for path in (config_path, tmp_path / "missing.json"):
            code = main(["stability", "--config", str(path), "--out", str(tmp_path)])
            assert code == 2
            assert "invalid configuration -- config: " in capsys.readouterr().err
        # argparse rejects a malformed list flag by name.
        for flag, value in [("--N", "1,x"), ("--a", "0.5,abc"), ("--g2", ",1")]:
            with pytest.raises(SystemExit) as exit_info:
                main(["stability", flag, value, "--out", str(tmp_path)])
            assert exit_info.value.code == 2
            assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "stability.jsonl").exists()

    @pytest.mark.parametrize("suite", ["single-bond", "approx", "stability", "genfun", "all"])
    def test_coupling_above_ceiling_exit_two(self, suite, tmp_path, capsys):
        # The default g0_sq is 4; g2 above it is rejected before any suite
        # computes, so `all` writes no report either.
        code = main([suite, "--g2", "5", "--out", str(tmp_path)])
        assert code == 2
        assert "g0_sq" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.jsonl"))

    @pytest.mark.parametrize(
        "args,location",
        [
            (["scalar", "--d", "3", "--a", "nan"], "a.0"),
            (["approx", "--a", "nan"], "a.0"),
            (["single-bond", "--g2", "nan"], "g2.0"),
            (["single-bond", "--g2", "1,inf"], "g2.1"),
            (["approx", "--d", "2", "--a", "1e-300"], "a.0"),
            (["scalar", "--d", "3", "--a", "1e-300"], "a.0"),
            (["single-bond", "--g2", "5e-324"], "g2.0"),
            (["single-bond", "--d", "4", "--N", "8", "--g2", "1e-307"], "g2.0"),
        ],
    )
    def test_non_finite_number_exit_two(self, args, location, tmp_path, capsys):
        assert main(args + ["--out", str(tmp_path)]) == 2
        assert f"{location}: " in capsys.readouterr().err
        assert not (tmp_path / f"{args[0]}.jsonl").exists()

    def test_non_finite_ceiling_in_config_file_exit_two(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"suite": "single-bond", "g0_sq": float("nan")}))
        assert main(["single-bond", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert "g0_sq: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["single-bond", "--N", "3", "--d", "2", "--a", "1e-100"],
            ["approx", "--N", "2", "--d", "2", "--a", "1e-150"],
            ["single-bond", "--d", "4", "--N", "8", "--g2", "1e-10"],
        ],
    )
    def test_extreme_coupling_exit_zero(self, args, tmp_path):
        # beta up to 1e300: beta^(n^2/2) and z leave float range, their product does not
        assert main(args + ["--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / f"{args[0]}.jsonl").read_text())
        values = record["values"]
        assert record["verdict"] == "pass"
        assert all(math.isfinite(v) for v in values.values())
        if args[0] == "single-bond":
            assert values["c_lower"] <= values["log_z_lower"]
            assert values["log_z_upper"] <= values["c_upper"]

    @pytest.mark.parametrize(
        "args,key",
        [
            # ln ceiling = 864 overflows a double
            (["genfun", "--d", "3", "--L", "2", "--N", "3", "--a", "1e-4"], "ceiling"),
        ],
    )
    def test_non_finite_result_exit_three(self, args, key, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mc": {"sweeps": 60, "thermalization": 20}}))
        assert main(args + ["--config", str(config), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"NonFiniteResult: {args[0]} at " in err
        assert f"{key} is " in err
        assert not (tmp_path / f"{args[0]}.jsonl").exists()

    def test_stability_bounds_finite_where_z_underflows(self, tmp_path):
        # z_lower at N = 8, beta = 1e12 underflows to 0, but the bounds are formed
        # as R (ln zeta - 32 ln beta).  These short chains never move (the
        # acceptance is 0), so the record fails.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mc": {"sweeps": 60, "thermalization": 20}}))
        args = ["stability", "--d", "4", "--L", "2", "--N", "8", "--g2", "1e-12"]
        assert main(args + ["--config", str(config), "--out", str(tmp_path)]) == 1
        values = json.loads((tmp_path / "stability.jsonl").read_text())["values"]
        group, coupling = GroupSpec(8), CouplingSpec(d=4, a=1.0, g2=1e-12)
        quad = QuadratureSpec()
        for key, log_zeta in (("lower", log_zeta_lower), ("upper", log_zeta_upper)):
            expected = 17 * log_z(log_zeta(coupling, group, quad)[0], coupling, group)
            assert math.isfinite(values[key])
            assert values[key] == pytest.approx(expected, rel=1e-12)
            assert values[f"{key}_exponent"] == 17

    @pytest.mark.parametrize("suite", ["stability", "genfun"])
    def test_frozen_chain_exit_one(self, suite, tmp_path, capsys):
        # At beta = 1e12 no replica accepts a move in 60 sweeps.  The 3-sigma
        # tests alone hold (ln Z carries a beta-grid error of 5e11, and a
        # frozen |G| is 1 with error 0), so only the zero acceptance fails them.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mc": {"sweeps": 60, "thermalization": 20}}))
        args = [suite, "--d", "4", "--L", "2", "--N", "1", "--g2", "1e-12"]
        assert main(args + ["--config", str(config), "--out", str(tmp_path)]) == 1
        assert f"{suite}[0]" in capsys.readouterr().err
        for line in (tmp_path / f"{suite}.jsonl").read_text().splitlines():
            record = json.loads(line)
            values, errors = record["values"], record["errors"]
            assert record["verdict"] == "fail"
            assert values["accept_min"] == 0.0
            if suite == "stability":
                mc = values["log_z_mc"]
                margin = min(mc - values["lower"], values["upper"] - mc)
                assert margin >= -3.0 * errors["log_z_mc"]
            else:
                assert values["abs_g"] <= values["ceiling"] + 3.0 * errors["abs_g"]

    def test_scalar_small_spacings_exit_zero(self, tmp_path):
        # at d=4, a = 0.25 and 0.1 a fixed transverse momentum grid misses the 1% gate
        assert main(["scalar", "--d", "4", "--a", "1,0.5,0.25,0.1", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scalar.jsonl").read_text().splitlines()
        assert [json.loads(line)["verdict"] for line in lines] == ["pass"] * 4

    @pytest.mark.parametrize("d", ["3", "4"])
    def test_scalar_tiny_spacing_exit_zero(self, d, tmp_path):
        # the fit window sits near n = 5000, whose Laplace integrands reach
        # Bessel arguments beyond 1e9, where scipy's ive is NaN
        assert main(["scalar", "--d", d, "--a", "0.001", "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "scalar.jsonl").read_text())
        assert record["verdict"] == "pass"
        assert set(record["errors"]) == {"derivative", "window"}
        assert all(0.0 <= v <= 1e-10 for v in record["errors"].values())

    def test_cold_start_loads_no_scipy_or_jsonschema(self):
        code = ("import sys, latticeym.cli, latticeym.scalar; print(sorted(m for m in "
                "sys.modules if m.startswith(('scipy', 'jsonschema'))))")
        assert fresh_python(code).stdout.strip() == "[]"

    def test_cold_start_loads_no_thread_pool(self):
        # The quadratic-bound scan imports its pool when it runs.
        code = ("import sys, latticeym.cli, latticeym.groups; print(sorted(m for m in "
                "sys.modules if m.startswith('concurrent')))")
        assert fresh_python(code).stdout.strip() == "[]"

    def test_suites_run_with_scipy_and_jsonschema_blocked(self, tmp_path):
        # a None entry in sys.modules makes every import of that package fail
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"mc": {"sweeps": 60, "thermalization": 20}}))
        runs = [["group-check"], ["weyl-check"], ["single-bond"], ["approx"],
                ["stability", "--d", "2", "--L", "2", "--config", str(config)]]
        code = ("import sys\n"
                "sys.modules['scipy'] = sys.modules['jsonschema'] = None\n"
                "from latticeym.cli import main\n"
                f"for args in {runs!r}:\n"
                f"    assert main(args + ['--out', {str(tmp_path)!r}]) == 0, args\n")
        fresh_python(code)

    def test_weyl_check_rank_five_exit_zero(self, tmp_path):
        assert main(["weyl-check", "--N", "5", "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "weyl-check.jsonl").read_text())
        assert abs(record["values"]["gse_ratio"] - 1.0) < 1e-10

    def test_approx_rank_five_runs_in_seconds(self, tmp_path):
        import time

        started = time.perf_counter()
        assert main(["approx", "--N", "5", "--d", "3", "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - started < 10.0

    def test_quadrature_errors_reported(self, tmp_path):
        assert main(["single-bond", "--N", "2", "--a", "1,0.1", "--out", str(tmp_path)]) == 0
        header = (tmp_path / "single-bond-summary.csv").read_text().splitlines()[0]
        assert header.endswith("err_log_z_lower,err_log_z_upper")
        for line in (tmp_path / "single-bond.jsonl").read_text().splitlines():
            errors = json.loads(line)["errors"]
            assert set(errors) == {"log_z_upper", "log_z_lower"}
            assert all(0.0 <= v < 1e-6 for v in errors.values())

    def test_approx_covers_full_grid(self, tmp_path):
        args = ["approx", "--N", "1,2", "--a", "1,0.5", "--g2", "0.5,1", "--out", str(tmp_path)]
        assert main(args) == 0
        lines = (tmp_path / "approx.jsonl").read_text().splitlines()
        grid = {(r["n"], r["a"], r["g2"]) for r in (json.loads(l)["inputs"] for l in lines)}
        assert len(lines) == 8
        assert grid == set(itertools.product((1, 2), (1.0, 0.5), (0.5, 1.0)))

    def test_approx_reads_zeta_upper_once_per_point(self, tmp_path, monkeypatch):
        # The free energy converts the ln zeta_u the record already holds.
        import latticeym.single_bond as single_bond

        bond_integral, couplings = single_bond._bond_integral, []

        def counted(w, rule, coupling, group, quad):
            couplings.append(coupling.g2)
            return bond_integral(w, rule, coupling, group, quad)

        monkeypatch.setattr(single_bond, "_bond_integral", counted)
        config = RunConfig.from_mapping(
            {"suite": "approx", "d": 4, "n": [2], "g2": [0.5, 1.0], "out": str(tmp_path)})
        assert len(run_suite(config)["approx"]) == 2
        assert couplings == [0.5, 1.0]

    def test_genfun_reads_zeta_lower_once_per_point(self, tmp_path, monkeypatch):
        # ln zeta_l does not depend on the source strength, so each
        # (group, coupling) evaluates it once for both strengths.
        import latticeym.cli as cli_module
        import latticeym.mc as mc_module

        calls = []

        def counted(coupling, group, quad):
            calls.append((group.n, coupling.g2))
            return log_zeta_lower(coupling, group, quad)

        monkeypatch.setattr(cli_module, "log_zeta_lower", counted)
        monkeypatch.setattr(mc_module, "log_zeta_lower", counted)
        config = RunConfig.from_mapping(
            {"suite": "genfun", "L": 2, "n": [1, 2], "g2": [2.0, 4.0], "seed": 2,
             "mc": {"sweeps": 60, "thermalization": 20}, "out": str(tmp_path)})
        records = run_suite(config)["genfun"]
        assert calls == [(1, 2.0), (1, 4.0), (2, 2.0), (2, 4.0)]
        # The ceiling is the one it computes without the hoisted value.
        calls.clear()
        points = [point for point in cli_module._grid(config) for _ in range(2)]
        assert len(points) == len(records) == 8
        for (group, coupling), record in zip(points, records):
            sources = mc_module.SourceSpec(plaquettes=(record.inputs["plaquette"],),
                                           strengths=(record.inputs["strength"],))
            assert record.values["ceiling"] == mc_module.generating_function_ceiling(
                config.L, coupling, group, sources, config.quadrature)
        assert len(calls) == 8

    @pytest.mark.parametrize("message", ["Unable to allocate 71.1 PiB", ""])
    @pytest.mark.parametrize("suite", ["approx", "all"])
    def test_memory_error_exit_three(self, suite, message, tmp_path, capsys, monkeypatch):
        # The runner raises at once: the test allocates nothing large.
        import latticeym.cli as cli_module

        def exhausted(config):
            raise MemoryError(message)

        name = "approx" if suite == "approx" else "group-check"
        monkeypatch.setitem(cli_module._SUITE_RUNNERS, name, exhausted)
        assert main([suite, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"MemoryError: {name}: {message or 'allocation failed'}")
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_memory_error_in_scan_worker_exit_three(self, tmp_path, capsys, monkeypatch):
        # Raised on a worker thread of the quadratic-bound scan, it still
        # reaches the CLI named after the suite, and no thread outlives it.
        import threading

        import latticeym.groups as groups_module

        def exhausted(u):
            assert threading.current_thread() is not threading.main_thread()
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(groups_module, "_leading_bound_sides", exhausted)
        threads = threading.active_count()
        assert main(["group-check", "--N", "2", "--out", str(tmp_path)]) == 3
        assert threading.active_count() == threads
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: group-check: Unable to allocate 1.00 TiB")
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_memory_error_in_replica_worker_exit_three(self, tmp_path, capsys, monkeypatch):
        # Raised in a forked child's slice of the stability batch, it still
        # reaches the CLI named after the suite, and no child outlives it.
        import latticeym.mc as mc_module

        parent, run_batch = os.getpid(), mc_module._run_batch

        def exhausted(*args):
            if os.getpid() != parent:
                raise MemoryError("Unable to allocate 2.00 TiB")
            return run_batch(*args)

        monkeypatch.setattr(mc_module, "_run_batch", exhausted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"mc": {"sweeps": 40, "thermalization": 20}}))
        out = tmp_path / "out"
        assert main(["stability", "--d", "3", "--L", "2", "--N", "1", "--config", str(config),
                     "--out", str(out)]) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        err = capsys.readouterr().err
        assert err.startswith("MemoryError: stability: Unable to allocate 2.00 TiB")
        assert "Traceback" not in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("below_file", [False, True])
    def test_out_not_a_directory_exit_two(self, below_file, tmp_path, capsys, monkeypatch):
        # An --out that cannot become a directory is reported before any
        # suite runs.
        import latticeym.cli as cli_module

        def never(config):
            raise AssertionError("the suite ran")

        monkeypatch.setitem(cli_module._SUITE_RUNNERS, "weyl-check", never)
        existing = tmp_path / "existing"
        existing.write_text("")
        out = existing / "sub" if below_file else existing
        assert main(["weyl-check", "--N", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration -- out: cannot create report directory")
        assert "Traceback" not in err

    @pytest.mark.parametrize("suite,per_point", [("stability", 1), ("genfun", 2)])
    def test_mc_suites_cover_grid_with_diagnostics(self, suite, per_point, tmp_path):
        args = [suite, "--L", "2", "--N", "1,2", "--g2", "2,4", "--seed", "2",
                "--out", str(tmp_path)]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"mc": {"sweeps": 200, "thermalization": 50}}))
        assert main(args + ["--config", str(config)]) == 0
        records = [json.loads(l) for l in (tmp_path / f"{suite}.jsonl").read_text().splitlines()]
        assert len(records) == 4 * per_point
        assert {r["inputs"]["n"] for r in records} == {1, 2}
        for record in records:
            assert 0.0 < record["values"]["accept_min"] <= 1.0
            assert 0.0 <= record["values"]["unitarity_defect"] < 1e-12

    def test_config_file_with_overrides(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"suite": "weyl-check", "n": [2]}))
        code = main(
            ["weyl-check", "--config", str(config_path), "--N", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        record = json.loads((tmp_path / "weyl-check.jsonl").read_text().splitlines()[0])
        assert record["inputs"]["n"] == 1  # flag wins over file

    def test_failing_record_exit_one(self, tmp_path, capsys, monkeypatch):
        import latticeym.cli as cli_module

        def failing_runner(config):
            return [
                ReportRecord(
                    suite=config.suite, inputs={}, values={"q": 1.0}, errors={},
                    lhs=2.0, rhs=1.0, verdict="fail", seed=config.seed,
                )
            ]

        monkeypatch.setitem(cli_module._SUITE_RUNNERS, "approx", failing_runner)
        code = main(["approx", "--out", str(tmp_path)])
        assert code == 1
        assert "approx[0]" in capsys.readouterr().err
        # files are still written for post-mortem inspection
        assert (tmp_path / "approx.jsonl").exists()

    def test_all_runs_every_suite(self, tmp_path):
        config = RunConfig.from_mapping(
            {
                "suite": "all",
                "L": 2,
                "mc": {"sweeps": 60, "thermalization": 20, "chains": 2},
                "out": str(tmp_path),
            }
        )
        results = run_suite(config)
        assert set(results) == {
            "group-check", "weyl-check", "single-bond", "approx",
            "stability", "genfun", "scalar",
        }
        for name in results:
            assert (tmp_path / f"{name}.jsonl").exists()
