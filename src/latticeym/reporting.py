"""Run configuration, report records, and bit-stable report files.

A run is described by a JSON document validated against the schema
shipped beside this module, ``run_config.schema.json`` (read once at import
as ``RUN_CONFIG_SCHEMA``), before any computation starts.  It is the one
source of the constraints, the suite names included.  The schema is
interpreted here, by a short recursive validator that implements the
Draft 2020-12 keywords the schema uses and no others, so a run needs no JSON
Schema library; the tests hold it to ``jsonschema``'s verdicts.  Errors come
in the schema's own keyword order, so the file keeps that order rather than
sorted keys.  ``CONFIG_FIELDS`` maps each of its keys to a
``RunConfig`` attribute and, where there is one, to the command-line flag
that overrides it.  Each suite emits a list of ``ReportRecord`` objects
which are serialized three ways:

* ``<out>/<suite>.jsonl`` — one sorted-key JSON object per record.  These
  bytes are reproducible: identical config and seed give identical files,
  so wall-clock timing is kept out of them (it goes to the sidecar
  ``<suite>-meta.json`` instead).
* ``<out>/<suite>-summary.csv`` — one row per record with fixed base
  columns followed by the suite's sorted value/error keys; floats printed
  with 17 significant digits.
* ``<out>/<suite>-points.csv`` — long-format (x, y, series) rows for
  external plotting.

Column conventions are documented in ``docs/report_columns.md``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from numbers import Number
from pathlib import Path
from typing import NamedTuple, Optional

from . import __version__
from .errors import ConfigInvalid
from .mc import MCParams
from .quadrature import QuadratureSpec
from .single_bond import quadratic_rate

__all__ = [
    "RUN_CONFIG_SCHEMA",
    "SUITE_NAMES",
    "CONFIG_FIELDS",
    "RunConfig",
    "ReportRecord",
    "write_reports",
]

RUN_CONFIG_SCHEMA = json.loads(Path(__file__).with_name("run_config.schema.json").read_text())
SUITE_NAMES = tuple(RUN_CONFIG_SCHEMA["properties"]["suite"]["enum"])

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

_TYPES = {"object": dict, "array": list, "string": str, "number": Number, "integer": int}
# keyword: (test that fails, message).  NaN fails no comparison, so it passes
# the bounds; NaN % m is NaN, which fails multipleOf, as in jsonschema.
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "multipleOf": (operator.mod, "not a multiple of"),
}
# Keywords of RUN_CONFIG_SCHEMA that carry no constraint.
_ANNOTATIONS = ("$schema", "title")


def _is_type(value, name: str) -> bool:
    """Draft 2020-12 typing: a bool is neither an integer nor a number, and an
    integral float such as 2.0 is an integer."""
    if isinstance(value, bool):
        return False
    if name == "integer" and isinstance(value, float):
        return value.is_integer()
    return isinstance(value, _TYPES[name])


def _schema_errors(value, schema: Mapping, path: tuple = ()):
    """Yield (path, message) for each violation of ``schema`` by ``value``.

    Interprets the validation keywords RUN_CONFIG_SCHEMA uses (type, enum,
    the ``_BOUNDS``, minItems, items, properties, required and
    additionalProperties: false) with Draft 2020-12 semantics and
    jsonschema's messages, in the schema's own order; any other keyword
    except the ``_ANNOTATIONS`` raises.
    """
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _is_type(value, arg):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            # 2 and 2.0 are the same JSON value; True and 1 are not
            if not any(value == option and isinstance(value, bool) == isinstance(option, bool)
                       for option in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS:
            fails, text = _BOUNDS[keyword]
            if _is_type(value, "number") and fails(value, arg):
                yield path, f"{value!r} is {text} {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif keyword == "items":
            if isinstance(value, list):
                for index, item in enumerate(value):
                    yield from _schema_errors(item, arg, path + (index,))
        elif keyword == "properties":
            if isinstance(value, dict):
                for key, subschema in arg.items():
                    if key in value:
                        yield from _schema_errors(value[key], subschema, path + (key,))
        elif keyword == "required":
            if isinstance(value, dict):
                yield from ((path, f"{key!r} is a required property")
                            for key in arg if key not in value)
        elif keyword == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extras = [key for key in value if key not in schema.get("properties", {})]
                if extras:
                    names = ", ".join(map(repr, sorted(extras, key=str)))
                    yield path, (f"Additional properties are not allowed ({names} "
                                 f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif keyword not in _ANNOTATIONS:
            raise ValueError(f"schema keyword {keyword}: {arg!r} is not implemented")


class ConfigField(NamedTuple):
    """How one run-config field is read from JSON and, if it has a flag, from the CLI."""

    key: str                     # JSON key in RUN_CONFIG_SCHEMA
    attribute: str               # RunConfig attribute
    item: Callable               # conversion of the value, or of each entry of a list
    many: bool = False           # a JSON list, held as a tuple
    flag: Optional[str] = None   # command-line flag that overrides the key
    help: Optional[str] = None

    def convert(self, value):
        """The RunConfig attribute for a schema-valid JSON value."""
        return tuple(self.item(v) for v in value) if self.many else self.item(value)


CONFIG_FIELDS = (
    ConfigField("suite", "suite", str),
    ConfigField("n", "n_values", int, True, "--N", "comma-separated group ranks"),
    ConfigField("d", "d", int, False, "--d", "lattice dimension"),
    ConfigField("L", "L", int, False, "--L", "even lattice side length"),
    ConfigField("boundary", "boundary", str, False, "--boundary", "boundary condition"),
    ConfigField("a", "a_values", float, True, "--a", "comma-separated lattice spacings"),
    ConfigField("g2", "g2_values", float, True, "--g2", "comma-separated couplings"),
    ConfigField("g0_sq", "g0_sq", float),
    ConfigField("mc", "mc", lambda value: MCParams(**value)),
    ConfigField("quadrature", "quadrature", lambda value: QuadratureSpec(**value)),
    ConfigField("out", "out", str, False, "--out", "output directory for report files"),
    ConfigField("seed", "seed", int, False, "--seed", "root RNG seed"),
)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one suite invocation."""

    suite: str
    n_values: tuple = (1,)
    d: int = 2
    L: int = 4
    boundary: str = "free"
    a_values: tuple = (1.0,)
    g2_values: tuple = (1.0,)
    g0_sq: float = 4.0
    mc: MCParams = field(default_factory=MCParams)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    out: str = "reports"
    seed: int = 0

    @classmethod
    def from_mapping(cls, data: Mapping) -> "RunConfig":
        """Build a config from a JSON-style mapping, validating it first.

        Raises
        ------
        ConfigInvalid
            With the offending field named, on a schema violation, a
            non-finite number, a coupling above ``g0_sq``, or a spacing or
            coupling whose a**-d, or beta = a**(d-4)/g2 times the quadratic
            rate ``quadratic_rate(n, d)``, overflows a float.
        """
        errors = sorted(_schema_errors(data, RUN_CONFIG_SCHEMA),
                        key=lambda error: list(map(str, error[0])))
        if errors:
            path, message = errors[0]
            raise ConfigInvalid(f"{'.'.join(map(str, path)) or '<root>'}: {message}")
        values = {}
        for entry in CONFIG_FIELDS:
            if entry.key in data:
                try:
                    values[entry.attribute] = entry.convert(data[entry.key])
                except ValueError as exc:
                    # spec messages start with their field: "mc.sweeps: ..."
                    raise ConfigInvalid(f"{entry.key}.{exc}") from exc
        config = cls(**values)
        # JSON Schema bounds let NaN through, and +inf where no maximum is set.
        numbers = [(f"a.{i}", a) for i, a in enumerate(config.a_values)]
        numbers += [(f"g2.{i}", g2) for i, g2 in enumerate(config.g2_values)]
        for location, value in numbers + [("g0_sq", config.g0_sq)]:
            if not math.isfinite(value):
                raise ConfigInvalid(f"{location}: {value!r} is not a finite number")
        if any(g2 > config.g0_sq for g2 in config.g2_values):
            raise ConfigInvalid("g0_sq: must be >= every coupling in the g2 grid")
        # Compared in logarithms, because a**-d itself raises OverflowError.
        d, a_min = config.d, min(config.a_values)
        for i, a in enumerate(config.a_values):
            if -d * math.log(a) > _LOG_FLOAT_MAX:
                raise ConfigInvalid(f"a.{i}: a**-d overflows a float at d = {d}, got {a!r}")
        # a**(d-4) peaks at the smallest spacing, and is finite once a**-d is.
        # The lower bound's Gaussian rate exceeds beta, so checking it covers beta too.
        n_max = max(config.n_values)
        rate = quadratic_rate(n_max, d)
        for i, g2 in enumerate(config.g2_values):
            if math.log(rate) + (d - 4) * math.log(a_min) - math.log(g2) > _LOG_FLOAT_MAX:
                raise ConfigInvalid(f"g2.{i}: the rate {rate} beta, beta = a**(d-4)/g2, "
                                    f"overflows a float at d = {d}, n = {n_max}, "
                                    f"a = {a_min!r}, got {g2!r}")
        # The chains draw from the root seed.
        return replace(config, mc=replace(config.mc, seed=config.seed))


@dataclass(frozen=True)
class ReportRecord:
    """One verdict-carrying measurement within a suite."""

    suite: str
    inputs: Mapping
    values: Mapping
    errors: Mapping
    lhs: Optional[float]
    rhs: Optional[float]
    verdict: str
    seed: int
    version: str = __version__

    def __post_init__(self):
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be 'pass' or 'fail', got {self.verdict!r}")

    def to_mapping(self) -> dict:
        # Every field, with the mappings copied to the plain dicts JSON needs.
        return {key: dict(value) if isinstance(value, Mapping) else value
                for key, value in vars(self).items()}


def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.17g" % value
    if value is None:
        return ""
    return str(value)


def _summary_columns(records) -> list:
    value_keys = sorted({key for r in records for key in r.values})
    error_keys = sorted({key for r in records for key in r.errors})
    base = ["suite", "record", "verdict", "lhs", "rhs", "seed", "version"]
    return base + value_keys + [f"err_{key}" for key in error_keys]


def _point_x(record: ReportRecord, index: int) -> float:
    # Scan variable for plotting: prefer the spacing, then the coupling,
    # then the rank, falling back to the record index.
    for key in ("a", "beta", "g2", "n"):
        if key in record.inputs:
            return float(record.inputs[key])
    return float(index)


def write_reports(out_dir, suite: str, records, wall_time: float) -> dict:
    """Write the JSONL, summary CSV, long-format CSV, and meta sidecar.

    Returns a mapping of artifact kind to path.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    jsonl_path = out / f"{suite}.jsonl"
    lines = [json.dumps(r.to_mapping(), sort_keys=True) for r in records]
    jsonl_path.write_text("".join(line + "\n" for line in lines))

    summary_path = out / f"{suite}-summary.csv"
    columns = _summary_columns(records)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for index, record in enumerate(records):
        row = {
            "suite": record.suite,
            "record": index,
            "verdict": record.verdict,
            "lhs": record.lhs,
            "rhs": record.rhs,
            "seed": record.seed,
            "version": record.version,
        }
        for key, value in record.values.items():
            row[key] = value
        for key, value in record.errors.items():
            row[f"err_{key}"] = value
        writer.writerow([_format_cell(row.get(col)) for col in columns])
    summary_path.write_text(buffer.getvalue())

    points_path = out / f"{suite}-points.csv"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x", "y", "series"])
    for index, record in enumerate(records):
        x = _point_x(record, index)
        for key in sorted(record.values):
            value = record.values[key]
            if isinstance(value, (int, float)):
                writer.writerow([_format_cell(x), _format_cell(float(value)), key])
    points_path.write_text(buffer.getvalue())

    meta_path = out / f"{suite}-meta.json"
    meta = {
        "suite": suite,
        "record_count": len(records),
        "wall_time_seconds": wall_time,
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")

    return {
        "jsonl": jsonl_path,
        "summary": summary_path,
        "points": points_path,
        "meta": meta_path,
    }
