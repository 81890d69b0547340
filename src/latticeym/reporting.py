"""Run configuration, report records, and bit-stable report files.

A run is described by a JSON document validated against
``RUN_CONFIG_SCHEMA`` before any computation starts.  Each suite emits a
list of ``ReportRecord`` objects which are serialized three ways:

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import jsonschema

from . import __version__
from .errors import ConfigInvalid
from .mc import MCParams
from .quadrature import QuadratureSpec

__all__ = [
    "RUN_CONFIG_SCHEMA",
    "SUITE_NAMES",
    "RunConfig",
    "ReportRecord",
    "write_reports",
]

SUITE_NAMES = (
    "group-check",
    "weyl-check",
    "single-bond",
    "approx",
    "stability",
    "genfun",
    "scalar",
    "all",
)

RUN_CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "RunConfig",
    "type": "object",
    "additionalProperties": False,
    "required": ["suite"],
    "properties": {
        "suite": {"type": "string", "enum": list(SUITE_NAMES)},
        "n": {
            "type": "array",
            "items": {"type": "integer", "minimum": 1, "maximum": 8},
            "minItems": 1,
        },
        "d": {"type": "integer", "enum": [2, 3, 4]},
        "L": {"type": "integer", "minimum": 2, "multipleOf": 2},
        "boundary": {"type": "string", "enum": ["free", "periodic"]},
        "a": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            "minItems": 1,
        },
        "g2": {
            "type": "array",
            "items": {"type": "number", "exclusiveMinimum": 0},
            "minItems": 1,
        },
        "g0_sq": {"type": "number", "exclusiveMinimum": 0},
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "sweeps": {"type": "integer", "minimum": 1},
                "thermalization": {"type": "integer", "minimum": 0},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "chains": {"type": "integer", "minimum": 1},
                "beta_grid_points": {"type": "integer", "minimum": 3},
            },
        },
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "points": {"type": "integer", "minimum": 8},
                "rtol": {"type": "number", "exclusiveMinimum": 0},
                "atol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "out": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
}


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
            With the offending field named, on any schema violation.
        """
        validator = jsonschema.Draft202012Validator(RUN_CONFIG_SCHEMA)
        errors = sorted(validator.iter_errors(data), key=lambda e: list(map(str, e.path)))
        if errors:
            first = errors[0]
            location = ".".join(str(p) for p in first.path) or "<root>"
            raise ConfigInvalid(f"{location}: {first.message}")
        # JSON Schema bounds let NaN through, and +inf where no maximum is set.
        numbers = [
            (f"{key}.{i}", value)
            for key in ("a", "g2")
            for i, value in enumerate(data.get(key, ()))
        ]
        numbers += [("g0_sq", data["g0_sq"])] if "g0_sq" in data else []
        for location, value in numbers:
            if not math.isfinite(value):
                raise ConfigInvalid(f"{location}: {value!r} is not a finite number")
        mc_kwargs = dict(data.get("mc", {}))
        mc_kwargs.setdefault("seed", int(data.get("seed", 0)))
        try:
            mc = MCParams(**mc_kwargs)
        except ValueError as exc:
            raise ConfigInvalid(f"mc.{exc}") from exc
        try:
            quadrature = QuadratureSpec(**data.get("quadrature", {}))
        except ValueError as exc:
            raise ConfigInvalid(f"quadrature.{exc}") from exc
        return cls(
            suite=data["suite"],
            n_values=tuple(int(v) for v in data.get("n", (1,))),
            d=int(data.get("d", 2)),
            L=int(data.get("L", 4)),
            boundary=data.get("boundary", "free"),
            a_values=tuple(float(v) for v in data.get("a", (1.0,))),
            g2_values=tuple(float(v) for v in data.get("g2", (1.0,))),
            g0_sq=float(data.get("g0_sq", 4.0)),
            mc=mc,
            quadrature=quadrature,
            out=data.get("out", "reports"),
            seed=int(data.get("seed", 0)),
        )

    def to_mapping(self) -> dict:
        return {
            "suite": self.suite,
            "n": list(self.n_values),
            "d": self.d,
            "L": self.L,
            "boundary": self.boundary,
            "a": list(self.a_values),
            "g2": list(self.g2_values),
            "g0_sq": self.g0_sq,
            "mc": {
                "sweeps": self.mc.sweeps,
                "thermalization": self.mc.thermalization,
                "epsilon": self.mc.epsilon,
                "chains": self.mc.chains,
                "beta_grid_points": self.mc.beta_grid_points,
            },
            "quadrature": {
                "points": self.quadrature.points,
                "rtol": self.quadrature.rtol,
                "atol": self.quadrature.atol,
            },
            "out": self.out,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ReportRecord:
    """One verdict-carrying measurement within a suite.

    ``wall_time`` is provenance only: it is reported in the sidecar meta
    file, never in the reproducible JSONL/CSV outputs.
    """

    suite: str
    inputs: Mapping
    values: Mapping
    errors: Mapping
    lhs: Optional[float]
    rhs: Optional[float]
    verdict: str
    seed: int
    version: str = __version__
    wall_time: float = 0.0

    def __post_init__(self):
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"verdict must be 'pass' or 'fail', got {self.verdict!r}")

    def to_mapping(self) -> dict:
        return {
            "suite": self.suite,
            "inputs": dict(self.inputs),
            "values": dict(self.values),
            "errors": dict(self.errors),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
            "seed": self.seed,
            "version": self.version,
        }

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ReportRecord":
        return cls(
            suite=data["suite"],
            inputs=dict(data["inputs"]),
            values=dict(data["values"]),
            errors=dict(data["errors"]),
            lhs=data["lhs"],
            rhs=data["rhs"],
            verdict=data["verdict"],
            seed=data["seed"],
            version=data["version"],
        )


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
