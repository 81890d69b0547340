"""Benchmark harness for latticeym: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload mc-thermo --seed 1 --seconds 25 --trace 0

The harness imports the package from ``src/`` next to this directory, builds
the workload's inputs from the seed, and repeats the whole workload in
passes until ``--seconds``, counted from the start of the set-up samples,
are used (at least two passes).  Each pass starts with the package's
memoisation caches cleared, so it costs what a fresh CLI invocation costs
apart from imports; imports and config validation are measured separately
as ``setup_s`` in fresh interpreters.

The host's speed drifts, so a reference kernel (calibrate.py) is timed
before and after every job, and the reported ``wall_s`` is the pass time
rescaled towards the kernel's reference speed by the workload's
sensitivity; ``setup_s`` is rescaled by a reference interpreter.  The raw
times are printed next to them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
spends about half of the time on untraced passes and the rest on passes with
span recording installed (see spans.py), and reports the per-layer metrics
plus the tracing overhead.  Every pass's ``.jsonl`` reports must be
byte-identical to the first pass's, and the first pass's records are checked
against independent values (workloads.check_outputs).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("groups", "quadrature", "single_bond", "factorized", "lattice", "mc", "scalar",
           "reporting", "cli")

# The workloads multiply 1x1 to 3x3 matrices and evaluate elementwise
# integrands, so BLAS threads add contention and run-to-run noise, not speed.
# OpenBLAS otherwise starts one thread per core.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
TINY_SETUP_REPEATS = 2

# Runs in a fresh interpreter: import every module, validate every config,
# then print the monotonic clock, which Linux shares between processes.
SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import latticeym.groups, latticeym.quadrature, latticeym.single_bond
import latticeym.factorized, latticeym.lattice, latticeym.mc, latticeym.scalar
import latticeym.reporting, latticeym.cli
for mapping in json.loads(sys.argv[2]):
    latticeym.reporting.RunConfig.from_mapping(mapping)
print(time.monotonic())
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shortest chains and ranks <= 2, for the smoke test")
    return parser.parse_args(argv)


def time_interpreter(*args) -> float:
    """Seconds from spawning ``python -c <args>`` until it prints the clock."""
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(done.stdout.split()[-1]) - started


def measure_setup(mappings: list, repeats: int, calibrate) -> tuple:
    """Set-up samples: from spawning an interpreter until it has validated every config.

    Returns the raw samples and each one rescaled by the reference
    interpreter started right after it.
    """
    raw, normalized = [], []
    for _ in range(repeats):
        raw.append(time_interpreter(SETUP_CODE, str(SRC), json.dumps(mappings)))
        reference = time_interpreter(calibrate.SPAWN_CODE)
        normalized.append(raw[-1] * calibrate.SPAWN_REFERENCE_S / reference)
    return raw, normalized


@dataclasses.dataclass
class Pass:
    wall: float        # seconds spent in the jobs
    kernel: float      # median reference-kernel time sampled around the jobs
    normalized: float  # wall rescaled towards the kernel's reference speed
    records: dict      # job label -> list of record mappings
    reports: dict      # job label -> bytes of its .jsonl report
    raised: int        # jobs that raised a LatticeYMError
    layers: dict = dataclasses.field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.records.values()) + self.raised

    @property
    def failed(self) -> int:
        return sum(rec["verdict"] != "pass"
                   for r in self.records.values() for rec in r) + self.raised


def run_pass(jobs, configs, pkg, errors, caches, calibrate, sensitivity,
             pass_dir: Path) -> Pass:
    for cache in caches:
        cache.cache_clear()
    raised = 0
    wall = 0.0
    samples = calibrate.sample()
    for job in jobs:
        out = pass_dir / job.label
        started = time.perf_counter()
        try:
            if job.mapping is not None:
                pkg["cli"].run_suite(dataclasses.replace(configs[job.label], out=str(out)))
            else:
                job.call(pkg, out)
        except errors.SuiteFailed:
            pass  # reports are written; their failing verdicts are counted below
        except errors.LatticeYMError as exc:
            print(f"# {job.label}: {type(exc).__name__}: {exc}")
            raised += 1
        wall += time.perf_counter() - started
        samples += calibrate.sample()
    records, reports = {}, {}
    for job in jobs:
        path = pass_dir / job.label / f"{job.stem}.jsonl"
        if path.exists():
            reports[job.label] = path.read_bytes()
            records[job.label] = [json.loads(line) for line in reports[job.label].splitlines()]
    kernel = statistics.median(samples)
    return Pass(wall=wall, kernel=kernel,
                normalized=calibrate.normalize(wall, kernel, sensitivity),
                records=records, reports=reports, raised=raised)


def repeat_passes(budget: float, minimum: int, do_pass) -> list:
    """Run passes until the next one would end past ``budget`` seconds."""
    passes, durations = [], []
    started = time.perf_counter()
    while len(passes) < minimum or (
            time.perf_counter() - started + statistics.median(durations) <= budget):
        begun = time.perf_counter()
        passes.append(do_pass(len(passes)))
        durations.append(time.perf_counter() - begun)
    return passes


def summary(name: str, values: list, unit: str) -> str:
    text = f"# {name}: median {statistics.median(values):.6g} {unit} (n={len(values)})"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.6g}..{q3:.6g}, min {min(values):.6g}, max {max(values):.6g}"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latticeym" / "__init__.py").is_file():
        print(f"error: latticeym sources not found under {SRC}", file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import calibrate
    import spans
    import workloads

    pkg = {name: importlib.import_module(f"latticeym.{name}") for name in MODULES}
    errors = importlib.import_module("latticeym.errors")
    if Path(pkg["cli"].__file__).resolve().parent != (SRC / "latticeym").resolve():
        print(f"error: latticeym imported from {pkg['cli'].__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    print("# env: " + json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "run_id": run_id,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
    }))

    clock = time.perf_counter()
    jobs = workloads.build(args.workload, args.seed, tiny=args.tiny)
    mappings = [job.mapping for job in jobs if job.mapping is not None]
    setup_raw, setup = measure_setup(
        mappings, TINY_SETUP_REPEATS if args.tiny else SETUP_REPEATS, calibrate)
    configs = {job.label: pkg["reporting"].RunConfig.from_mapping(job.mapping)
               for job in jobs if job.mapping is not None}
    caches = list({id(value): value for module in pkg.values()
                   for value in vars(module).values()
                   if hasattr(value, "cache_clear") and hasattr(value, "cache_info")}.values())

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        def untraced(index):
            return run_pass(jobs, configs, pkg, errors, caches, calibrate,
                            workloads.SENSITIVITY[args.workload], scratch / f"pass{index}")

        remaining = args.seconds - (time.perf_counter() - clock)
        share = 0.5 if args.trace else 1.0
        plain = repeat_passes(remaining * share, 1 if args.trace else 2, untraced)
        traced = []
        if args.trace:
            tracer = spans.Tracer(run_id)

            def with_spans(index):
                first = tracer.mark()
                result = untraced(len(plain) + index)
                result.layers = spans.layer_metrics(tracer.spans, first, tracer.mark())
                result.layers["trace.spans"] = tracer.mark() - first
                return result

            tracer.install(pkg)
            try:
                traced = repeat_passes(remaining * (1 - share), 1, with_spans)
            finally:
                tracer.uninstall()
            trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}-{run_id}.jsonl"
            tracer.write(trace_file)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = plain + traced
    reference = every[0]
    reproducible = all(p.reports == reference.reports for p in every[1:])
    by_stem = {}
    for job in jobs:
        by_stem.setdefault(job.stem, []).extend(reference.records.get(job.label, []))
    problems = workloads.check_outputs(args.workload, pkg, lambda stem: by_stem.get(stem, []))
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)

    walls = [p.normalized for p in plain]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(summary("wall_s", walls, "s") + " (normalized)")
    print(summary("raw wall_s", [p.wall for p in plain], "s"))
    print("# pass times (s), normalized/raw: "
          + " ".join(f"{p.normalized:.4g}/{p.wall:.4g}" for p in plain))
    print(summary("reference kernel", [p.kernel * 1e3 for p in plain], "ms")
          + f" against {calibrate.REFERENCE_S * 1e3:g} ms")
    print(summary("setup_s", setup, "s") + " (normalized)")
    print(summary("raw setup_s", setup_raw, "s"))
    print(f"# failed_ratio: {failed}/{attempted} = {failed / attempted:.6g} "
          f"(fail verdicts plus raised calls, over {len(every)} passes)")
    print(f"# peak_rss_mb: {peak_rss_mb:.6g} MB")
    print(f"# reports byte-identical across {len(every)} passes: {reproducible}")
    for problem in problems:
        print(f"# check failed: {problem}")

    if args.trace:
        traced_walls = [p.normalized for p in traced]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        print(summary("traced wall_s", traced_walls, "s") + " (normalized)")
        print(f"# tracing overhead: {overhead:.6g} s per pass; spans in {trace_file}")
        values = {name: statistics.median(p.layers[name] for p in traced)
                  for name in traced[0].layers}
        values["trace.overhead_s"] = overhead
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": 1.0 - failed / attempted,
        }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
    metrics = {name: {"value": value, "unit": units.get(name) or spans.unit_of(name)}
               for name, value in values.items()}
    print(json.dumps({
        "correct": reproducible and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
