#!/usr/bin/env python3
"""Benchmark of renyi-quant: rate sweeps run through the CLI, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload high_rate_sweep --seed 1 --seconds 30 --trace 0

A workload is a list of CLI invocations (operations), each a call of
`renyi_quant.cli.main` with a temporary output directory. One process is the
only client and runs a closed loop: passes over the workload run back to back
for --seconds, the last one to completion, and within a pass each operation
starts when the previous one ends, in an order drawn from --seed. The run is
single-threaded, so it is also the single-core baseline.

Every output is checked against perfbench/reference/, made from the source of
the seed commit by perfbench/reference.py. An operation fails when it raises,
exits non-zero, or its output differs from the reference (`outputs_match`).
`correct` is false when any output differs, or when two traced passes give
different counts.

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
from untraced passes. With --trace 1 it carries the per-layer metrics, from
traced passes (see tracing.py), interleaved with untraced passes whose time
gives trace.overhead_frac; span totals are written under .perfbench-out/.

The last line of stdout is the result; the line before it is the run record:
host, versions, git sha, sample counts, fail_frac, the outputs byte-identical
to the reference and, with --trace 1, the cell passes per rate point of each
sweep.

BENCHMARK.json lists checked_in_configs and high_rate_sweep. general_source
(a piecewise-linear source, so a numerically tilted point density drives the
compander build and the r=3 codepoint refinement) runs the same way but is
not listed: on a 2-vCPU host whose speed drifts, its wall_s varied by 0.18 to
0.24 (interquartile range over median of ten runs), too close to a 0.25
regression bound to hold it. Run it by hand for compander and tilted-density
changes.

Which end-to-end metric each layer should move, and on which workload:
  quantizer.probabilities_s, quantizer.distortion_s, quantizer.cells_evaluated,
  quantizer.s_per_kcell: wall_s and cells_per_s on high_rate_sweep (dominant)
    and checked_in_configs; barely on general_source.
  quantizer.region_s, quantizer.passes_per_point: wall_s on checked_in_configs.
  compander.build_s, compander.refine_s, compander.point_density_s,
  density.cdf_evals, density.quantile_calls: wall_s on general_source; small
    on the listed workloads, where refine_s is 0.
  quadrature.integrate_calls, quadrature.subdivisions,
  quadrature.subdivisions_per_call, quadrature.busy_s, density.pdf_evals,
  density.interval_mass_calls: wall_s on every workload; the r != 2 share on
    general_source only.
  theory.calls, theory.busy_s, experiments.hypothesis_s, experiments.sweeps,
  experiments.rate_points, cli.io_s: fixed cost per sweep; wall_s on
    checked_in_configs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = ROOT / "perfbench" / "reference"
OUT_DIR = ROOT / ".perfbench-out"
PACKAGE_INIT = ROOT / "src" / "renyi_quant" / "__init__.py"

# 1e-6 relative admits a re-ordered summation and the ~5e-8 tail-mass
# correction, and still catches a broken cell or quadrature layer. Cells below
# 1e-15 in magnitude are rounding noise (partition_identity_gap sits at
# 1e-25..1e-19); 1e-15 is under 1e-6 of every other reference value, so the
# floor never loosens the check of a real number.
REL_TOL = 1e-6
ABS_FLOOR = 1e-15
SETUP_RUNS = 5

WORKLOADS = {
    "checked_in_configs": (
        ("asymptotics", "configs/gaussian_asymptotics.json"),
        ("distortion-density", "configs/gaussian_distortion_density.json"),
        ("mismatch", "configs/mismatch_gaussian.json"),
        ("mismatch", "configs/mismatch_uniform.json"),
        ("sanity", "configs/sanity_gaussian.json"),
        ("sanity", "configs/sanity_laplacian.json"),
        ("asymptotics", "configs/uniform_asymptotics.json"),
        ("entropy-density", "configs/uniform_entropy_density.json"),
        ("predict", "configs/uniform_predict.json"),
        ("lemma-check", None),
    ),
    "high_rate_sweep": (
        ("asymptotics", "perfbench/configs/high_rate_gaussian.json"),
        ("asymptotics", "perfbench/configs/high_rate_laplacian.json"),
        ("asymptotics", "perfbench/configs/high_rate_exponential.json"),
    ),
    "general_source": (
        ("asymptotics", "perfbench/configs/general_source_r2.json"),
        ("asymptotics", "perfbench/configs/general_source_r3_refined.json"),
    ),
}

SETUP_SCRIPT = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import renyi_quant.cli
from renyi_quant.experiments import ExperimentConfig
for path in sys.argv[2:]:
    ExperimentConfig.from_json(path)
print(time.perf_counter() - start)
"""


def import_program() -> None:
    """Import renyi_quant from this checkout's src/, or exit non-zero."""
    if not PACKAGE_INIT.is_file():
        sys.exit(f"error: {PACKAGE_INIT} not found; run from the root of a full checkout")
    sys.path.insert(0, str(PACKAGE_INIT.parent.parent))
    import renyi_quant

    if Path(renyi_quant.__file__).resolve() != PACKAGE_INIT:
        sys.exit(f"error: imported renyi_quant from {renyi_quant.__file__}, not {PACKAGE_INIT}")


@dataclass(frozen=True)
class Operation:
    command: str
    config: Path | None
    name: str  # config name, which names the CSV and its reference
    cells: int  # sum of n over the rate points a sweep evaluates

    @classmethod
    def load(cls, command: str, config: str | None) -> "Operation":
        from renyi_quant.experiments import DEFAULT_N_GRID, EXPERIMENTS

        if config is None:
            return cls(command, None, command, 0)
        path = ROOT / config
        raw = json.loads(path.read_text())
        cells = sum(raw.get("n_grid", DEFAULT_N_GRID)) if command in EXPERIMENTS else 0
        return cls(command, path, raw.get("name", path.stem), cells)

    @property
    def reference(self) -> Path | None:
        if self.command == "lemma-check":
            return None
        suffix = ".predict.txt" if self.command == "predict" else ".csv"
        return REFERENCE_DIR / f"{self.name}{suffix}"


def load_operations(workload: str) -> list[Operation]:
    return [Operation.load(command, config) for command, config in WORKLOADS[workload]]


@dataclass
class OperationResult:
    seconds: float
    exit_code: int | None  # None when the call raised
    output: str | None  # the CSV of a sweep, else stdout


def run_operation(op: Operation, seed: int, scratch: Path) -> OperationResult:
    from renyi_quant import cli, experiments

    out_dir = Path(tempfile.mkdtemp(dir=scratch))
    argv = [op.command]
    if op.config is not None:
        argv += ["--config", str(op.config)]
    if op.command in experiments.EXPERIMENTS:
        argv += ["--output-dir", str(out_dir)]
    if op.command == "lemma-check":
        argv += ["--seed", str(seed)]
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except Exception:  # a raising operation is counted as failed; the run goes on
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    output = stdout.getvalue()
    if op.command in experiments.EXPERIMENTS:
        csv_path = out_dir / f"{op.name}.csv"
        output = csv_path.read_text() if csv_path.is_file() else None
    shutil.rmtree(out_dir)
    return OperationResult(seconds, code, output)


def _value_matches(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_FLOOR)


def outputs_match(got: str, want: str) -> bool:
    """Same lines and fields (CSV cells, or `key = value` pairs), numbers
    within REL_TOL relative or ABS_FLOOR absolute, everything else equal."""
    got_rows = [re.split(r",| = ", line) for line in got.splitlines()]
    want_rows = [re.split(r",| = ", line) for line in want.splitlines()]
    return len(got_rows) == len(want_rows) and all(
        len(g) == len(w) and all(map(_value_matches, g, w)) for g, w in zip(got_rows, want_rows)
    )


@dataclass
class PassResult:
    seconds: float
    cells: int
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    compared: int = 0
    byte_identical: int = 0


def run_pass(ops: list[Operation], order: random.Random, seed: int, scratch: Path,
             failures: set[str]) -> PassResult:
    result = PassResult(0.0, sum(op.cells for op in ops))
    for op in order.sample(ops, len(ops)):
        done = run_operation(op, seed, scratch)
        result.seconds += done.seconds
        result.attempted += 1
        if op.reference is None:
            lines = (done.output or "").splitlines()
            matches = bool(lines) and all(
                re.match(r"lemma-check \S+: PASS\b", line) for line in lines
            )
        else:
            want = op.reference.read_text()
            matches = done.output is not None and outputs_match(done.output, want)
            result.compared += 1
            result.byte_identical += done.output == want
        if not matches:
            result.mismatched += 1
            failures.add(f"{op.name}: output differs from the reference")
        if done.exit_code != 0:
            failures.add(f"{op.name}: exit code {done.exit_code}")
        result.failed += not matches or done.exit_code != 0
    return result


def measure_setup(ops: list[Operation]) -> list[float]:
    """Seconds a fresh interpreter takes to import renyi_quant and load the configs."""
    configs = [str(op.config) for op in ops if op.config is not None]
    samples = []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SCRIPT, str(PACKAGE_INIT.parent.parent), *configs],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout))
    return samples


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest whole percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return None
    percentile = math.floor(100 * (len(samples) - 10) / len(samples))
    return {"percentile": percentile, "value": statistics.quantiles(samples, n=100)[percentile - 1]}


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_INIT.parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def host_record(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


@dataclass
class Measurement:
    passes: list[PassResult]
    values: dict[str, float]  # metric name -> value
    record: dict
    counts_repeat: bool = True


def measure_untraced(next_pass, ops: list[Operation], seconds: float) -> Measurement:
    setup = measure_setup(ops)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(next_pass())
    walls = [p.seconds for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "cells_per_s": statistics.median(p.cells / p.seconds for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "passes": len(passes),
        "wall_s_samples": walls,
        "wall_s_tail": tail_percentile(walls),
        "setup_s_samples": setup,
    }
    return Measurement(passes, values, record)


def measure_traced(next_pass, args: argparse.Namespace) -> Measurement:
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, times, counts = [], [], [], []
    # one untraced pass, then two traced ones, then alternating
    schedule = itertools.chain((False, True, True), itertools.cycle((False, True)))
    start = time.perf_counter()
    for with_trace in schedule:
        if len(traced) >= 2 and time.perf_counter() - start >= args.seconds:
            break
        if not with_trace:
            untraced.append(next_pass())
            continue
        tracer.reset()
        tracer.install()
        try:
            traced.append(next_pass())
        finally:
            tracer.uninstall()
        pass_times, pass_counts, per_sweep = tracer.layer_metrics()
        times.append(pass_times)
        counts.append(pass_counts)

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
    with spans_path.open("w") as out:
        out.write("name\tstart_s\tend_s\tparent\n")
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for name, t0, t1, parent in tracer.spans:
            out.write(f"{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{parent}\n")
    walls = [p.seconds for p in untraced]
    traced_walls = [p.seconds for p in traced]
    values = {
        **{name: statistics.median(t[name] for t in times) for name in times[0]},
        **counts[0],
        "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(walls) - 1.0,
    }
    repeat = all(c == counts[0] for c in counts)
    record = {
        "passes": len(untraced),
        "wall_s_samples": walls,
        "traced_wall_s_samples": traced_walls,
        "counts_repeat": repeat,
        "passes_per_point_by_sweep": per_sweep,
        "self_time_by_span": tracer.self_times(),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return Measurement(untraced + traced, values, record, repeat)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    # an ambient thread setting must not change the numbers
    os.environ.pop("RENYI_QUANT_THREADS", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = load_operations(args.workload)
    failures: set[str] = set()
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT_DIR))
    next_pass = functools.partial(run_pass, ops, random.Random(args.seed), args.seed, scratch, failures)
    try:
        if args.trace:
            measured = measure_traced(next_pass, args)
        else:
            measured = measure_untraced(next_pass, ops, args.seconds)
    finally:
        shutil.rmtree(scratch)

    passes = measured.passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        **host_record(args),
        "fail_frac": failed / attempted,
        "compared": sum(p.compared for p in passes),
        "byte_identical": sum(p.byte_identical for p in passes),
        "failures": sorted(failures),
        **measured.record,
    }
    for failure in sorted(failures):
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": record}))
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": measured.counts_repeat and all(p.mismatched == 0 for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured.values[m["name"]], "unit": m["unit"]} for m in metric_specs
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
