"""Benchmark launcher: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload {sweep,decompose,oracle} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and benchmarks the package under
./src (never an installed copy). All load comes from this one process;
the only children are the fresh interpreters timed for setup_s, run one
after another. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json for --trace 0, the per-layer metrics for --trace 1.
"""

import os

# Single-threaded BLAS baseline, pinned before numpy can load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 9
TAIL_LEVELS = (99.9, 99.0, 90.0, 75.0, 50.0)


class SetupError(RuntimeError):
    pass


def import_program():
    """Import quadboson from ROOT/src; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import quadboson
    except ImportError as exc:
        raise SetupError(f"cannot import quadboson from {src}: {exc}") from None
    origin = Path(quadboson.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"quadboson imported from {origin}, not from {src}")
    return quadboson


def blas_threads() -> str:
    """Thread count each loaded OpenBLAS reports, read from the live libraries."""
    import ctypes
    counts = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                counts.append(str(getattr(lib, symbol)()))
                break
    return ",".join(counts) or "unknown"


def tail_percentile(samples):
    """Highest of TAIL_LEVELS with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    for level in TAIL_LEVELS:
        if len(ordered) * (1.0 - level / 100.0) >= 10:
            return level, statistics.quantiles(ordered, n=1000, method="inclusive")[
                int(round(level * 10)) - 1]
    return None, None


def time_setup(args) -> float:
    """Median wall time of fresh interpreters that import, build the inputs and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def measure(workload, seconds: float, tracer=None):
    """Passes while the next one, as long as the last, ends within `seconds`.

    At least one pass runs. The run ends inside its time rather than up to
    a whole pass after it, which matters for the ~5-s oracle passes. With
    a tracer, untraced and traced passes alternate so both see the same
    machine state; the untraced ones give the tracing overhead.
    """
    plain, traced = [], []
    start = perf_counter()
    last = 0.0
    while not plain or perf_counter() - start + last <= seconds:
        begun = perf_counter()
        plain.append(workload.run_pass(lambda name: nullcontext()))
        if tracer is not None:
            tracer.pass_index = len(traced)
            with tracer:
                traced.append(workload.run_pass(tracer.span))
        last = perf_counter() - begun
    return plain, traced


def pass_wall(ops) -> float:
    return sum(op.seconds for op in ops)


def fastest_pass(passes) -> list:
    """One pass made of each operation's fastest timing in the run.

    Every pass makes the same program calls in the same order, so position
    i of each pass is the same call on the same input.
    """
    return [min(ops, key=lambda op: op.seconds) for ops in zip(*passes, strict=True)]


def end_to_end(workload, passes, setup_s: float) -> dict:
    """Run-level end-to-end metrics.

    Times come from the fastest pass: each operation at the fastest of its
    timings in the run. The shared host's speed changes by up to 2x from
    pass to pass and by ~35% for minutes at a time; the mean or median pass
    follows whichever states a run happens to meet, while an operation
    timed many times meets a moment when the host runs at full speed.
    """
    ops = [op for ops in passes for op in ops]
    best = fastest_pass(passes)
    wall = sum(op.seconds for op in best)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops_per_s": sum(op.units for op in best) / wall,
        "largest_case_s": statistics.fmean(
            op.seconds for op in best if op.case == workload.largest_case),
        "fail_ratio": sum(op.failed for op in ops) / sum(op.units for op in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, plain, traced, tracer, names) -> dict:
    import spans
    per_pass = [tracer.pass_metrics(i, sum(op.units for op in ops))
                for i, ops in enumerate(traced)]
    values = spans.median_metrics(per_pass, names)
    values["trace.overhead_s"] = (statistics.fmean(pass_wall(p) for p in traced)
                                  - statistics.fmean(pass_wall(p) for p in plain))
    values["fock.metric_residual_floor"] = getattr(workload, "reference_floor", 0.0)
    return {name: values[name] for name in names}


def report_cases(workload, passes) -> None:
    ops = [op for ops in passes for op in ops]
    print(f"{'case':<22}{'ops':>7}{'median_ms':>14}{'failed':>9}")
    for case in dict.fromkeys(op.case for op in ops):
        mine = [op for op in ops if op.case == case]
        print(f"{case:<22}{len(mine):>7}"
              f"{1e3 * statistics.median(op.seconds for op in mine):>14.4f}"
              f"{sum(op.failed for op in mine):>9}")
        for error in sorted({op.error for op in mine if op.error}):
            print(f"  error in {case}: {error}", file=sys.stderr)
    per_unit = [1e6 * op.seconds / op.units for op in ops]
    level, value = tail_percentile(per_unit)
    tail = f"p{level:g} {value:.1f} us" if level else "no percentile has 10 samples beyond it"
    print(f"latency per {workload.unit}: p50 {statistics.median(per_unit):.1f} us, {tail} "
          f"(n={len(per_unit)})")
    for case in ("k2", "k3"):
        done = [op.seconds for op in ops if op.case == case and not op.failed]
        if any(op.case == case for op in ops):
            text = f"{statistics.median(done):.4f} s" if done else "no passed verification"
            print(f"{case}_verify_s (median time to a passed, converged verification): {text}")
    if hasattr(workload, "csv_digests"):
        for name, digest in workload.csv_digests().items():
            print(f"csv sha256[:16] {name}: {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "decompose", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs in a fresh interpreter and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        qb = import_program()
        import numpy
        import scipy
        import workloads
        with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as tmp:
            workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
            workload.warm_up()
            if args.setup_only:
                return 0
            setup_s = time_setup(args)
            tracer = None
            if args.trace:
                import spans
                tracer = spans.Tracer()
            plain, traced = measure(workload, args.seconds, tracer)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds:g}  "
          f"trace: {args.trace}  passes: {len(plain)} untraced, {len(traced)} traced")
    print(f"env: nproc={os.cpu_count()} blas_threads={blas_threads()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} quadboson={qb.__version__}")
    report_cases(workload, plain)

    ops = [op for ops in plain + traced for op in ops]
    attempted = sum(op.units for op in ops)
    failed = sum(op.failed for op in ops)
    correct = attempted > 0
    if tracer is None:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = end_to_end(workload, plain, setup_s)
    else:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = per_layer(workload, plain, traced, tracer, [n for n, _ in names])
        leftovers = tracer.leftovers()
        error = tracer.self_sum_error()
        correct = correct and not leftovers and error < 1e-6
        print(f"trace: {len(tracer.spans)} spans; wrappers left installed: {len(leftovers)}; "
              f"max |sum of self times - root duration| = {error:.3g} s")
    print(f"{'metric':<40}{'value':>18}  unit")
    for name, unit in names:
        print(f"{name:<40}{values[name]:>18.6g}  {unit}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(values[name]), "unit": unit}
                          for name, unit in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
