"""cohpure benchmark: one workload, one process, one seed.

    python3 perfbench/run.py --workload quantify --seed 1 --seconds 30 --trace 0

Run from the root of a source tree; cohpure is imported from ``src/``.
The run sets up (import, input generation from the seed, state files and
a warm-up operation), then repeats whole rounds of the workload's
operations, one at a time, and stops at the round boundary nearest to
``--seconds`` of wall time (after one round at least). Every output
is checked against independent numpy formulas; an operation fails on a
wrong output, an exception or an unexpected exit code.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("quantify", "hierarchy", "spectral")
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Run as a user would by default: no COHPURE_THREADS, and one BLAS
    thread, since the matrices are at most 64 x 64 and a second thread
    only adds scheduling noise on shared cores."""
    os.environ.pop("COHPURE_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import cohpure from this tree's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cohpure" / "__init__.py").is_file():
        raise SystemExit(f"error: no cohpure sources under {src}")
    sys.path.insert(0, str(src))
    import cohpure

    if Path(cohpure.__file__).resolve().parent != (src / "cohpure").resolve():
        raise SystemExit(f"error: imported cohpure from {cohpure.__file__}, not {src}")


class Tally:
    """Attempted and failed operations, with the wall time of each call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times = []

    def run(self, op):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an exception is a failed operation, not a crash
            self.times.append(time.perf_counter() - t0)
            return self._fail(op, f"raised {type(exc).__name__}: {exc}")
        self.times.append(time.perf_counter() - t0)
        try:
            problems = op.check(out)
        except Exception as exc:  # an unreadable output is a wrong output
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(op, "; ".join(problems[:3]))

    def _fail(self, op, why):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.label}: {why}", file=sys.stderr)


def set_up(workloads, name, seed, workdir):
    """Inputs, state files and one warm-up operation; returns the round's
    operations and the seconds taken."""
    t0 = time.perf_counter()
    ops = workloads.build(name, seed, workdir)
    Tally().run(ops[0])
    return ops, time.perf_counter() - t0


def run_round(ops, tally):
    """One pass over ``ops``; returns the seconds spent in the program's
    calls, which leaves out the time of the output checks."""
    first = len(tally.times)
    for op in ops:
        tally.run(op)
    return sum(tally.times[first:])


def run_rounds(ops, tally, seconds, each_round=lambda: None):
    """Whole rounds, ending at the round boundary nearest to ``seconds``
    of wall time (at least one round); returns each round's call seconds."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(ops, tally))
        each_round()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) / 2.0 >= seconds:
            return rounds


def geomean(samples) -> float:
    """Geometric mean of the operation times: the typical latency of one
    operation, each operation counting by its share of log time. Operation
    times cluster by kind (a relative-entropy hierarchy takes milliseconds,
    a trace-norm one hundreds), so the middle of the pooled sample falls in
    the gap between clusters and any median of it, sample or smoothed,
    jumps from seed to seed; the mean of the logs averages every op."""
    return math.exp(statistics.fmean(math.log(t) for t in samples))


def measure(args, workdir):
    import workloads

    tally = Tally()
    Tally().run(workloads.first_use(args.workload, workdir))
    t_import = time.perf_counter() - T_START
    setups = [set_up(workloads, args.workload, args.seed, workdir) for _ in range(SETUP_REPEATS)]
    ops = setups[-1][0]
    rounds = run_rounds(ops, tally, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": t_import + statistics.median(s for _, s in setups), "unit": "s"},
        "ops_per_s": {"value": statistics.median(len(ops) / s for s in rounds), "unit": "1/s"},
        "op_geomean_ms": {"value": 1e3 * geomean(tally.times), "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return tally, metrics


def measure_traced(args, workdir):
    import tracing
    import workloads

    tally = Tally()
    Tally().run(workloads.first_use(args.workload, workdir))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            ops, _ = set_up(workloads, args.workload, args.seed, workdir)
        setup_agg = {k: v / SETUP_REPEATS for k, v in tracer.aggregate().items()}
    finally:
        tracer.uninstall()
    untraced_s = run_round(ops, tally)

    rounds = []
    tracer.install()
    try:
        mark = tracer.mark()

        def close_round():
            nonlocal mark
            rounds.append(tracer.aggregate(mark))
            mark = tracer.mark()

        round_s = run_rounds(ops, tally, args.seconds, close_round)
    finally:
        tracer.uninstall()

    per_round = {k: sum(r.get(k, 0.0) for r in rounds) / len(rounds) for k in set().union(*rounds)}
    counts = [tracing.counts(r) for r in rounds]
    repeat = all(c == counts[0] for c in counts)
    overhead = statistics.median(round_s) / untraced_s - 1.0
    if not repeat:
        print("WARNING: traced counts differ between rounds", file=sys.stderr)
    print(f"tracing overhead: {100 * overhead:+.1f}% per round "
          f"({untraced_s:.3f} s untraced, {statistics.median(round_s):.3f} s traced)", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.dump(
        OUT / f"trace-{args.workload}-seed{args.seed}.json",
        {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": len(rounds),
            "untraced_round_s": untraced_s,
            "traced_round_s": round_s,
            "overhead": overhead,
            "counts_repeat": repeat,
            "counts_per_round": counts[0],
            "per_setup": dict(setup_agg),
        },
    )
    return tally, tracing.layer_metrics(per_round, setup_agg)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_program()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="states-", dir=OUT)
    try:
        tally, metrics = (measure_traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
