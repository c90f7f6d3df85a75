"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {cold_start,analyze_db,edit_serve}
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is the checkout's
own ``src/`` tree; nothing is installed.  Scratch files go to
``.perfbench/`` in the checkout and are removed at exit; a traced run
leaves its spans in ``.perfbench-trace/<workload>-seed<N>.jsonl``.

Stdout: one ``metric`` line per reported quantity (name, value, unit and
sample count, including the workload-specific metrics such as
``update_p50_ms`` and ``error_rate``), then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured without
tracing; with ``--trace 1`` they are the per-layer ones from a run that
alternates untraced and traced ops.  A wrong answer makes ``correct``
false; a run that cannot complete exits non-zero without a JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: A run must finish within this many seconds; past it, the run aborts.
DEADLINE_S = 170


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("cold_start", "analyze_db", "edit_serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply the workload's program size (self-test)")
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one answer before the correctness gate")
    return p.parse_args(argv)


def _on_deadline(_signum, _frame):
    raise TimeoutError(f"run exceeded {DEADLINE_S}s")


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import END_TO_END, PER_LAYER
    from perfbench.workloads import RUNNERS, Context

    work = os.path.join(ROOT, ".perfbench")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    tempfile.tempdir = os.path.join(work, "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    trace_out = os.path.join(ROOT, ".perfbench-trace",
                             f"{args.workload}-seed{args.seed}.jsonl")
    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace), work=work,
                  trace_out=trace_out, scale=args.scale,
                  inject_fault=args.inject_fault)
    try:
        outcome = RUNNERS[args.workload](ctx)
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)

    for name, value, unit, n in outcome.report:
        print(f"metric {args.workload} {name} = {value:.6g} {unit} (n={n})")
    for note in outcome.notes:
        print(f"note {args.workload}: {note}")
    if args.trace:
        metrics = {m.name: {"value": outcome.layer[m.name], "unit": m.unit}
                   for m in PER_LAYER}
        for m in PER_LAYER:
            print(f"layer {args.workload} {m.name} = "
                  f"{outcome.layer[m.name]:.6g} {m.unit}")
    else:
        metrics = {m.name: {"value": outcome.metrics[m.name][0],
                            "unit": m.unit} for m in END_TO_END}
        for m in END_TO_END:
            value, unit, n = outcome.metrics[m.name]
            print(f"e2e {args.workload} {m.name} = {value:.6g} {unit} (n={n})")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
