"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a small fraction of its size, untraced and
traced, and checks that:

* ``BENCHMARK.json`` and :mod:`perfbench.layers` name the same metrics;
* the last stdout line is the result object, with every named metric
  and its unit, ``correct`` true and no failures;
* every report line carries a unit and a sample count, and the
  workload-specific figures are among them;
* the traced run reports self time for each layer the workload calls;
* with ``--inject-fault`` (one answer corrupted) the gate fires;
* without the program's sources the command fails without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.layers import END_TO_END, PER_LAYER  # noqa: E402

SCALE = {"cold_start": "0.2", "analyze_db": "0.1", "edit_serve": "0.2"}
#: Layers each workload must show self time for in its traced run.
CALLED = {
    "cold_start": ("cfront.preprocess", "cfront.parse", "ir.lower",
                   "cla.write", "cla.link", "driver.build", "cla.open",
                   "cla.load", "solvers.solve", "solvers.decode"),
    "analyze_db": ("cla.open", "cla.load", "solvers.solve",
                   "solvers.decode"),
    "edit_serve": ("cfront.preprocess", "cfront.parse", "ir.lower",
                   "cla.write", "cla.link", "cla.signature", "driver.build",
                   "cla.open", "cla.load", "solvers.solve", "solvers.retract",
                   "solvers.decode", "depend.chain"),
}
#: Workload-specific figures each untraced run must print as report lines.
REPORTED = {
    "cold_start": ("lines_per_s", "error_rate"),
    "analyze_db": ("analyze_s", "error_rate"),
    "edit_serve": ("query_p50_ms", "queries_per_s", "chain_p50_ms",
                   "update_p50_ms", "rss_growth_mb_per_update", "error_rate"),
}
_LINE = re.compile(r"^(metric|e2e|layer) (\S+) (.+) = (\S+) (\S+)( \(n=\d+\))?$")

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload: str, trace: int, *extra: str, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--scale", SCALE[workload], *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_catalogue() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check([(m["name"], m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]]
          == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END],
          "BENCHMARK.json end_to_end matches perfbench.layers")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(m.name, m.unit, m.better) for m in PER_LAYER],
          "BENCHMARK.json per_layer matches perfbench.layers")


def check_run(workload: str, trace: int) -> None:
    proc = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{tag}: exit 0 ({proc.stderr[-300:]})")
    if proc.returncode != 0:
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{tag}: correct, no failures")
    wanted = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    check(list(metrics) == [m.name for m in wanted],
          f"{tag}: every named metric printed")
    check(all(metrics[m.name]["unit"] == m.unit
              and isinstance(metrics[m.name]["value"], (int, float))
              for m in wanted), f"{tag}: every metric has its unit")
    if not trace:
        check(all(metrics[m.name]["value"] > 0 for m in END_TO_END),
              f"{tag}: end-to-end metrics are non-zero")
    bad = [line for line in lines[:-1]
           if not line.startswith("note ") and not _LINE.match(line)]
    check(not bad, f"{tag}: report lines carry unit and sample count {bad}")
    report = [line for line in lines if line.startswith("metric ")]
    check(any(" error_rate = 0 " in line for line in report),
          f"{tag}: error_rate reported as 0")
    if not trace:
        named = {line.split()[2] for line in report}
        missing = [n for n in REPORTED[workload] if n not in named]
        check(not missing, f"{tag}: workload figures reported {missing}")
    if trace:
        unseen = [layer for layer in CALLED[workload]
                  if metrics[layer + ".s"]["value"] <= 0]
        check(not unseen, f"{tag}: self time for called layers {unseen}")
        check("unattributed_share" in metrics
              and "engine.trace_overhead_share" in metrics,
              f"{tag}: unattributed and trace-overhead shares")


def check_fault(workload: str) -> None:
    proc = run(workload, 0, "--inject-fault")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"] is False and result["failed"] >= 1,
          f"{workload}: corrupted answer trips the gate")


def check_no_program() -> None:
    bare = os.path.join(ROOT, ".perfbench-selftest")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("cold_start", 0, cwd=bare)
        check(proc.returncode != 0 and "correct" not in proc.stdout,
              "without the program: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_catalogue()
    check_no_program()
    for workload in CALLED:
        check_run(workload, 0)
        check_run(workload, 1)
        check_fault(workload)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
