"""What the benchmark measures: traced entry points and metric catalogue.

``TARGETS`` lists the public entry point wrapped for each layer (see
:mod:`perfbench.spans`).  ``END_TO_END`` and ``PER_LAYER`` are the
metrics the final JSON line carries; ``BENCHMARK.json`` at the repository
root lists the same names and the self-test checks that they agree.
Each per-layer metric records which end-to-end metric it should move and
on which workload; where a workload is not named, the prediction is no
change.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    entry: str  # "module:function" or "module:Class.method"
    layer: str
    counters: Callable | None = None  # (args, result) -> {name: number}
    prepare: Callable | None = None  # args -> args, before the call


def _preprocess_counts(args, tokens):
    main = args[1].filename
    included = sum(1 for tok in tokens if tok.location.filename != main)
    return {"tokens": len(tokens), "include_tokens": included}


def _solver_counts(_args, result):
    if result is None or not hasattr(result, "stats"):
        return {}
    stats = result.stats
    return {
        "solves": 1,
        "rounds": stats.rounds,
        "nodes_visited": stats.nodes_visited,
        "edges_added": stats.edges_added,
    }


def _listed_second(args):
    return (args[0], list(args[1])) + tuple(args[2:])


def _load_counts(_args, block):
    if block is None:
        return {"blocks": 0, "assignments": 0}
    return {"blocks": 1, "assignments": len(block.assignments)}


def _retract_counts(_args, result):
    info = result[1]
    return {"regions": info["regions"], "dirty_regions": info["dirty_regions"]}


def _build_counts(args, _result):
    stats = args[0].stats
    return {"compiled": stats.compiled, "reused": stats.reused}


TARGETS = (
    Target("repro.cfront.preprocessor:Preprocessor.preprocess",
           "cfront.preprocess", _preprocess_counts),
    Target("repro.cfront.parser:parse_tokens", "cfront.parse",
           lambda args, _r: {"tokens": len(args[0])}),
    Target("repro.ir.lower:lower_translation_unit", "ir.lower",
           lambda _a, unit: {"assignments": len(unit.assignments)}),
    Target("repro.cla.writer:write_unit", "cla.write",
           lambda args, _r: {"bytes": os.path.getsize(args[1])}),
    Target("repro.cla.linker:link_object_files", "cla.link",
           lambda args, _r: {"units": len(args[0])}),
    Target("repro.cla.linker:UnitSignatureIndex.merged", "cla.signature",
           lambda args, _r: {"units": len(args[1])}, _listed_second),
    Target("repro.driver.incremental:Workspace.build", "driver.build",
           _build_counts),
    Target("repro.cla.reader:DatabaseStore.open", "cla.open"),
    Target("repro.cla.reader:DatabaseStore.load_block", "cla.load",
           _load_counts),
    Target("repro.engine.pipeline:Pipeline.analyze", "solvers.solve",
           _solver_counts),
    Target("repro.solvers.pretransitive:PreTransitiveSolver.solve",
           "solvers.solve", _solver_counts),
    Target("repro.solvers.pretransitive:PreTransitiveSolver.solve_partial",
           "solvers.solve"),
    Target("repro.solvers.pretransitive:PreTransitiveSolver.finish_partial",
           "solvers.solve", _solver_counts),
    Target("repro.solvers.shard:solve_retracted", "solvers.retract",
           _retract_counts),
    Target("repro.solvers.base:PointsToResult.points_to", "solvers.decode",
           lambda _a, pts: {"facts": len(pts)}),
    Target("repro.depend.analysis:DependenceAnalysis.analyze",
           "depend.chain"),
    Target("repro.serve.session:ServeSession.request", "serve.request"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only
    moves: str = ""  # per-layer: the end-to-end metric and workload


#: Printed with ``--trace 0`` on every workload.  Their definition per
#: workload is in ``workloads.py``: an op's *first answer* is sources ->
#: first answer (cold_start), database -> first answer (analyze_db) or
#: edit -> fresh answer (edit_serve); the *op* runs on to every pointer's
#: set decoded (cold_start, analyze_db) or through the query burst that
#: follows the edit (edit_serve).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
    Metric("first_answer_s", "s", "lower", 0.25),
    Metric("op_s", "s", "lower", 0.25),
)

_COMPILE = ("first_answer_s/op_s on cold_start; first_answer_s (update) on "
            "edit_serve")
_LINK = ("first_answer_s (update) on edit_serve; a little of first_answer_s "
         "on cold_start")
_LOAD = "first_answer_s, op_s and peak_rss_mb on analyze_db"
_SOLVE = ("first_answer_s and op_s on analyze_db; a few percent of "
          "first_answer_s on cold_start")
_RETRACT = "first_answer_s (update tail) on edit_serve"
_DECODE = ("op_s on analyze_db (every set decoded); op_s and the query_p99_ms "
           "report line on edit_serve")
_QUERY = ("op_s (queries are about a third of an update step) and the "
          "query_p50_ms/queries_per_s report lines on edit_serve only")
_INPUT = "none: input property, fixed by profile, scale and seed"

#: Printed with ``--trace 1`` on every workload; a layer a workload never
#: calls reads 0.
PER_LAYER = (
    Metric("cfront.preprocess.s", "s", "lower", moves=_COMPILE),
    Metric("cfront.preprocess.tokens", "count", "lower", moves=_COMPILE),
    Metric("cfront.preprocess.include_token_share", "ratio", "lower",
           moves=_COMPILE),
    Metric("cfront.parse.s", "s", "lower", moves=_COMPILE),
    Metric("cfront.parse.tokens_per_s", "1/s", "higher", moves=_COMPILE),
    Metric("ir.lower.s", "s", "lower", moves=_COMPILE),
    Metric("ir.lower.assignments", "count", "lower", moves=_COMPILE),
    Metric("cla.write.s", "s", "lower", moves=_COMPILE),
    Metric("cla.write.bytes", "bytes", "lower", moves=_COMPILE),
    Metric("cla.link.s", "s", "lower", moves=_LINK),
    Metric("cla.link.units", "count", "lower", moves=_LINK),
    Metric("cla.signature.s", "s", "lower", moves=_LINK),
    Metric("driver.build.s", "s", "lower", moves=_LINK),
    Metric("driver.build.reuse_ratio", "ratio", "higher", moves=_LINK),
    Metric("cla.open.s", "s", "lower", moves=_LOAD),
    Metric("cla.load.s", "s", "lower", moves=_LOAD),
    Metric("cla.load.blocks", "count", "lower", moves=_LOAD),
    Metric("cla.load.assignments", "count", "lower", moves=_LOAD),
    Metric("solvers.solve.s", "s", "lower", moves=_SOLVE),
    Metric("solvers.solve.rounds", "count", "lower", moves=_SOLVE),
    Metric("solvers.solve.nodes_visited", "count", "lower", moves=_SOLVE),
    Metric("solvers.solve.edges_added", "count", "lower", moves=_SOLVE),
    Metric("solvers.retract.s", "s", "lower", moves=_RETRACT),
    Metric("solvers.retract.dirty_region_share", "ratio", "lower",
           moves=_RETRACT),
    Metric("serve.update.warm_ms_p50", "ms", "lower", moves=_RETRACT),
    Metric("serve.update.retract_ms_p50", "ms", "lower", moves=_RETRACT),
    Metric("serve.update.mode_share.warm", "ratio", "higher", moves=_RETRACT),
    Metric("serve.update.mode_share.retract", "ratio", "higher",
           moves=_RETRACT),
    Metric("serve.update.mode_share.cold", "ratio", "lower", moves=_RETRACT),
    Metric("solvers.decode.s", "s", "lower", moves=_DECODE),
    Metric("solvers.decode.facts", "count", "lower", moves=_DECODE),
    Metric("depend.chain.s", "s", "lower", moves=_DECODE),
    Metric("serve.request.inside_ms_p50", "ms", "lower", moves=_QUERY),
    Metric("serve.transport_ms_p50", "ms", "lower", moves=_QUERY),
    Metric("serve.query_cache.hit_ratio", "ratio", "higher", moves=_QUERY),
    Metric("engine.trace_overhead_share", "ratio", "lower",
           moves="none: cost of the benchmark's own spans"),
    Metric("unattributed_share", "ratio", "lower",
           moves="none: op time outside every layer span"),
    Metric("input.lines", "count", "lower", moves=_INPUT),
    Metric("input.units", "count", "lower", moves=_INPUT),
    Metric("input.assignments", "count", "lower", moves=_INPUT),
    Metric("input.cla_bytes", "bytes", "lower", moves=_INPUT),
    Metric("mix.update_share", "ratio", "lower", moves=_INPUT),
    Metric("mix.points_to_share", "ratio", "lower", moves=_INPUT),
    Metric("mix.alias_share", "ratio", "lower", moves=_INPUT),
    Metric("mix.chain_share", "ratio", "lower", moves=_INPUT),
)
