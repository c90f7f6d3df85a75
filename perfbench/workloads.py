"""The three workloads: set-up, timed ops, correctness gate, metrics.

Every workload makes its inputs from the seed (a synthetic C program
from :mod:`repro.synth`, the edits, the queries and the answer names),
checks answers outside the timed region, and fills an :class:`Outcome`.
The end-to-end metrics (:data:`perfbench.layers.END_TO_END`) mean:

* ``cold_start`` - ``first_answer_s``: sources -> first answer, i.e. a
  fresh ``Workspace`` with an empty object cache, ``build()`` at its
  default jobs, open, the pretransitive solve, one ``points-to`` answer;
  ``op_s`` runs on until every pointer's set is decoded.
* ``analyze_db`` - the same from a ``.cla`` linked once in set-up:
  ``DatabaseStore.open``, the pretransitive solve with demand loading, one
  answer (``first_answer_s``), every pointer's set decoded (``op_s``).
* ``edit_serve`` - against a ``repro-cla serve`` daemon: edit -> fresh
  answer, i.e. one ``update`` round trip plus the ``points-to`` round trip
  after it (``first_answer_s``), and that plus the query burst that
  follows (``op_s``), each per edit cycle, balanced over the units
  (:meth:`ServeRun.per_unit`).
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import itertools
import os
import random
import re
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

from repro.checker.oracle import check_result
from repro.driver.incremental import Workspace
from repro.engine.pipeline import CompileOptions, Pipeline
from repro.synth import generate

from . import spans as spanlib
from .daemon import Daemon, peak_rss_mb, reset_peak_rss
from .layers import PER_LAYER, TARGETS

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: edit_serve traffic.  Nothing in the repository or a public trace fixes
#: the ratio of queries to edits, the query mix or the skew, so these are
#: assumptions.  The ratio is chosen so that queries are a measurable
#: share of an update step (about a third of ``op_s`` on a 2-core VM):
#: with far fewer, no change to the query path could move ``op_s``.
#: ``chain`` queries cost milliseconds each and are kept rare.
QUERIES_PER_UPDATE = 3000
QUERY_MIX = (("points-to", 0.695), ("alias", 0.3), ("chain", 0.005))
ZIPF_S = 1.1

#: cold_start uses edit_serve's program size, so an update and a cold
#: start are compared like for like (and ops are short enough for a
#: run to hold a dozen of them).
PROFILES = {
    "cold_start": ("gcc", 0.1),
    "analyze_db": ("lucent", 0.08),
    "edit_serve": ("gcc", 0.1),
}


class BenchError(RuntimeError):
    """The benchmark could not run its workload (not a wrong answer)."""


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: str  # scratch directory inside the checkout
    trace_out: str = ""  # where a traced run writes its spans (JSON lines)
    scale: float = 1.0  # multiplies the profile scale (self-test: tiny)
    inject_fault: bool = False  # corrupt one answer: the gate must fire


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    #: name -> (value, unit, samples): the JSON line's metrics
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    #: (name, value, unit, samples): the workload-specific report lines
    report: list[tuple[str, float, str, int]] = field(default_factory=list)
    #: per-layer metric name -> value (printed with --trace 1)
    layer: dict[str, float] = field(default_factory=dict)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)


# -- helpers ------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for n=1."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    best = 50
    for q in range(50, 100):
        if n * (100 - q) / 100 >= 10:
            best = q
    return best


def digest(answers: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(answers):
        h.update(name.encode())
        h.update(b"\0")
        h.update("\0".join(sorted(answers[name])).encode())
        h.update(b"\n")
    return h.hexdigest()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(120_000):
        key = str(i % 4099)
        table[key] = table.get(key, 0) | (1 << (i % 61))
        seen.add((i * 7919) % 65521)
        acc ^= table[key]
    return time.perf_counter() - start


class Speed:
    """Calibration between ops, to put every time on one reference speed.

    The CPU speed this benchmark sees swings by up to 2x within seconds
    when the host is shared, and slow phases can outlast a run, so raw
    medians of separate runs disagree by more than any useful bound.  A
    fixed loop (:func:`calibrate`, benchmark-owned and independent of the
    program) runs on each CPU the op may use, before the first op and
    after every op.  Times are multiplied by ``NOMINAL_CAL_S`` over the
    loop's time: per op, from the samples on either side of it
    (``per_op``), or for the whole run, from the median sample.  A
    reported time is thus the time the op would take on a machine where
    the loop takes ``NOMINAL_CAL_S``."""

    NOMINAL_CAL_S = 0.05

    def __init__(self, per_op: bool):
        self.per_op = per_op
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = [self._sample()]

    def _sample(self) -> float:
        if len(self.cpus) == 1:
            return calibrate()
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(calibrate())
        finally:
            os.sched_setaffinity(0, allowed)
        return statistics.mean(times)

    def mark(self) -> None:
        """Call right after each op."""
        self.samples.append(self._sample())

    def factors(self) -> list[float]:
        """One speed factor per op marked so far."""
        nominal = self.NOMINAL_CAL_S
        if self.per_op:
            return [nominal / ((a + b) / 2)
                    for a, b in zip(self.samples, self.samples[1:])]
        run = nominal / statistics.median(self.samples)
        return [run] * (len(self.samples) - 1)

    @property
    def calibration_s(self) -> float:
        return statistics.median(self.samples)


def pin_one_cpu(*pids: int) -> None:
    """Run this process (and ``pids``) on the first allowed CPU only, so
    the calibration loop measures the CPU the op runs on.  Set-up runs
    before this, on every CPU."""
    cpu = {min(os.sched_getaffinity(0))}
    for pid in (0, *pids):
        os.sched_setaffinity(pid, cpu)


def _median_setup(ctx: Context, setup) -> tuple[object, float]:
    """Run set-up SETUP_REPEATS times; keep the last, report the median
    (speed-normalized) time.

    Every repeat must reach the same reference digest, which doubles as
    a determinism check on the program."""
    times, state, digests = [], None, set()
    speed = Speed(per_op=False)
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        gc.collect()
        start = time.perf_counter()
        state = setup(ctx)
        times.append(time.perf_counter() - start)
        speed.mark()
        digests.add(state.digest)
    if len(digests) != 1:
        raise BenchError("set-up repeats disagree on the reference fixpoint")
    return state, statistics.median(times) * speed.factors()[0]


def _workspace(program, options: CompileOptions | None, cache: str,
               header_name: str | None = None, files=None) -> Workspace:
    ws = Workspace(cache_dir=cache, options=options)
    ws.add_header(header_name or program.header_name, program.header)
    for name, text in (files or program.files).items():
        ws.add_source(name, text)
    return ws


@dataclass
class Reference:
    """A solved program, checked by the oracle and the transitive solver."""

    answers: dict
    digest: str
    assignments: int
    cla_bytes: int
    path: str


def solve_reference(ws: Workspace) -> Reference:
    """Build and solve once; the answers every op is compared against."""
    path = ws.build()
    store = ws.pipeline.open_database(path)
    try:
        result = ws.pipeline.analyze(store, "pretransitive")
        answers = {n: result.points_to(n) for n in result.pts}
        assignments = store.stats.in_file
    finally:
        store.close()
    return Reference(answers, digest(answers), assignments,
                     os.path.getsize(path), path)


def verify_reference(ref: Reference) -> None:
    """The reference must pass the checker oracle (closed and minimal)
    and agree with the transitive solver; run once, after set-up."""
    pipeline = Pipeline()
    for solver in ("pretransitive", "transitive"):
        store = pipeline.open_database(ref.path)
        try:
            result = pipeline.analyze(store, solver)
            report = check_result(store, result, check_minimal=True)
        finally:
            store.close()
        if report.violations:
            raise BenchError(f"oracle rejects the {solver} fixpoint: "
                             f"{report.violations[0]}")
        names = set(ref.answers) | set(result.pts)
        if any(ref.answers.get(n, frozenset()) != result.points_to(n)
               for n in names):
            raise BenchError(f"{solver} disagrees with the reference")


def _first_name(answers: dict, rng: random.Random) -> str:
    names = sorted(n for n, pts in answers.items() if pts)
    if not names:
        raise BenchError("the program has no non-empty points-to set")
    return rng.choice(names)


# -- tracing ------------------------------------------------------------------


class Tracing:
    """Span recording for in-process ops: install around one op at a time."""

    def __init__(self, work: str):
        self.recorder = spanlib.SpanRecorder(os.path.join(work, "spans"))
        self.missing: list[str] = []

    @contextlib.contextmanager
    def op(self):
        undo, self.missing = spanlib.install(self.recorder, TARGETS)
        span = self.recorder.begin("op")
        try:
            yield
        finally:
            self.recorder.end(span)
            undo()


def layer_metrics(spans: list[dict], ops: int, op_seconds: float,
                  factor: float) -> dict:
    """Per-op layer metrics from recorded spans (0 for unseen layers).

    ``op_seconds`` is the raw traced op time; ``factor`` puts layer
    seconds on the reference speed (see :class:`Speed`)."""
    raw, counts = spanlib.layer_totals(spans)
    seconds = {layer: value * factor for layer, value in raw.items()}

    def s(layer):
        return seconds.get(layer, 0.0) / ops

    def c(layer, key):
        return counts.get(layer, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    tokens = c("cfront.preprocess", "tokens")
    m = {
        "cfront.preprocess.s": s("cfront.preprocess"),
        "cfront.preprocess.tokens": tokens / ops,
        "cfront.preprocess.include_token_share": ratio(
            c("cfront.preprocess", "include_tokens"), tokens),
        "cfront.parse.s": s("cfront.parse"),
        "cfront.parse.tokens_per_s": ratio(
            c("cfront.parse", "tokens"), seconds.get("cfront.parse", 0.0)),
        "ir.lower.s": s("ir.lower"),
        "ir.lower.assignments": c("ir.lower", "assignments") / ops,
        "cla.write.s": s("cla.write"),
        "cla.write.bytes": c("cla.write", "bytes") / ops,
        "cla.link.s": s("cla.link"),
        "cla.link.units": c("cla.link", "units") / ops,
        "cla.signature.s": s("cla.signature"),
        "driver.build.s": s("driver.build"),
        "driver.build.reuse_ratio": ratio(
            c("driver.build", "reused"),
            c("driver.build", "reused") + c("driver.build", "compiled")),
        "cla.open.s": s("cla.open"),
        "cla.load.s": s("cla.load"),
        "cla.load.blocks": c("cla.load", "blocks") / ops,
        "cla.load.assignments": c("cla.load", "assignments") / ops,
        "solvers.solve.s": s("solvers.solve"),
        "solvers.solve.rounds": c("solvers.solve", "rounds") / ops,
        "solvers.solve.nodes_visited":
            c("solvers.solve", "nodes_visited") / ops,
        "solvers.solve.edges_added": c("solvers.solve", "edges_added") / ops,
        "solvers.retract.s": s("solvers.retract"),
        "solvers.retract.dirty_region_share": ratio(
            c("solvers.retract", "dirty_regions"),
            c("solvers.retract", "regions")),
        "solvers.decode.s": s("solvers.decode"),
        "solvers.decode.facts": c("solvers.decode", "facts") / ops,
        "depend.chain.s": s("depend.chain"),
        "unattributed_share": ratio(raw.get("op", 0.0), op_seconds),
    }
    return m


def empty_layer_metrics() -> dict:
    return {metric.name: 0.0 for metric in PER_LAYER}


# -- cold_start and analyze_db -------------------------------------------------


@dataclass
class InProcessState:
    program: object
    ref: Reference
    first_name: str
    work: str
    pipeline: Pipeline = field(default_factory=Pipeline)

    @property
    def digest(self) -> str:
        return self.ref.digest

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _in_process_setup(ctx: Context) -> InProcessState:
    profile, scale = PROFILES[ctx.workload]
    program = generate(profile, scale=scale * ctx.scale, seed=ctx.seed)
    work = os.path.join(ctx.work, "setup")
    ws = _workspace(program, None, os.path.join(work, "cache"))
    try:
        ref = solve_reference(ws)
    finally:
        ws.close()
    first = _first_name(ref.answers, random.Random(ctx.seed))
    return InProcessState(program, ref, first, work)


@dataclass
class OpSample:
    first_s: float
    total_s: float
    factor: float = 1.0  # speed normalization, see Speed

    @property
    def first(self) -> float:
        return self.first_s * self.factor

    @property
    def total(self) -> float:
        return self.total_s * self.factor


def _cold_op(state: InProcessState, cache: str) -> tuple[OpSample, object, dict]:
    program = state.program
    start = time.perf_counter()
    ws = _workspace(program, None, cache)
    path = ws.build()
    store = ws.pipeline.open_database(path)
    result = ws.pipeline.analyze(store, "pretransitive")
    first = result.points_to(state.first_name)
    first_at = time.perf_counter()
    answers = {name: result.points_to(name) for name in result.pts}
    store.close()
    end = time.perf_counter()
    ws.close()
    shutil.rmtree(cache, ignore_errors=True)
    return OpSample(first_at - start, end - start), first, answers


def _db_op(state: InProcessState, _cache: str
           ) -> tuple[OpSample, object, dict]:
    pipeline = state.pipeline
    start = time.perf_counter()
    store = pipeline.open_database(state.ref.path)
    result = pipeline.analyze(store, "pretransitive")
    first = result.points_to(state.first_name)
    first_at = time.perf_counter()
    answers = {name: result.points_to(name) for name in result.pts}
    store.close()
    end = time.perf_counter()
    return OpSample(first_at - start, end - start), first, answers


def workers_peak_rss_mb() -> float:
    """The largest peak resident set of any waited-for child process (the
    build's workers): a running maximum that cannot be reset per op."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run_in_process(ctx: Context) -> Outcome:
    out = Outcome()
    # cold_start keeps every CPU for its parallel build; analyze_db is one
    # CPU's work and runs pinned, so its calibration sees that CPU.
    state, setup_s = _median_setup(ctx, _in_process_setup)
    verify_reference(state.ref)
    if ctx.workload == "analyze_db":
        pin_one_cpu()
    op = _cold_op if ctx.workload == "cold_start" else _db_op
    expected_first = state.ref.answers[state.first_name]
    # Only the digest and the first answer are kept: the reference's sets
    # would otherwise count in every op's peak_rss_mb.
    state.ref.answers.clear()
    tracing = Tracing(ctx.work) if ctx.trace else None
    plain: list[OpSample] = []
    traced: list[OpSample] = []
    ops: list[OpSample] = []
    try:
        speed = Speed(per_op=True)
        peaks = []
        begin = time.perf_counter()
        k = 0
        while True:
            use_trace = tracing is not None and k % 2 == 1
            cache = os.path.join(ctx.work, f"op{k}")
            gc.collect()
            reset_peak_rss()
            if use_trace:
                with tracing.op():
                    sample, first, answers = op(state, cache)
            else:
                sample, first, answers = op(state, cache)
            speed.mark()
            peak = peak_rss_mb()
            if ctx.workload == "cold_start":
                peak = max(peak, workers_peak_rss_mb())
            peaks.append(peak)
            (traced if use_trace else plain).append(sample)
            ops.append(sample)
            # Correctness gate, outside the timed region.
            out.attempted += 1
            if ctx.inject_fault and k == 0:
                victim = next(n for n in sorted(answers) if answers[n])
                answers[victim] = frozenset(sorted(answers[victim])[1:])
            if first != expected_first:
                out.fail(f"op {k}: first answer for {state.first_name} "
                         "differs from the reference")
            elif digest(answers) != state.ref.digest:
                out.fail(f"op {k}: fixpoint digest differs from the "
                         "oracle-checked reference")
            del first, answers  # not to count in the next op's peak
            k += 1
            elapsed = time.perf_counter() - begin
            if elapsed >= ctx.seconds and (tracing is None or traced):
                break
        for sample, factor in zip(ops, speed.factors()):
            sample.factor = factor
        program = state.program
        lines = program.source_lines()
        firsts = [s.first for s in plain]
        totals = [s.total for s in plain]
        first_answer = statistics.median(firsts)
        peak = statistics.median(peaks)
        out.metrics = {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            "peak_rss_mb": (peak, "MB", len(peaks)),
            "first_answer_s": (first_answer, "s", len(firsts)),
            "op_s": (statistics.median(totals), "s", len(totals)),
        }
        rep = out.report
        rep.append(("calibration_s", speed.calibration_s, "s",
                    len(speed.samples)))
        if ctx.workload == "cold_start":
            rep.append(("lines_per_s", lines / first_answer, "1/s",
                        len(firsts)))
        else:
            rep.append(("analyze_s", statistics.median(totals), "s",
                        len(totals)))
        rep.append(("error_rate", out.failed / out.attempted, "ratio",
                    out.attempted))
        layer = empty_layer_metrics()
        layer.update({
            "input.lines": lines,
            "input.units": len(program.files),
            "input.assignments": state.ref.assignments,
            "input.cla_bytes": state.ref.cla_bytes,
        })
        if tracing is not None:
            spans = tracing.recorder.collect()
            spanlib.write_spans(ctx.trace_out, spans)
            factor = statistics.mean(s.factor for s in traced)
            op_total = sum(s.total_s for s in traced)
            layer.update(layer_metrics(spans, len(traced), op_total, factor))
            layer["engine.trace_overhead_share"] = (
                statistics.median(s.total for s in traced)
                / statistics.median(totals) - 1.0
            )
            if tracing.missing:
                out.notes.append("unseen entry points: "
                                 + ", ".join(tracing.missing))
        out.layer = layer
        return out
    finally:
        state.close()


# -- edit_serve -----------------------------------------------------------------


_GLOBAL_PTR = re.compile(r"^extern int \*(g1_\d+);$", re.M)
_GLOBAL_INT = re.compile(r"^extern int (g0_\d+);$", re.M)
_SHRINKABLE = re.compile(r"^\s+(g1_\d+) = (&\w+|g1_\d+);$")


class EditPlan:
    """The fixed three-edit cycle, made from the seed.

    Cycle ``i`` edits unit ``i`` modulo the unit count, in a seeded order:
    ``add`` appends a function joining two existing global pointers' flow
    (warm), ``shrink`` removes one pointer assignment of the original text
    (retract), ``undo`` restores the original text (its object is still
    cached: nothing compiles).  Which pointers an add joins and which line
    a shrink removes is fixed per unit, so each unit has one add state and
    one shrink state whose answers the gate can check; the cycle number in
    a comment makes every add and shrink compile afresh."""

    KINDS = ("add", "shrink", "undo")

    def __init__(self, program, paths: dict[str, str], seed: int):
        self.paths = paths  # program filename -> daemon path
        self.original = dict(program.files)
        self.order = sorted(program.files)
        random.Random(seed).shuffle(self.order)
        self.pointers = _GLOBAL_PTR.findall(program.header)
        self.seed = seed
        # A global assignment is one constraint wherever it appears, so a
        # removal shrinks the linked program only if no unit repeats it.
        counts: dict[str, int] = {}
        for text in program.files.values():
            for line in text.split("\n"):
                counts[line.strip()] = counts.get(line.strip(), 0) + 1
        self.shrinkable = {}
        for name, text in program.files.items():
            self.shrinkable[name] = [
                i for i, line in enumerate(text.split("\n"))
                if (m := _SHRINKABLE.match(line))
                and m.group(2) != m.group(1)
                and counts[line.strip()] == 1
            ]
        if len(self.pointers) < 2 or not all(self.shrinkable.values()):
            raise BenchError("program too small for the edit cycle")

    def step(self, n: int) -> tuple[str, str, str, str]:
        """Update ``n``: ``(kind, daemon path, new text, fresh name)``."""
        cycle, phase = divmod(n, 3)
        kind = self.KINDS[phase]
        unit = cycle % len(self.order)
        name = self.order[unit]
        rng = random.Random(self.seed * 1_000_003 + unit)
        a, b = rng.sample(self.pointers, 2)
        line_no = rng.choice(self.shrinkable[name])
        text = self.original[name]
        lines = text.split("\n")
        removed = _SHRINKABLE.match(lines[line_no]).group(1)
        stamp = f"/* perfbench cycle {cycle} */"
        if kind == "add":
            text = (f"{text}\n{stamp}\nvoid __perfbench_add(void)\n{{\n"
                    f"    {a} = {b};\n}}\n")
            fresh = a
        elif kind == "shrink":
            text = "\n".join(lines[:line_no] + [stamp] + lines[line_no + 1:])
            fresh = removed
        else:
            fresh = removed
        return kind, self.paths[name], text, fresh


class StateOracle:
    """Cold in-process solves of the sources the daemon serves.

    One workspace named as the daemon's keeps its object cache, so a state
    that differs from the original in one unit compiles only that unit;
    its solve starts from scratch.  Answers of an edit state are cached by
    ``(unit, kind)``: the plan gives every unit one add and one shrink
    state (the comment that differs between cycles has no answers)."""

    def __init__(self, state: "ServeState", cache: str):
        self.original = dict(state.program.files)
        self.ws = state.mirror_workspace(self.original, cache)
        self.paths = state.paths
        self.by_path = {p: n for n, p in state.paths.items()}
        self.cached: dict[tuple[str, str], dict] = {
            (name, "undo"): state.ref.answers for name in self.original}
        self.seconds = 0.0  # time spent solving, kept out of the budget

    def solve(self, texts: dict) -> dict:
        """Every pointer's set for the sources ``texts`` (name -> text)."""
        start = time.perf_counter()
        for name, text in texts.items():
            self.ws.update_source(self.paths[name], text)
        answers = solve_reference(self.ws).answers
        self.seconds += time.perf_counter() - start
        return answers

    def state(self, kind: str, path: str, text: str) -> dict:
        name = self.by_path[path]
        key = (name, "undo" if text == self.original[name] else kind)
        if key not in self.cached:
            self.cached[key] = self.solve({**self.original, name: text})
        return self.cached[key]


def served_mismatch(op: str, response: dict, answers: dict) -> str | None:
    """Why a ``points-to`` or ``alias`` response disagrees with
    ``answers`` (every pointer's set), or None when it agrees."""
    result = response["result"]
    if op == "points-to":
        served = result["points_to"]
        if answers.get(result["name"]) and result["name"] not in served:
            return f"points-to {result['name']} not resolved"
        for name, pts in served.items():
            if pts != sorted(answers.get(name, ())):
                return f"points-to {name}"
        return None
    witness = set()
    for a in result["resolved_a"]:
        pts_a = answers.get(a, frozenset())
        for b in result["resolved_b"]:
            witness |= pts_a & answers.get(b, frozenset())
    if result["witness"] != sorted(witness) \
            or result["may_alias"] != bool(witness):
        return f"alias {result['a']} {result['b']}"
    return None


class QueryStream:
    """Points-to / alias queries Zipf-skewed over the pointer names, and
    chain queries on uniformly drawn targets, made from the seed.

    A chain query's cost depends on its target by orders of magnitude, so
    a Zipf-hot target would make the run's cost a property of the seed;
    drawn uniformly, the run averages over the targets."""

    def __init__(self, pointers: list[str], targets: list[str], seed: int):
        rng = random.Random(seed ^ 0x5EED)
        self.rng = rng
        self.pointers = list(pointers)
        rng.shuffle(self.pointers)
        self.targets = list(targets)
        self._pcum = self._cum(len(self.pointers))
        ops, weights = zip(*QUERY_MIX)
        self.ops = ops
        self._ocum = list(itertools.accumulate(weights))

    @staticmethod
    def _cum(n: int) -> list[float]:
        return list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(n)))

    def _pick(self, items, cum):
        x = self.rng.random() * cum[-1]
        return items[bisect.bisect_right(cum, x)]

    def next(self) -> tuple[str, dict]:
        op = self._pick(self.ops, self._ocum)
        if op == "points-to":
            return op, {"name": self._pick(self.pointers, self._pcum)}
        if op == "alias":
            return op, {"a": self._pick(self.pointers, self._pcum),
                        "b": self._pick(self.pointers, self._pcum)}
        return op, {"target": self.rng.choice(self.targets), "limit": 5}


@dataclass
class ServeState:
    program: object
    src: str
    header_path: str
    paths: dict
    ref: Reference
    pointers: list
    targets: list
    work: str
    daemon: Daemon | None = None

    @property
    def digest(self) -> str:
        return self.ref.digest

    def serve_args(self, cache: str) -> list[str]:
        return ([self.header_path] + [self.paths[n] for n in sorted(self.paths)]
                + ["-I", self.src, "--cache-dir", cache])

    def mirror_workspace(self, texts: dict, cache: str) -> Workspace:
        """An in-process workspace named exactly as the daemon's."""
        options = CompileOptions(include_dirs=[self.src])
        return _workspace(
            self.program, options, cache, header_name=self.header_path,
            files={self.paths[n]: t for n, t in texts.items()},
        )

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.close()
            self.daemon = None
        shutil.rmtree(self.work, ignore_errors=True)


def _daemon_env(ctx: Context) -> dict:
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(ctx.work, "tmp")
    return env


def _serve_setup(ctx: Context) -> ServeState:
    profile, scale = PROFILES["edit_serve"]
    program = generate(profile, scale=scale * ctx.scale, seed=ctx.seed)
    work = os.path.join(ctx.work, "setup")
    src = os.path.join(work, "src")
    program.write_to(src)
    paths = {n: os.path.join(src, n) for n in program.files}
    state = ServeState(program, src, os.path.join(src, program.header_name),
                       paths, None, [], [], work)
    ws = state.mirror_workspace(program.files, os.path.join(work, "ref"))
    try:
        state.ref = solve_reference(ws)
        store = ws.pipeline.open_database(state.ref.path)
        try:
            state.targets = [t for t in _GLOBAL_INT.findall(program.header)
                             if store.find_targets(t)]
        finally:
            store.close()
    finally:
        ws.close()
    state.pointers = sorted(n for n, pts in state.ref.answers.items() if pts)
    if not state.targets or not state.pointers:
        raise BenchError("program has no query targets")
    state.daemon = Daemon(state.serve_args(os.path.join(work, "cache")),
                          _daemon_env(ctx), os.path.join(work, "daemon.log"))
    return state


@dataclass
class ServeRun:
    """Client-side record of one daemon's timed loop; times are
    speed-normalized (see :class:`Speed`)."""

    steps: list = field(default_factory=list)  # (start, end) per update step
    factors: list = field(default_factory=list)  # speed factor per step
    updates: list = field(default_factory=list)  # (kind, rtt, response)
    fresh: list = field(default_factory=list)  # update rtt + fresh rtt
    queries: list = field(default_factory=list)  # (op, rtt, wall_ms, hit)
    peaks: list = field(default_factory=list)  # daemon peak RSS per step
    calibration_s: float = 0.0

    def per_unit(self, values: list[float], units: int) -> float:
        """``values`` (one per update) as one figure per op: the mean over
        each complete edit cycle, so every sample holds one edit of each
        kind; the median of a unit's cycles; the mean over the units.
        Units differ in size, so a plain median over cycles would shift
        with the number of cycles a run completes."""
        k = len(EditPlan.KINDS)
        cycles = [statistics.mean(values[i:i + k])
                  for i in range(0, len(values) - k + 1, k)]
        return statistics.mean(statistics.median(cycles[u::units])
                               for u in range(min(units, len(cycles))))

    def rtts(self, chain: bool) -> list[float]:
        return [q[1] for q in self.queries if (q[0] == "chain") == chain]

    def normalize(self, factors: list[float]) -> None:
        """Scale every recorded time by its step's speed factor."""
        self.factors = factors
        per_update = len(self.updates) // len(self.steps)
        per_query = len(self.queries) // len(self.steps)
        self.updates = [(k, t * factors[i // per_update], r)
                        for i, (k, t, r) in enumerate(self.updates)]
        self.fresh = [t * factors[i // per_update]
                      for i, t in enumerate(self.fresh)]
        self.queries = [(op, t * factors[i // per_query],
                         wall * factors[i // per_query], hit)
                        for i, (op, t, wall, hit) in enumerate(self.queries)]

    def step_times(self) -> list[float]:
        """Each step's time without its chain queries, whose cost hangs
        on the drawn target (a heavy tail) and is reported on its own."""
        per_query = len(self.queries) // len(self.steps)
        return [(b - a) * f - sum(
                    q[1] for q in self.queries[i * per_query:(i + 1) * per_query]
                    if q[0] == "chain")
                for i, ((a, b), f) in enumerate(zip(self.steps, self.factors))]


def _serve_loop(ctx: Context, state: ServeState, daemon: Daemon,
                oracle: StateOracle, seconds: float, min_cycles: int,
                out: Outcome) -> tuple[ServeRun, dict]:
    """Update steps until ``seconds`` have passed (not counting the
    oracle's solves) and ``min_cycles`` edit cycles have run, ending on a
    shrink so that the final generation is a retracted one."""
    plan = EditPlan(state.program, state.paths, ctx.seed)
    stream = QueryStream(state.pointers, state.targets, ctx.seed)
    texts = dict(state.program.files)
    by_path = {p: n for n, p in state.paths.items()}
    run = ServeRun()
    speed = Speed(per_op=True)
    begin = time.perf_counter() - oracle.seconds
    n = 0
    while True:
        kind, path, text, fresh = plan.step(n)
        reset_peak_rss(daemon.proc.pid)
        step_start = time.perf_counter()
        response, rtt = daemon.request("update", {"file": path, "text": text})
        answer, fresh_rtt = daemon.request("points-to", {"name": fresh})
        records = []
        for _ in range(QUERIES_PER_UPDATE):
            op, params = stream.next()
            records.append((op, *daemon.request(op, params)))
        step_end = time.perf_counter()
        run.peaks.append(peak_rss_mb(daemon.proc.pid))
        speed.mark()
        run.steps.append((step_start, step_end))
        texts[by_path[path]] = text
        # Correctness gate, outside the timed region: every points-to and
        # alias answer of the step must match a cold solve of its sources.
        out.attempted += 2 + len(records)
        run.updates.append((kind, rtt, response))
        run.fresh.append(rtt + fresh_rtt)
        result = response.get("result") or {}
        if not response.get("ok"):
            out.fail(f"update {n} ({kind}): {response.get('error')}")
        elif kind in ("add", "undo") and result.get("mode") != "warm":
            out.fail(f"update {n} ({kind}): mode {result.get('mode')}")
        elif kind == "undo" and result.get("compiled") != 0:
            out.fail(f"update {n} (undo): compiled {result.get('compiled')}")
        elif kind == "shrink" and (
                result.get("mode") != "retract"
                or result.get("retract", {}).get("dirty_regions", 0) < 1):
            out.fail(f"update {n} (shrink): mode {result.get('mode')}, "
                     f"retract {result.get('retract')}")
        answers = oracle.state(kind, path, text)
        for op, resp, q_rtt in [("points-to", answer, fresh_rtt), *records]:
            if not resp.get("ok"):
                out.fail(f"{op} after update {n}: {resp.get('error')}")
            elif op != "chain" and (
                    wrong := served_mismatch(op, resp, answers)):
                out.fail(f"{wrong} after update {n} ({kind}) differs from "
                         "a cold solve of its sources")
        for op, resp, q_rtt in records:
            run.queries.append((op, q_rtt, resp.get("wall_ms", 0.0),
                                bool(resp.get("cache_hit"))))
        n += 1
        cycles, phase = divmod(n, len(EditPlan.KINDS))
        if phase == 2 and cycles >= min_cycles and (
                time.perf_counter() - begin - oracle.seconds >= seconds):
            break
    run.calibration_s = speed.calibration_s
    run.normalize(speed.factors())
    return run, texts


def _check_final(ctx: Context, daemon: Daemon, oracle: StateOracle,
                 texts: dict, out: Outcome) -> None:
    """The final generation's answers must equal a cold in-process solve
    of the final sources."""
    answers = oracle.solve(texts)
    victim = min((n for n, pts in answers.items() if pts), default=None)
    for name in sorted(answers):
        out.attempted += 1
        resp, _rtt = daemon.request("points-to", {"name": name})
        if ctx.inject_fault and name == victim and resp.get("ok"):
            resp["result"]["points_to"][name] = []
        if not resp.get("ok"):
            out.fail(f"final points-to {name}: {resp.get('error')}")
        elif wrong := served_mismatch("points-to", resp, answers):
            out.fail(f"final {wrong} differs from a cold solve of the "
                     "final sources")


def _daemon_spans(path: str) -> list[dict]:
    spans = spanlib.read_spans(path) if os.path.exists(path) else []
    return spans + spanlib.read_spill(path)


def _serve_layers(run: ServeRun, spans: list[dict]) -> dict:
    lo, hi = run.steps[0][0], run.steps[-1][1]
    inside = [s for s in spans if s["start"] >= lo and s["end"] <= hi]
    op_seconds = sum(b - a for a, b in run.steps)
    m = layer_metrics(inside, len(run.steps), op_seconds,
                      statistics.mean(run.factors))
    roots = [s for s in inside if s["parent"] is None]
    covered = sum(spanlib.covered(step, roots) for step in run.steps)
    m["unattributed_share"] = 1.0 - covered / op_seconds
    return m


def _serve_client_metrics(run: ServeRun) -> dict:
    updates = len(run.updates)
    queries = len(run.queries)
    total = updates * 2 + queries
    modes = [(r.get("result") or {}).get("mode") for _k, _t, r in run.updates]
    by_mode = {m: [t for (_k, t, r), mode in zip(run.updates, modes)
                   if mode == m] for m in ("warm", "retract", "cold")}
    ops = [q[0] for q in run.queries]
    inside = [q[2] for q in run.queries]
    transport = [q[1] * 1e3 - q[2] for q in run.queries]
    return {
        "serve.update.warm_ms_p50": statistics.median(by_mode["warm"]) * 1e3
        if by_mode["warm"] else 0.0,
        "serve.update.retract_ms_p50":
            statistics.median(by_mode["retract"]) * 1e3
            if by_mode["retract"] else 0.0,
        "serve.update.mode_share.warm": modes.count("warm") / updates,
        "serve.update.mode_share.retract": modes.count("retract") / updates,
        "serve.update.mode_share.cold": modes.count("cold") / updates,
        "serve.request.inside_ms_p50": statistics.median(inside),
        "serve.transport_ms_p50": statistics.median(transport),
        "serve.query_cache.hit_ratio":
            sum(q[3] for q in run.queries) / queries,
        "mix.update_share": updates / total,
        "mix.points_to_share": (ops.count("points-to") + updates) / total,
        "mix.alias_share": ops.count("alias") / total,
        "mix.chain_share": ops.count("chain") / total,
    }


def _add_tail(out: Outcome, name: str, seconds: list[float],
              wanted: int) -> None:
    """Report the ``wanted`` percentile, or, with too few samples, the
    highest one that has ten samples beyond it (and say so)."""
    q = min(tail_percentile(len(seconds)), wanted)
    if q < wanted:
        out.notes.append(
            f"{name}_p{wanted}_ms needs {1000 // (100 - wanted)} samples for "
            f"10 beyond it; this run had {len(seconds)}, so its tail is p{q}")
    if q > 50:
        out.report.append((f"{name}_p{q}_ms", percentile(seconds, q) * 1e3,
                           "ms", len(seconds)))


def run_serve(ctx: Context) -> Outcome:
    out = Outcome()
    state, setup_s = _median_setup(ctx, _serve_setup)
    traced_daemon = None
    try:
        # Client and daemon share one CPU: a round trip is two context
        # switches, not a cross-CPU wake-up whose cost depends on where
        # the scheduler put each process.
        pin_one_cpu(state.daemon.proc.pid)
        # The end-to-end metrics need one edit cycle per unit (see below);
        # a traced run splits its time between an untraced and a traced
        # daemon and needs only whole cycles.
        units = len(state.program.files)
        seconds, min_cycles = ((ctx.seconds / 2, 1) if ctx.trace
                               else (ctx.seconds, units))
        # The set-up reference's object cache: only edited units compile.
        oracle = StateOracle(state, os.path.join(state.work, "ref"))
        run, texts = _serve_loop(ctx, state, state.daemon, oracle, seconds,
                                 min_cycles, out)
        _check_final(ctx, state.daemon, oracle, texts, out)
        layer = empty_layer_metrics()
        if ctx.trace:
            state.daemon.close()
            state.daemon = None
            spans_path = os.path.join(ctx.work, "daemon-spans.jsonl")
            traced_daemon = Daemon(
                state.serve_args(os.path.join(ctx.work, "traced-cache")),
                _daemon_env(ctx), os.path.join(ctx.work, "traced.log"),
                spans=spans_path,
            )
            traced_run, traced_texts = _serve_loop(
                ctx, state, traced_daemon, oracle, seconds, min_cycles, out)
            _check_final(ctx, traced_daemon, oracle, traced_texts, out)
            traced_daemon.close()
            spans = _daemon_spans(spans_path)
            spanlib.write_spans(ctx.trace_out, spans)
            layer.update(_serve_layers(traced_run, spans))
            common = min(len(run.steps), len(traced_run.steps))
            layer["engine.trace_overhead_share"] = (
                sum(traced_run.step_times()[:common])
                / sum(run.step_times()[:common]) - 1.0)
        layer.update(_serve_client_metrics(run))
        program = state.program
        layer.update({
            "input.lines": program.source_lines(),
            "input.units": len(program.files),
            "input.assignments": state.ref.assignments,
            "input.cla_bytes": state.ref.cla_bytes,
        })
        out.layer = layer

        q_rtt = run.rtts(chain=False)
        chain = run.rtts(chain=True)
        upd = [t for _k, t, _r in run.updates]
        cycles = len(run.updates) // len(EditPlan.KINDS)
        # The daemon's memory grows with every compiled update, so its
        # peak is taken over a fixed amount of work: one cycle per unit.
        first_round = run.peaks[:units * len(EditPlan.KINDS)]
        out.metrics = {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            "peak_rss_mb": (max(first_round), "MB", len(first_round)),
            "first_answer_s": (run.per_unit(run.fresh, units), "s", cycles),
            "op_s": (run.per_unit(run.step_times(), units), "s", cycles),
        }
        rep = out.report
        rep.append(("calibration_s", run.calibration_s, "s",
                    len(run.steps) + 1))
        rep.append(("query_p50_ms", statistics.median(q_rtt) * 1e3, "ms",
                    len(q_rtt)))
        _add_tail(out, "query", q_rtt, 99)
        rep.append(("queries_per_s", len(q_rtt) / sum(q_rtt), "1/s",
                    len(q_rtt)))
        rep.append(("chain_p50_ms", statistics.median(chain) * 1e3, "ms",
                    len(chain)))
        rep.append(("update_p50_ms", statistics.median(upd) * 1e3, "ms",
                    len(upd)))
        _add_tail(out, "update", upd, 90)
        rep.append(("rss_growth_mb_per_update", statistics.linear_regression(
            range(len(run.peaks)), run.peaks).slope, "MB", len(run.peaks)))
        rep.append(("error_rate", out.failed / out.attempted, "ratio",
                    out.attempted))
        return out
    finally:
        if traced_daemon is not None:
            traced_daemon.close()
        state.close()


RUNNERS = {
    "cold_start": run_in_process,
    "analyze_db": run_in_process,
    "edit_serve": run_serve,
}
