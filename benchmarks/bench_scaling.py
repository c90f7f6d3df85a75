"""Scaling behaviour: the claim behind "a million lines in a second".

The paper's Table 3 shows analysis time growing roughly with the number
of loaded assignments, not with the points-to relation count — that is
what makes million-line code bases feasible.  This bench sweeps one
profile across sizes and asserts:

* solve time grows subquadratically in loaded assignments (near-linear
  with some superlinear slack for set unions);
* loaded assignments stay a roughly constant fraction of the database;
* retained (in-core) constraints grow only with the complex-assignment
  count.
"""

import time

import pytest

from repro.cla.store import MemoryStore
from repro.solvers import PreTransitiveSolver
from repro.synth import generate

PROFILE = "lucent"
SCALES = [0.02, 0.04, 0.08]

_CACHE: dict[float, list] = {}


def units_at(scale: float):
    if scale not in _CACHE:
        _CACHE[scale] = generate(PROFILE, scale=scale,
                                 seed=42).project().units()
    return _CACHE[scale]


@pytest.mark.parametrize("scale", SCALES)
def test_scaling_point(benchmark, scale, report):
    holder = {}

    def setup():
        holder["store"] = MemoryStore(units_at(scale))
        return (), {}

    def run():
        holder["result"] = PreTransitiveSolver(holder["store"]).solve()
        return holder["result"]

    benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    stats = holder["store"].stats
    benchmark.extra_info.update({
        "loaded": stats.loaded,
        "in_file": stats.in_file,
        "relations": holder["result"].points_to_relations(),
    })
    report.append(
        f"[scaling] {PROFILE}@{scale:g}: loaded={stats.loaded} "
        f"in_file={stats.in_file} "
        f"rel={holder['result'].points_to_relations()}"
    )


def test_subquadratic_growth(benchmark, report):
    points = []
    for scale in SCALES:
        store = MemoryStore(units_at(scale))
        solver = PreTransitiveSolver(store)
        t0 = time.perf_counter()
        solver.solve()
        elapsed = time.perf_counter() - t0
        points.append((store.stats.loaded, elapsed,
                       solver.metrics.nodes_visited))
    (n1, t1, w1), (_n2, _t2, _w2), (n3, t3, w3) = points
    size_ratio = n3 / n1
    work_ratio = w3 / max(w1, 1)
    report.append(
        f"[scaling] {PROFILE}: loaded x{size_ratio:.1f} -> "
        f"time x{t3 / max(t1, 1e-9):.1f}, traversal work x{work_ratio:.1f} "
        f"(quadratic would be x{size_ratio ** 2:.0f})"
    )
    # Deterministic work counter: clearly below quadratic growth.
    assert work_ratio < size_ratio ** 1.7, (
        f"traversal work grew x{work_ratio:.1f} for a x{size_ratio:.1f} "
        "size increase — superquadratic"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_diff_propagation_pays_off_at_scale(benchmark, report):
    """Difference propagation cuts (constraint, lval) edge-add attempts on
    a realistic profile, not just the adversarial ladder kernel — with
    byte-identical points-to sets."""
    scale = SCALES[1]
    runs = {}
    for diff in (True, False):
        store = MemoryStore(units_at(scale))
        solver = PreTransitiveSolver(store, enable_diff_propagation=diff)
        result = solver.solve()
        runs[diff] = (
            {k: v for k, v in result.pts.items() if v},
            solver.metrics.delta_lvals_processed,
            solver.metrics.lvals_skipped_by_diff,
        )
    pts_on, processed_on, skipped_on = runs[True]
    pts_off, processed_off, _ = runs[False]
    assert pts_on == pts_off, "diff propagation changed the fixpoint"
    assert processed_on < processed_off, (
        f"diff propagation saved nothing: {processed_on} vs {processed_off}"
    )
    benchmark.extra_info.update({
        "delta_lvals_processed_on": processed_on,
        "delta_lvals_processed_off": processed_off,
        "lvals_skipped_by_diff": skipped_on,
    })
    report.append(
        f"[scaling] {PROFILE}@{scale:g}: diff propagation cuts lvals "
        f"processed {processed_off} -> {processed_on} "
        f"(skipped {skipped_on}), identical points-to sets"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_event_ledger_overhead(benchmark, report):
    """The run ledger must be free when off and cheap when on.

    Solvers guard every emission with ``if EVENTS:`` — a single truthiness
    check on the sink list.  Off is the default bench path, so this guards
    the acceptance bar directly: a sink-attached solve may not be more
    than 50% slower than the unsinked solve, and the per-guard cost must
    be far below anything a round could measure."""
    from repro.engine.events import EVENTS, MemorySink

    scale = SCALES[0]

    def timed_solve():
        store = MemoryStore(units_at(scale))
        t0 = time.perf_counter()
        PreTransitiveSolver(store).solve()
        return time.perf_counter() - t0

    assert not EVENTS, "a sink leaked into the bench process"
    off = min(timed_solve() for _ in range(3))

    sink = MemorySink()
    EVENTS.add_sink(sink)
    try:
        on = min(timed_solve() for _ in range(3))
    finally:
        EVENTS.remove_sink(sink)

    # Micro-measure the off-path guard itself: one falsy check.
    checks = 100_000
    t0 = time.perf_counter()
    hits = sum(1 for _ in range(checks) if EVENTS)
    per_check = (time.perf_counter() - t0) / checks
    assert hits == 0

    benchmark.extra_info.update({
        "solve_off_s": round(off, 6),
        "solve_on_s": round(on, 6),
        "events_per_solve": len(sink.events) // 3,
        "guard_ns": round(per_check * 1e9, 1),
    })
    report.append(
        f"[scaling] event ledger: solve {off * 1e3:.1f}ms off vs "
        f"{on * 1e3:.1f}ms with a sink "
        f"({len(sink.events) // 3} events/solve, "
        f"guard {per_check * 1e9:.0f}ns)"
    )
    assert per_check < 1e-6, (
        f"events-off guard costs {per_check * 1e9:.0f}ns per check"
    )
    assert on <= off * 1.5 + 0.02, (
        f"sink-attached solve too slow: {on:.3f}s vs {off:.3f}s off"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_demand_fraction_stable(benchmark, report):
    """Loaded/in-file fraction should not degrade with size (demand
    loading keeps paying off at scale, as in the paper's Table 3)."""
    fractions = []
    for scale in SCALES:
        store = MemoryStore(units_at(scale))
        PreTransitiveSolver(store).solve()
        fractions.append(store.stats.loaded / store.stats.in_file)
    report.append(
        "[scaling] loaded/in-file fraction by size: "
        + ", ".join(f"{f:.2f}" for f in fractions)
        + "  (paper lucent: 0.29)"
    )
    assert max(fractions) < 0.95
    assert max(fractions) - min(fractions) < 0.25
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
