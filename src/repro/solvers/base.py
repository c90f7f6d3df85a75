"""Common solver infrastructure.

Every points-to solver consumes a :class:`~repro.cla.store.ConstraintStore`
and produces a :class:`PointsToResult`.  Shared here:

* :class:`BaseSolver` — the skeleton all four solvers extend: store +
  uniform :class:`~repro.engine.stats.SolverStats` + function-pointer
  linker + the interned :class:`~repro.ir.universe.ObjectUniverse`,
  id-space full-database ingestion for the non-demand solvers
  (:meth:`BaseSolver._ingest_all_ids`), and the
  :meth:`BaseSolver._finalize_masks` reporting hook that wraps the final
  id-space bitmasks in a lazily-decoding result mapping and snapshots the
  CLA load accounting into the stats record.
* Analysis-time function-pointer linking (§4: when ``g`` lands in the
  points-to set of a pointer ``f`` used at an indirect call site, link
  ``g$argN = <f>$argN`` and ``<f>$ret = g$ret``) — all solvers need it.
* :class:`PointsToResult` — the uniform output record.  Its ``pts``
  mapping may be a plain dict or a :class:`LazyPointsTo` view over solver
  bitmasks; both behave identically (``Mapping`` protocol, equality
  included), so the oracle, tables, report and CLI are agnostic.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..cla.store import ConstraintStore, LoadStats
from ..engine.events import (
    EVENTS,
    SolverBeginEvent,
    SolverEndEvent,
    SolverRoundEvent,
)
from ..engine.stats import SolverStats
from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import PrimitiveKind
from ..ir.universe import ConstraintBatch, ObjectUniverse, bitset_words


class LazyPointsTo(Mapping):
    """A ``name -> frozenset(names)`` view over id-space bitmasks.

    Keys are eager (the result's object names are needed for the metadata
    snapshot anyway); values decode on first access through the universe's
    shared cache, so identical masks yield one frozenset and consumers
    that only *count* (Table 3) never materialise names at all.
    """

    __slots__ = ("_masks", "_universe")

    def __init__(self, masks: dict[str, int], universe: ObjectUniverse):
        self._masks = masks
        self._universe = universe

    def __getitem__(self, name: str) -> frozenset[str]:
        return self._universe.decode(self._masks[name])

    def __iter__(self):
        return iter(self._masks)

    def __len__(self) -> int:
        return len(self._masks)

    def __contains__(self, name) -> bool:
        return name in self._masks

    # -- count-only fast paths (no decode) ------------------------------

    def target_count(self, name: str) -> int:
        """len(pts(name)) without decoding the set."""
        return self._masks[name].bit_count()

    def mask(self, name: str) -> int:
        """The raw id-space bitmask (0 if absent)."""
        return self._masks.get(name, 0)

    def masks(self) -> dict[str, int]:
        return self._masks

    @property
    def universe(self) -> ObjectUniverse:
        return self._universe


@dataclass
class PointsToResult:
    """The output of a points-to analysis."""

    solver: str
    pts: Mapping[str, frozenset[str]]
    metrics: SolverStats = field(default_factory=SolverStats)
    load_stats: LoadStats = field(default_factory=LoadStats)
    #: Object metadata snapshot for reporting (name -> ProgramObject).
    objects: dict[str, ProgramObject] = field(default_factory=dict)

    @property
    def stats(self) -> SolverStats:
        """The uniform stats record (preferred name; ``metrics`` is the
        historical field name)."""
        return self.metrics

    def points_to(self, name: str) -> frozenset[str]:
        return self.pts.get(name, frozenset())

    def may_alias(self, a: str, b: str) -> bool:
        """Two pointers may alias iff their points-to sets intersect."""
        return bool(self.points_to(a) & self.points_to(b))

    def _target_counter(self):
        """len(pts(name)) without decoding, when the mapping supports it."""
        counter = getattr(self.pts, "target_count", None)
        if counter is not None:
            return counter
        return lambda name: len(self.pts[name])

    def pointer_variables(self) -> int:
        """Table 3 column 1: program objects (variables and fields, no
        temporaries) with non-empty points-to sets."""
        count = 0
        counted = self._target_counter()
        for name in self.pts:
            if not counted(name):
                continue
            obj = self.objects.get(name)
            if obj is not None and obj.kind == ObjectKind.TEMP:
                continue
            count += 1
        return count

    def points_to_relations(self) -> int:
        """Table 3 column 2: total points-to set sizes over those objects."""
        total = 0
        counted = self._target_counter()
        for name in self.pts:
            obj = self.objects.get(name)
            if obj is not None and obj.kind == ObjectKind.TEMP:
                continue
            total += counted(name)
        return total

    def retract_names(self, names) -> dict[str, int]:
        """Kept id-space masks after discarding ``names``.

        The retraction seam: a region-scoped re-solve
        (:func:`repro.solvers.shard.solve_retracted`) drops every name a
        constraint delta could have affected and keeps the rest verbatim.
        Returns ``{name: mask}`` in *this result's* universe bit space —
        remap through the kept universe's ``target_names`` to merge.
        Requires a mask-backed ``pts`` (:class:`LazyPointsTo`).
        """
        masks = getattr(self.pts, "masks", None)
        if masks is None:
            raise TypeError(
                f"{self.solver} result is not mask-backed; cannot retract"
            )
        drop = names if isinstance(names, (set, frozenset)) else set(names)
        return {
            name: mask for name, mask in masks().items() if name not in drop
        }

    def pointed_by(self) -> dict[str, set[str]]:
        """Reverse index: target object -> pointers that may point to it.

        The dependence analysis uses this to find the loads ``x = *p``
        relevant to a newly dependent object (§4's sketch).
        """
        reverse: dict[str, set[str]] = {}
        for pointer, targets in self.pts.items():
            for target in targets:
                reverse.setdefault(target, set()).add(pointer)
        return reverse


class BaseSolver:
    """Skeleton shared by all four solvers.

    Subclasses consume constraints either through the id-space batch
    (:meth:`_ingest_all_ids`, the non-demand solvers) or by demand-loading
    blocks themselves (the pre-transitive solver); they report results
    through :meth:`_finalize_masks` (id-space bitmasks) or
    :meth:`_finalize` (a prebuilt mapping), the single seam the stats
    layer hangs off.
    """

    name = "base"

    #: How the result relates to Andersen's least subset-based model:
    #: ``"andersen"`` solvers compute it exactly (and must agree bit for
    #: bit); ``"over"`` solvers compute a sound per-object superset
    #: (unification merges).  The checker (:mod:`repro.checker`) uses this
    #: to pick its comparison: exact equality, superset, and whether the
    #: no-spurious-targets minimality check applies.  Either way the
    #: result must be a *closed* model, so the soundness oracle applies to
    #: every solver.
    precision = "andersen"

    #: Worklist solvers count a "round" per pop; emitting an event for
    #: every pop would drown the bus, so their loops emit one
    #: :class:`SolverRoundEvent` per ``_ROUND_EVENT_MASK + 1`` pops
    #: (power of two: the guard is one AND).  Iterative solvers emit per
    #: literal outer round.
    _ROUND_EVENT_MASK = 0xFFF

    #: Whether this solver implements the partial-solve protocol below
    #: (ingest_fact_masks / solve_partial / finish_partial): the serve
    #: layer's warm reseed after an additive edit.  Unification solvers
    #: never resume; their edits re-solve through retraction or cold.
    supports_resume = False

    def __init__(self, store: ConstraintStore):
        self.store = store
        self.stats = SolverStats(solver=self.name)
        #: Historical alias: counters were formerly ``solver.metrics``.
        self.metrics = self.stats
        self.universe = ObjectUniverse(store)
        self._linker = FunPtrLinker(store)
        self._funcptrs: set[str] = set()
        self._functions: set[str] = set()
        #: previous (edges, hits, misses, cycles, delta_lvals, nodes)
        #: snapshot, for per-round event deltas
        self._round_mark = (0, 0, 0, 0, 0, 0)

    # -- the partial-solve protocol (serve warm reseed) ----------------------

    def solve_partial(self) -> None:
        """Run to a fixpoint without finalizing the result.

        First call seeds from the store; later calls re-drain after
        :meth:`ingest_fact_masks` added base facts.  Only resume-capable
        solvers implement this.
        """
        raise NotImplementedError(f"{self.name} cannot resume")

    def ingest_fact_masks(self, masks: dict[str, int]) -> None:
        """Add base facts as per-pointer target bitmasks in *this
        solver's own* target space: each set bit ``t`` of ``masks[p]``
        means ``t ∈ pts(p)`` (a synthetic ADDR), one int OR per pointer."""
        raise NotImplementedError(f"{self.name} cannot resume")

    def finish_partial(self) -> PointsToResult:
        """Finalize after the last :meth:`solve_partial` (result, stats,
        load accounting — what :meth:`solve` does after its fixpoint)."""
        raise NotImplementedError(f"{self.name} cannot resume")

    # -- constraint intake ----------------------------------------------------

    def _may_point_pair(self, kind: PrimitiveKind, dst: str, src: str) -> bool:
        """Non-pointer value flow is irrelevant to aliasing (§6).  The
        exception is ``x = &y``: the *address* of a non-pointer object is
        still a pointer value (p = &v with short v, §2)."""
        may_point = self.universe.may_point
        if not may_point(dst):
            return False
        if kind is not PrimitiveKind.ADDR and not may_point(src):
            return False
        return True

    def _ingest_all_ids(self) -> ConstraintBatch:
        """Full (non-demand) loading, straight into id space.

        The transitively-closed baselines propagate eagerly and have no
        natural point to demand-load from (§4's contrast with prior
        architectures), so they ingest the whole database up front.  Each
        block is requested exactly once, so even a tiny-budget
        :class:`~repro.cla.cache.BlockCache` in front of the store keeps
        ``in_core`` bounded here: blocks stream through the cache and are
        evicted behind the scan.

        Names are interned exactly once — the universe's per-name caches
        are the only place string keys are touched, so a block fetched
        through any store seam lands in id space without double-interning.
        """
        batch = ConstraintBatch(self.universe)
        batch.absorb(self.store.static_assignments())
        for name in list(self.store.block_names()):
            block = self.store.load_block(name)
            if block is None:
                continue
            batch.absorb(block.assignments)
        return batch

    def _scan_functions(self) -> None:
        """Populate the funcptr/function name sets from store metadata."""
        for name in self.store.object_names():
            obj = self.store.get_object(name)
            if obj is None:
                continue
            if obj.is_funcptr:
                self._funcptrs.add(name)
            if obj.kind == ObjectKind.FUNCTION:
                self._functions.add(name)
        self.universe.note_functions(self._functions)

    # -- the run-ledger seam ---------------------------------------------------

    def _emit_begin(self) -> None:
        """Publish a :class:`SolverBeginEvent` (no-op with no sinks)."""
        if EVENTS:
            EVENTS.emit(SolverBeginEvent(
                solver=self.name, in_file=self.store.stats.in_file
            ))

    def _emit_round(self) -> None:
        """Publish one :class:`SolverRoundEvent` with per-round deltas.

        Callers on per-pop worklist hot paths pre-guard with the
        ``_ROUND_EVENT_MASK`` batch check; the bus check here keeps the
        no-sink cost to a single truthiness test either way.
        """
        if not EVENTS:
            return
        s = self.stats
        mark = self._round_mark
        cur = (s.edges_added, s.cache_hits, s.cache_misses,
               s.cycles_collapsed, s.delta_lvals_processed, s.nodes_visited)
        self._round_mark = cur
        hits = cur[1] - mark[1]
        misses = cur[2] - mark[2]
        queries = hits + misses
        EVENTS.emit(SolverRoundEvent(
            solver=self.name,
            round=s.rounds,
            edges_added=cur[0] - mark[0],
            delta_lvals=cur[4] - mark[4],
            lval_cache_hits=hits,
            lval_cache_misses=misses,
            cache_hit_rate=hits / queries if queries else 0.0,
            cycles_collapsed=cur[3] - mark[3],
            nodes_visited=cur[5] - mark[5],
            constraints=s.constraints,
            blocks_loaded=self.store.stats.blocks_loaded,
        ))

    # -- the shared reporting hook ---------------------------------------------

    def _finalize_masks(self, masks: dict[str, int]) -> PointsToResult:
        """Wrap final id-space bitmasks in a lazily-decoding result.

        Values decode back to str-keyed frozensets only on access; Table 3
        counting goes through popcounts.  The intern/bitset footprint
        counters are filled here, off the hot path.
        """
        universe = self.universe
        self.stats.interned_objects = len(universe)
        self.stats.interned_targets = universe.target_count
        self.stats.bitset_words = sum(
            bitset_words(mask) for mask in masks.values()
        )
        return self._finalize(LazyPointsTo(masks, universe))

    def _finalize(self, pts: Mapping) -> PointsToResult:
        """Build the result record: snapshot the CLA load accounting into
        the uniform stats, publish to the process registry, attach object
        metadata.

        The snapshot includes the keep-or-discard fields (reloads, peak
        residency, cache hits/misses/evictions) so Table 3 and the
        ``--stats`` line read one schema whether the store is plain or
        wrapped in a :class:`~repro.cla.cache.BlockCache`.
        """
        self.stats.absorb_load_stats(self.store.stats)
        self.stats.publish()
        if EVENTS:
            EVENTS.emit(SolverEndEvent(
                solver=self.name,
                rounds=self.stats.rounds,
                stats=self.stats.as_dict(),
            ))
        objects = {}
        get_object = self.store.get_object
        for name in pts:
            obj = get_object(name)
            if obj is not None:
                objects[name] = obj
        return PointsToResult(
            solver=self.name,
            pts=pts,
            metrics=self.stats,
            load_stats=self.store.stats,
            objects=objects,
        )


class FunPtrLinker:
    """Analysis-time linking of indirect calls, shared across solvers.

    ``link(pointer, callees)`` returns copy constraints ``(dst, src)`` that
    were not produced before: for each newly seen callee ``g`` of funcptr
    ``f``, ``g$argN ⊇ <f>$argN`` and ``<f>$ret ⊇ g$ret``.
    """

    def __init__(self, store: ConstraintStore):
        self.store = store
        self._linked: set[tuple[str, str]] = set()
        self._indirect_cache: dict[str, object] = {}
        self._function_cache: dict[str, object] = {}

    def _indirect_record(self, pointer: str):
        if pointer not in self._indirect_cache:
            block = self.store.load_block(pointer)
            self._indirect_cache[pointer] = (
                block.indirect_record if block is not None else None
            )
        return self._indirect_cache[pointer]

    def _function_record(self, function: str):
        if function not in self._function_cache:
            block = self.store.load_block(function)
            self._function_cache[function] = (
                block.function_record if block is not None else None
            )
        return self._function_cache[function]

    def link(self, pointer: str, callees) -> list[tuple[str, str]]:
        """New copy constraints from linking ``pointer``'s callees."""
        record = self._indirect_record(pointer)
        if record is None:
            return []
        out: list[tuple[str, str]] = []
        for callee in callees:
            key = (pointer, callee)
            if key in self._linked:
                continue
            self._linked.add(key)
            frecord = self._function_record(callee)
            if frecord is None:
                continue  # not a function after all (imprecision artifact)
            for formal, actual in zip(frecord.args, record.args):
                out.append((formal, actual))  # g$argN ⊇ <f>$argN
            out.append((record.ret, frecord.ret))  # <f>$ret ⊇ g$ret
        return out
