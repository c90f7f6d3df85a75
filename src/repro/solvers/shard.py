"""Flow-closed regions and region-scoped retraction.

A Steensgaard-style unification pass — union-find over every assignment
row (``dst ~ src``, ADDR included) plus the §4 function/indirect-call
plumbing (``f ~ f$argN ~ f$ret``) — groups the database into
*flow-closed regions* in near-linear time (:func:`plan_regions`).  No
points-to fact can cross a region boundary: every propagation rule of
every solver only ever joins names that some row or record relates, so
each region's fixpoint is computable in isolation.  Rows partition at
block granularity (every row of a block names the block's trigger, so a
block is always contained in one region).

The serving layer uses that independence to retract facts
(:func:`solve_retracted`): after an edit that removes constraints, only
the regions a changed fact touches are re-solved cold, every clean
region keeps its previous masks verbatim, and the two merge by name
through one universe.  The result is bit-identical to a cold solve.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cla.slice import slice_store
from ..cla.store import ConstraintStore
from ..engine.stats import SolverStats
from ..ir.primitives import PrimitiveAssignment, PrimitiveKind
from ..ir.universe import ObjectUniverse, bitset_words
from .base import LazyPointsTo, PointsToResult

#: Stats fields carried from the dirty-region solve into the merged
#: result (pure work counters).  Intern/bitset footprints come from the
#: merge universe; load accounting comes from the store.
_WORK_STATS = (
    "rounds", "edges_added", "constraints", "cycles_collapsed",
    "lval_queries", "nodes_visited", "funcptr_links", "lvals_cached",
    "cache_hits", "cache_misses", "delta_lvals_processed",
    "lvals_skipped_by_diff",
)


def _solver_class(solver):
    from . import SOLVERS

    if isinstance(solver, type):
        return solver
    try:
        return SOLVERS[solver]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise KeyError(f"unknown solver {solver!r} (known: {known})") \
            from None


class _UnionFind:
    """Union-find over names with path compression + union by rank."""

    __slots__ = ("parent", "rank")

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}
        self.rank: dict[str, int] = {}

    def find(self, x: str) -> str:
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        rank = self.rank
        if rank.get(ra, 0) < rank.get(rb, 0):
            ra, rb = rb, ra
        self.parent[rb] = ra
        if rank.get(ra, 0) == rank.get(rb, 0):
            rank[ra] = rank.get(ra, 0) + 1


@dataclass
class RegionPlan:
    """The flow-closed region partition of a live store.

    The serving layer's retraction path re-solves only the regions a
    constraint delta touches and keeps every other region's previous
    masks (sound because no points-to fact can cross a region boundary).

    ``region_*`` maps are keyed by the union-find root of each region;
    :meth:`region_of` answers "which region holds this name" without
    mutating the partition (names with no constraints are in no region).
    """

    uf: _UnionFind
    region_blocks: dict[str, list[str]]
    region_statics: dict[str, list[PrimitiveAssignment]]
    region_weight: dict[str, int]
    total_rows: int
    target_pool: tuple[str, ...] = ()

    @property
    def regions(self) -> int:
        return len(self.region_weight)

    def region_of(self, name: str) -> str | None:
        """The region root holding ``name`` (None: no constraints)."""
        if name not in self.uf.parent:
            return None
        return self.uf.find(name)


def _record_unions(uf: _UnionFind, block) -> None:
    fr = block.function_record
    if fr is not None:
        for arg in fr.args:
            uf.union(fr.function, arg)
        uf.union(fr.function, fr.ret)
    ir = block.indirect_record
    if ir is not None:
        for arg in ir.args:
            uf.union(ir.pointer, arg)
        uf.union(ir.pointer, ir.ret)


def plan_regions(store: ConstraintStore) -> RegionPlan:
    """Partition a store into flow-closed regions (near-linear).

    One union-find pass over every assignment row (``dst ~ src``, ADDR
    included) plus the §4 function/indirect-record plumbing
    (``f ~ f$argN ~ f$ret``), then one grouping pass by root.  Blocks
    partition whole (every row of a block names its trigger), and the
    address-taken target pool is collected in store order as a side
    effect — the bit numbering the retraction merge pre-interns.
    """
    uf = _UnionFind()
    target_pool: list[str] = []
    seen_targets: set[str] = set()
    addr = PrimitiveKind.ADDR
    statics = list(store.static_assignments())
    for a in statics:
        uf.union(a.dst, a.src)
        if a.kind is addr and a.src not in seen_targets:
            seen_targets.add(a.src)
            target_pool.append(a.src)
    block_weights: dict[str, int] = {}
    for name in list(store.block_names()):
        block = store.load_block(name)
        if block is None:
            continue
        for a in block.assignments:
            uf.union(a.dst, a.src)
            if a.kind is addr and a.src not in seen_targets:
                seen_targets.add(a.src)
                target_pool.append(a.src)
        _record_unions(uf, block)
        # The trigger name appears in every row of its block, so the
        # whole block lands in trigger's region; record-only blocks get
        # weight 0 but still anchor their region membership.
        uf.find(name)
        block_weights[name] = len(block.assignments)

    # Group blocks and statics by region root.
    region_blocks: dict[str, list[str]] = {}
    region_statics: dict[str, list[PrimitiveAssignment]] = {}
    region_weight: dict[str, int] = {}
    for name, weight in block_weights.items():
        root = uf.find(name)
        region_blocks.setdefault(root, []).append(name)
        region_weight[root] = region_weight.get(root, 0) + weight
    for a in statics:
        root = uf.find(a.dst)
        region_statics.setdefault(root, []).append(a)
        region_weight[root] = region_weight.get(root, 0) + 1

    return RegionPlan(
        uf=uf,
        region_blocks=region_blocks,
        region_statics=region_statics,
        region_weight=region_weight,
        total_rows=sum(region_weight.values()),
        target_pool=tuple(target_pool),
    )


def _remap_mask(mask: int, remap: list[int], identity: int = 0) -> int:
    """Translate a bitmask through a bit -> bit id mapping.

    ``identity`` is the length of the mapping's identity prefix
    (``remap[j] == j`` for all ``j < identity``).  With the target pool
    pre-interned on both sides, essentially every mask falls inside the
    prefix and passes through untouched.
    """
    if mask >> identity == 0:
        return mask
    acc = 0
    while mask:
        low = mask & -mask
        bit = low.bit_length() - 1
        acc |= low if bit < identity else 1 << remap[bit]
        mask ^= low
    return acc


def _merge_mask_outputs(
    universe: ObjectUniverse,
    outputs: list[tuple[list[str], dict[str, int]]],
) -> dict[str, int]:
    """Union ``(target_names, masks)`` outputs by name through one
    universe: each output's masks are in its own target bit space; its
    name table gives the remap (identity over any shared pre-interned
    prefix, so pooled bits pass through untouched)."""
    merged_masks: dict[str, int] = {}
    intern = universe.intern
    target_id = universe.target_id
    for target_names, masks in outputs:
        remap = [target_id(name) for name in target_names]
        ident = 0
        for j, v in enumerate(remap):
            if v != j:
                break
            ident = j + 1
        for name, mask in masks.items():
            intern(name)
            merged_masks[name] = (
                merged_masks.get(name, 0) | _remap_mask(mask, remap, ident)
            )
    return merged_masks


def solve_retracted(
    store: ConstraintStore,
    solver,
    prev: PointsToResult,
    touched_names,
    plan: RegionPlan | None = None,
    **solver_kwargs,
) -> tuple[PointsToResult, dict]:
    """Re-solve after a constraint delta by resolving only dirty regions.

    ``prev`` is the previous generation's (mask-backed) result and
    ``touched_names`` is every name mentioned by an added *or* removed
    constraint fact.  The new store is partitioned into flow-closed
    regions (:func:`plan_regions`); a region is **dirty** iff it contains
    a touched name.  For every *clean* region the old fixpoint restricted
    to its names is already the new fixpoint — no fact mentioning those
    names changed, and no points-to fact can cross a region boundary, for
    any of the four solvers — so its previous masks are kept verbatim.
    Dirty regions are cold-solved as one
    :class:`~repro.cla.slice.StoreSlice`; names that vanished from the
    store (in no region at all) are dropped.  Kept and re-solved masks
    merge by name through one universe.

    Returns ``(result, info)`` where ``info`` reports the scope of the
    invalidation: ``regions``, ``dirty_regions``, ``kept_names``,
    ``dropped_names`` (vanished), ``resolved_rows`` and ``total_rows``.
    The result is bit-identical to a cold ``solver`` solve of ``store``.
    """
    cls = _solver_class(solver)
    if plan is None:
        plan = plan_regions(store)
    dirty_roots: set[str] = set()
    for name in touched_names:
        root = plan.region_of(name)
        if root is not None:
            dirty_roots.add(root)

    # Stale masks: every name in a dirty region, plus vanished names
    # (no constraints mention them any more, so their sets are empty).
    stale: set[str] = set()
    dropped = 0
    for name in prev.pts.masks():
        root = plan.region_of(name)
        if root is None:
            stale.add(name)
            dropped += 1
        elif root in dirty_roots:
            stale.add(name)
    keep = prev.retract_names(stale)

    dirty_statics: list[PrimitiveAssignment] = []
    dirty_rows: dict[str, list[PrimitiveAssignment]] = {}
    for root in dirty_roots:
        dirty_statics.extend(plan.region_statics.get(root, ()))
        for bname in plan.region_blocks.get(root, ()):
            dirty_rows[bname] = store.load_block(bname).assignments
    resolved_rows = len(dirty_statics) + sum(
        len(rows) for rows in dirty_rows.values()
    )

    universe = ObjectUniverse(store)
    target_id = universe.target_id
    for pooled in plan.target_pool:
        target_id(pooled)
    outputs: list[tuple[list[str], dict[str, int]]] = [
        (list(prev.pts.universe.target_names), keep),
    ]
    stats = SolverStats(solver=cls.name)
    if dirty_roots:
        dirty_solver = cls(
            slice_store(store, dirty_statics, dirty_rows), **solver_kwargs
        )
        dirty_result = dirty_solver.solve()
        outputs.append((
            list(dirty_result.pts.universe.target_names),
            dict(dirty_result.pts.masks()),
        ))
        for k in _WORK_STATS:
            setattr(stats, k, getattr(dirty_result.stats, k))
    merged_masks = _merge_mask_outputs(universe, outputs)

    stats.interned_objects = len(universe)
    stats.interned_targets = universe.target_count
    stats.bitset_words = sum(
        bitset_words(mask) for mask in merged_masks.values()
    )
    stats.absorb_load_stats(store.stats)
    stats.publish()

    objects = {}
    for name in merged_masks:
        obj = store.get_object(name)
        if obj is not None:
            objects[name] = obj
    result = PointsToResult(
        solver=cls.name,
        pts=LazyPointsTo(merged_masks, universe),
        metrics=stats,
        load_stats=store.stats,
        objects=objects,
    )
    info = {
        "regions": plan.regions,
        "dirty_regions": len(dirty_roots),
        "kept_names": len(keep),
        "dropped_names": dropped,
        "resolved_rows": resolved_rows,
        "total_rows": plan.total_rows,
    }
    return result, info
