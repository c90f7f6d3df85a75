"""Baseline: worklist Andersen's analysis over a transitively-closed graph.

This is the algorithm family the paper improves on (§5: "Previous
algorithms in the literature for Andersen's analysis are based on a
transitively closed constraint graph e.g. [4, 10, 11, 21, 23, 22]").
Points-to sets are materialised at every node and propagated along
inclusion edges with difference propagation; complex assignments add new
edges as the sets they watch grow.

No cycle elimination is performed — that was precisely the expensive part
in the transitive setting ("the cost of finding cycles is non-trivial",
§5) — which is what the solver-comparison bench demonstrates.

Unlike the pre-transitive solver, this baseline loads the entire database
up front: a transitively-closed algorithm propagates eagerly and has no
natural point to demand-load from (§4's contrast with prior architectures).

Representation (the integer core, ROADMAP item 2): constraints are
interned to dense ids through the shared
:class:`~repro.ir.universe.ObjectUniverse`; the ingested copy graph
arrives as packed CSR adjacency; both the per-node successor sets and the
points-to/delta sets are int bitmasks, so propagation is word-parallel
``|``/``& ~`` instead of per-element set algebra.  That int-bitmask
core is §4's "implementation based on bit-vectors"; it needs no solver
class of its own.
"""

from __future__ import annotations

from collections import deque

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from ..ir.universe import bits
from .base import BaseSolver, PointsToResult


class TransitiveSolver(BaseSolver):
    """Set-based worklist Andersen baseline (int-bitmask representation)."""

    name = "transitive"
    precision = "andersen"
    supports_resume = True

    def __init__(self, store: ConstraintStore):
        super().__init__(store)
        self._started = False
        #: node id -> target-space points-to bitmask
        self._pts: dict[int, int] = {}
        self._delta: dict[int, int] = {}
        #: node id -> node-space successor bitmask (pts flows src -> dst)
        self._succ: dict[int, int] = {}
        self._loads_on: dict[int, list[int]] = {}  # p -> [x : x = *p]
        self._stores_on: dict[int, list[int]] = {}  # p -> [y : *p = y]
        self._worklist: deque[int] = deque()
        self._queued: set[int] = set()
        self._funcptr_ids: set[int] = set()
        #: target-space id -> node-space id, filled lazily (a points-to
        #: bit only needs a graph node once a complex constraint fires on
        #: it)
        self._target_nodes: dict[int, int] = {}

    # -- constraint intake ---------------------------------------------------

    def _seed(self) -> None:
        """Ingest the whole database in id space.

        The copy graph lands as one packed CSR pass; the remaining rows
        replay in ingestion order.  Deferring propagation to the worklist
        is safe: before the first pop every node's delta equals its full
        points-to set, so the fixpoint is unchanged.
        """
        batch = self._ingest_all_ids()
        csr = batch.copy_csr()
        succ = self._succ
        for src in range(csr.node_count):
            row = csr.row(src)
            if not row:
                continue
            row_mask = 0
            for dst in row:
                row_mask |= 1 << dst
            new = row_mask & ~succ.get(src, 0)
            if new:
                succ[src] = succ.get(src, 0) | new
                self.metrics.edges_added += new.bit_count()
        copy = int(PrimitiveKind.COPY)
        addr = int(PrimitiveKind.ADDR)
        load = int(PrimitiveKind.LOAD)
        store = int(PrimitiveKind.STORE)
        store_load = int(PrimitiveKind.STORE_LOAD)
        for kind, dst, src in batch.rows():
            if kind == copy:
                continue  # already in the CSR pass; copies dominate
            if kind == addr:
                self._add_pts(dst, 1 << src)  # src is a target-space id
            elif kind == load:
                self._add_load(dst, src)
            elif kind == store:
                self._add_store(dst, src)
            elif kind == store_load:
                # *p = *q  ==>  t = *q; *p = t  (split, as in §5)
                t = self.universe.fresh_temp()
                self._add_load(t, src)
                self._add_store(dst, t)

    def _add_load(self, x: int, p: int) -> None:
        self._loads_on.setdefault(p, []).append(x)
        self.metrics.constraints += 1
        self._replay(p)

    def _add_store(self, p: int, y: int) -> None:
        self._stores_on.setdefault(p, []).append(y)
        self.metrics.constraints += 1
        self._replay(p)

    def _ingest_link_copy(self, dst: str, src: str) -> None:
        """A funcptr-link constraint arriving mid-solve, by name."""
        universe = self.universe
        if not universe.may_point(dst) or not universe.may_point(src):
            return
        self._add_edge(universe.intern(src), universe.intern(dst))

    def _replay(self, p: int) -> None:
        """A new complex constraint on ``p``: replay its current targets."""
        mask = self._pts.get(p, 0)
        if mask:
            self._delta[p] = self._delta.get(p, 0) | mask
            self._enqueue(p)

    def _add_edge(self, src: int, dst: int) -> bool:
        mask = self._succ.get(src, 0)
        bit = 1 << dst
        if mask & bit:
            return False
        self._succ[src] = mask | bit
        self.metrics.edges_added += 1
        current = self._pts.get(src, 0)
        if current:
            self._add_pts(dst, current)
        return True

    def _add_pts(self, node: int, mask: int) -> None:
        mine = self._pts.get(node, 0)
        new = mask & ~mine
        if not new:
            return
        self._pts[node] = mine | new
        self._delta[node] = self._delta.get(node, 0) | new
        self._enqueue(node)

    def _enqueue(self, node: int) -> None:
        if node not in self._queued:
            self._queued.add(node)
            self._worklist.append(node)

    # -- solving ------------------------------------------------------------

    def solve(self) -> PointsToResult:
        self.solve_partial()
        return self.finish_partial()

    def solve_partial(self) -> None:
        """Drain the worklist to a fixpoint; resumable."""
        if not self._started:
            self._started = True
            self._emit_begin()
            self._seed()
            self._collect_funcptrs()

        universe = self.universe
        target_name = universe.target_name
        while self._worklist:
            self.metrics.rounds += 1
            if not self.metrics.rounds & self._ROUND_EVENT_MASK:
                self._emit_round()  # one event per pop batch
            node = self._worklist.popleft()
            self._queued.discard(node)
            delta = self._delta.pop(node, 0)
            if not delta:
                continue
            # Propagate along inclusion edges (transitive closure step).
            # bits() is inlined here: the generator's frame overhead is
            # measurable on this, the hottest loop in the solver.
            succ_mask = self._succ.get(node, 0)
            add_pts = self._add_pts
            while succ_mask:
                low = succ_mask & -succ_mask
                add_pts(low.bit_length() - 1, delta)
                succ_mask ^= low
            # Complex constraints watching this pointer.
            loads = self._loads_on.get(node)
            stores = self._stores_on.get(node)
            if loads or stores:
                target_nodes = [
                    self._target_node(z) for z in bits(delta)
                ]
                for x in loads or ():
                    for z in target_nodes:
                        self._add_edge(z, x)
                for y in stores or ():
                    for z in target_nodes:
                        self._add_edge(y, z)
            # Function pointers gaining callees.
            if node in self._funcptr_ids:
                new_funcs = delta & universe.function_mask
                if new_funcs:
                    callees = [target_name(b) for b in bits(new_funcs)]
                    pointer = universe.name_of(node)
                    for dst, src in self._linker.link(pointer, callees):
                        self.metrics.funcptr_links += 1
                        self._ingest_link_copy(dst, src)

        self._emit_round()  # the final (possibly partial) pop batch

    def ingest_fact_masks(self, masks: dict[str, int]) -> None:
        intern = self.universe.intern
        for pointer, mask in masks.items():
            self._add_pts(intern(pointer), mask)

    def finish_partial(self) -> PointsToResult:
        self.store.discard(self.metrics.constraints)
        return self._result()

    def _target_node(self, t: int) -> int:
        """Node id of a target-space id (same name, other id space)."""
        node = self._target_nodes.get(t)
        if node is None:
            node = self.universe.intern(self.universe.target_name(t))
            self._target_nodes[t] = node
        return node

    def _collect_funcptrs(self) -> None:
        self._scan_functions()
        # Intern every funcptr up front so late-flowing pointers are
        # recognised when they pop; replay already-known targets.
        for name in self._funcptrs:
            fp = self.universe.intern(name)
            self._funcptr_ids.add(fp)
            self._replay(fp)

    def _result(self) -> PointsToResult:
        name_of = self.universe.name_of
        masks = {}
        for node, mask in self._pts.items():
            name = name_of(node)
            if not name.startswith("$sl"):
                masks[name] = mask
        return self._finalize_masks(masks)


def solve(store: ConstraintStore) -> PointsToResult:
    return TransitiveSolver(store).solve()
