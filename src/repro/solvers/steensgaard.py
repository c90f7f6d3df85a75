"""Baseline: Steensgaard's unification-based points-to analysis.

§3 contrasts the subset-based approach with the unification-based one [24]:
"an assignment such as x = y invokes a unification of the node for x and
the node for y in the points-to graph ... essentially linear-time
complexity" — faster and less accurate.  §4 notes the CLA infrastructure
was also used "for implementing unification-based points-to analysis";
this module is that implementation.

Each equivalence class of objects (ECR, union-find with path compression)
has at most one *pointee* class.  Assignments unify pointees:

* ``x = &y``  — join(pointee(x), ecr(y)), and record ``y`` as an lval of
  the pointee class (lval tracking keeps the reported points-to sets
  comparable with Andersen's: only address-taken objects are reported).
* ``x = y``   — join(pointee(x), pointee(y))
* ``x = *p``  — join(pointee(x), pointee(pointee(p)))
* ``*p = y``  — join(pointee(pointee(p)), pointee(y))
* ``*p = *q`` — join(pointee(pointee(p)), pointee(pointee(q)))

Simplification vs. Steensgaard's original: pointee classes are created
eagerly (fresh bottom nodes) instead of using conditional joins.  Results
are identical; the worst-case bound degrades from inverse-Ackermann-linear
to the same within a constant factor on realistic inputs, and the
implementation stays a page long.

Representation (the integer core, ROADMAP item 2): ECRs are keyed by
interned node ids and each class's lval set is an int bitmask over the
shared target space, so the ``a.lvals |= b.lvals`` merge in ``join`` is
one word-parallel OR regardless of class size.
"""

from __future__ import annotations

from ..cla.store import ConstraintStore
from ..ir.primitives import PrimitiveKind
from ..ir.universe import bits
from .base import BaseSolver, PointsToResult

_COPY = int(PrimitiveKind.COPY)
_ADDR = int(PrimitiveKind.ADDR)
_STORE = int(PrimitiveKind.STORE)
_LOAD = int(PrimitiveKind.LOAD)


class _Ecr:
    """One union-find equivalence class."""

    __slots__ = ("parent", "rank", "pointee", "lvals")

    def __init__(self):
        self.parent: "_Ecr | None" = None
        self.rank = 0
        self.pointee: "_Ecr | None" = None
        self.lvals = 0  # target-space bitmask of address-taken objects


class SteensgaardSolver(BaseSolver):
    """Unification-based points-to analysis on the CLA database."""

    name = "steensgaard"
    precision = "over"  # unification: sound per-object superset of Andersen

    def __init__(self, store: ConstraintStore):
        super().__init__(store)
        self._ecrs: dict[int, _Ecr] = {}  # node id -> class
        self._target_nodes: dict[int, int] = {}  # target id -> node id

    # -- union-find -----------------------------------------------------------

    def _ecr(self, node: int) -> _Ecr:
        e = self._ecrs.get(node)
        if e is None:
            e = _Ecr()
            self._ecrs[node] = e
        return self._find(e)

    @staticmethod
    def _find(e: _Ecr) -> _Ecr:
        root = e
        while root.parent is not None:
            root = root.parent
        while e.parent is not None:
            e.parent, e = root, e.parent
        return root

    def _pointee(self, e: _Ecr) -> _Ecr:
        e = self._find(e)
        if e.pointee is None:
            e.pointee = _Ecr()
        return self._find(e.pointee)

    def _join(self, a: _Ecr, b: _Ecr) -> _Ecr:
        a, b = self._find(a), self._find(b)
        if a is b:
            return a
        if a.rank < b.rank:
            a, b = b, a
        b.parent = a
        if a.rank == b.rank:
            a.rank += 1
        a.lvals |= b.lvals
        b.lvals = 0
        self.metrics.cycles_collapsed += 1  # unifications, for comparison
        pb, b.pointee = b.pointee, None
        if pb is not None:
            if a.pointee is None:
                a.pointee = pb
            else:
                # Recursive pointee join — iterative to bound stack depth.
                self._join_iterative(a.pointee, pb)
        # The cascade above may have merged ``a`` itself into another class
        # (cyclic types like v = &v): return the live representative, or a
        # caller adding lvals would write to a dead node.
        return self._find(a)

    def _join_iterative(self, x: _Ecr, y: _Ecr) -> None:
        stack = [(x, y)]
        while stack:
            a, b = stack.pop()
            a, b = self._find(a), self._find(b)
            if a is b:
                continue
            if a.rank < b.rank:
                a, b = b, a
            b.parent = a
            if a.rank == b.rank:
                a.rank += 1
            a.lvals |= b.lvals
            b.lvals = 0
            self.metrics.cycles_collapsed += 1
            pb, b.pointee = b.pointee, None
            if pb is not None:
                if a.pointee is None:
                    a.pointee = pb
                else:
                    stack.append((a.pointee, pb))

    # -- constraints -----------------------------------------------------------

    def _target_node(self, t: int) -> int:
        node = self._target_nodes.get(t)
        if node is None:
            node = self.universe.intern(self.universe.target_name(t))
            self._target_nodes[t] = node
        return node

    def _ingest_row(self, kind: int, dst: int, src: int) -> None:
        """One id-space constraint row (``src`` is a target id for ADDR)."""
        if kind == _ADDR:
            p = self._pointee(self._ecr(dst))
            target = self._join(p, self._ecr(self._target_node(src)))
            target.lvals |= 1 << src
        elif kind == _COPY:
            self._join(self._pointee(self._ecr(dst)),
                       self._pointee(self._ecr(src)))
        elif kind == _LOAD:
            p = self._pointee(self._pointee(self._ecr(src)))
            self._join(self._pointee(self._ecr(dst)), p)
        elif kind == _STORE:
            p = self._pointee(self._pointee(self._ecr(dst)))
            self._join(p, self._pointee(self._ecr(src)))
        else:  # STORE_LOAD
            a = self._pointee(self._pointee(self._ecr(dst)))
            b = self._pointee(self._pointee(self._ecr(src)))
            self._join(a, b)
        self.metrics.constraints += 1

    def _ingest_link_copy(self, dst: str, src: str) -> None:
        """A funcptr-link copy constraint arriving mid-solve, by name."""
        universe = self.universe
        if not universe.may_point(dst) or not universe.may_point(src):
            return
        self._ingest_row(_COPY, universe.intern(dst), universe.intern(src))

    # -- solving ---------------------------------------------------------------

    def solve(self) -> PointsToResult:
        self._emit_begin()
        batch = self._ingest_all_ids()
        for kind, dst, src in batch.rows():
            self._ingest_row(kind, dst, src)
        self._scan_functions()

        # Function-pointer linking can reveal new callees (a callee's body
        # stores other function addresses); iterate to a fixpoint.  The
        # number of (pointer, callee) pairs bounds the loop.
        universe = self.universe
        target_name = universe.target_name
        while True:
            self.metrics.rounds += 1
            new_constraints: list[tuple[str, str]] = []
            for fp in self._funcptrs:
                pointee = self._pointee(self._ecr(universe.intern(fp)))
                funcs = pointee.lvals & universe.function_mask
                callees = [target_name(b) for b in bits(funcs)]
                new_constraints.extend(self._linker.link(fp, callees))
            if not new_constraints:
                self._emit_round()
                break
            for dst, src in new_constraints:
                self.metrics.funcptr_links += 1
                self._ingest_link_copy(dst, src)
            self._emit_round()

        self.store.discard(0)  # unification keeps no assignments at all
        return self._result()

    def _result(self) -> PointsToResult:
        name_of = self.universe.name_of
        masks: dict[str, int] = {}
        for node in list(self._ecrs):
            name = name_of(node)
            if name.startswith("$sl"):
                continue
            e = self._find(self._ecrs[node])
            if e.pointee is None:
                masks[name] = 0
                continue
            masks[name] = self._find(e.pointee).lvals
        return self._finalize_masks(masks)


def solve(store: ConstraintStore) -> PointsToResult:
    return SteensgaardSolver(store).solve()
