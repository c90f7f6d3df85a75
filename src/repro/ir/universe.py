"""The interned integer object universe (ROADMAP item 2).

The paper's "million lines in a second" rests on a compact solver
substrate: objects are dense integer ids, graphs are packed adjacency, and
points-to sets are bit vectors.  This module is that substrate, shared by
all four solvers:

* :class:`ObjectUniverse` — interns canonical names to dense int ids at
  ingest.  Two id spaces exist because they have different densities:

  - the **node space** (``intern``/``name_of``) covers every name that
    participates in pointer flow — graph nodes, worklist keys, CSR rows;
  - the **target space** (``target_id``/``target_name``) covers only
    address-taken objects (the ``&y`` of some ``x = &y``) — every element
    of every points-to set enters through an ADDR edge, so bit *positions*
    in points-to masks come from this much denser space.

  Both are stable within a run and round-trip (``name <-> id``).

* **Bitset points-to sets** — a set of target ids is one arbitrary-
  precision ``int``; union/merge/subset are word-parallel ``|``/``&``/
  ``& ~`` instead of per-element frozenset operations, and cardinality is
  one ``int.bit_count()``.  :func:`bits`, :func:`mask_of` and
  :func:`bitset_words` are the shared helpers.

* :class:`CSRGraph` — packed CSR-style adjacency (``array('I')`` offsets +
  targets) for the ingested copy graph, built once in ``BaseSolver``
  ingestion and walked without per-edge tuple allocation.

The universe also owns the relevance test (``may_point``) and the decode
cache used by the lazy result mapping, so identical final masks decode to
one shared frozenset (§5's common-set table, now keyed by ints).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Iterable, Iterator

from ..engine.obs import REGISTRY
from .objects import ProgramObject
from .primitives import PrimitiveKind

#: Word size used for the ``solver.bitset.words`` accounting.  Python ints
#: are chunked in 30-bit digits internally; 32 is the reporting convention
#: (what a C bit-vector implementation would allocate).
WORD_BITS = 32

#: Entry budget for the per-universe decode cache.  Masks are full
#: points-to sets, so an unbounded cache retains every distinct set a
#: long-lived run ever decodes; the bound makes memory proportional to the
#: working set instead of run length.
DECODE_CACHE_ENTRIES = 4096

_DECODE_HITS = REGISTRY.counter("solver.decode_cache.hits")
_DECODE_MISSES = REGISTRY.counter("solver.decode_cache.misses")
_DECODE_EVICTIONS = REGISTRY.counter("solver.decode_cache.evictions")


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` (lowest first)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    """The bitmask with exactly the given bit positions set."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def bitset_words(mask: int, word_bits: int = WORD_BITS) -> int:
    """Words a chunked bit-vector of this mask's width would occupy."""
    return (mask.bit_length() + word_bits - 1) // word_bits


class CSRGraph:
    """Packed adjacency: ``row(i)`` is ``targets[offsets[i]:offsets[i+1]]``.

    Built once from an edge list by counting sort; both arrays are
    ``array('I')``, so a million-edge graph is two flat 4MB buffers rather
    than a dict of Python sets.
    """

    __slots__ = ("offsets", "targets")

    def __init__(self, offsets: array, targets: array):
        self.offsets = offsets
        self.targets = targets

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "CSRGraph":
        """Build from ``(src, dst)`` edges over node ids ``0..n-1``.

        Duplicate edges are dropped (first occurrence wins, so per-source
        order is preserved): linking duplicate-inclined units repeats
        COPY rows, and a repeated edge would both
        inflate ``edge_count``/``degree`` and retry the same propagation
        every round.
        """
        counts = [0] * (n + 1)
        seen: set[tuple[int, int]] = set()
        edge_list = []
        for pair in pairs:
            if pair not in seen:
                seen.add(pair)
                edge_list.append(pair)
        for src, _dst in edge_list:
            counts[src + 1] += 1
        for i in range(1, n + 1):
            counts[i] += counts[i - 1]
        offsets = array("I", counts)
        targets = array("I", bytes(4 * len(edge_list)))
        cursor = list(offsets[:n])
        for src, dst in edge_list:
            targets[cursor[src]] = dst
            cursor[src] += 1
        return cls(offsets, targets)

    def row(self, i: int) -> array:
        """The successor ids of node ``i`` (a packed slice)."""
        return self.targets[self.offsets[i]:self.offsets[i + 1]]

    def degree(self, i: int) -> int:
        return self.offsets[i + 1] - self.offsets[i]

    @property
    def node_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        return len(self.targets)


class ConstraintBatch:
    """A constraint set interned to id space, in ingestion order.

    One row per *relevant* assignment (the §6 may-point filter applies at
    intake): ``kinds[i]`` is the :class:`PrimitiveKind` value,
    ``dsts[i]``/``srcs[i]`` are node-space ids — except ADDR rows, whose
    ``srcs[i]`` is a *target-space* id (the address-taken object is a
    points-to bit position).  Row order preserves the original ingestion
    order, so order-sensitive consumers (unification ranks, worklist
    seeding) behave exactly as string-keyed ingestion did.  All three
    columns are packed ``array`` buffers: a million-assignment database is
    ~9MB of flat rows instead of a million boxed objects.
    """

    __slots__ = ("universe", "kinds", "dsts", "srcs")

    def __init__(self, universe: "ObjectUniverse"):
        self.universe = universe
        self.kinds = array("B")
        self.dsts = array("I")
        self.srcs = array("I")

    def __len__(self) -> int:
        return len(self.kinds)

    def absorb(self, assignments) -> None:
        """Intern a run of ``PrimitiveAssignment``s into id-space rows.

        This is the single choke point where string names are touched;
        every later pass over the rows is integer-only.  Re-absorbing a
        name already seen is one dict hit — no double-interning.
        """
        universe = self.universe
        may_point = universe.may_point
        intern = universe.intern
        target_id = universe.target_id
        kinds, dsts, srcs = self.kinds, self.dsts, self.srcs
        addr = PrimitiveKind.ADDR
        # ``kinds.append(a.kind)`` narrows the IntEnum through __index__ in
        # C — no Python-level int() call on this per-assignment path.
        for a in assignments:
            dst = a.dst
            if not may_point(dst):
                continue
            kind = a.kind
            src = a.src
            if kind is addr:
                kinds.append(kind)
                dsts.append(intern(dst))
                srcs.append(target_id(src))
            elif may_point(src):
                kinds.append(kind)
                dsts.append(intern(dst))
                srcs.append(intern(src))

    def rows(self):
        """Iterate ``(kind_value, dst_id, src_id)`` rows in order."""
        return zip(self.kinds, self.dsts, self.srcs)

    def copy_csr(self) -> CSRGraph:
        """Packed CSR adjacency of the COPY rows (``src -> dst`` edges)."""
        copy = int(PrimitiveKind.COPY)
        pairs = [
            (src, dst)
            for kind, dst, src in self.rows()
            if kind == copy
        ]
        return CSRGraph.from_pairs(len(self.universe), pairs)


class ObjectUniverse:
    """Dense-id interning of the program-object universe for one solve.

    Ids are assigned in first-seen order, so they are stable within a run;
    ``name_of``/``target_name`` are the exact inverse tables.  The
    relevance test caches ``ProgramObject.may_point`` per name, with the
    pre-transitive solver's synthetic-name convention: deref placeholders
    (``*p``) and store/load split temps (``$sl..``) always participate.
    """

    __slots__ = (
        "store", "_ids", "names", "_target_ids", "target_names",
        "_may_point", "_decode_cache", "_decode_cache_entries",
        "_function_names", "function_mask", "_temp_counter",
    )

    def __init__(self, store=None,
                 decode_cache_entries: int = DECODE_CACHE_ENTRIES):
        self.store = store
        # node space
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        # target (points-to bit position) space
        self._target_ids: dict[str, int] = {}
        self.target_names: list[str] = []
        self._may_point: dict[str, bool] = {}
        #: LRU over decoded masks, bounded like BlockCache: the budget is
        #: an entry count, eviction is oldest-first before insert.
        self._decode_cache: OrderedDict[int, frozenset[str]] = OrderedDict()
        self._decode_cache_entries = max(1, decode_cache_entries)
        self._function_names: set[str] = set()
        self.function_mask = 0
        self._temp_counter = 0

    # -- node space ------------------------------------------------------

    def intern(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = len(self.names)
            self._ids[name] = i
            self.names.append(name)
        return i

    def id_of(self, name: str) -> int | None:
        """The node id of an already-interned name (None if never seen)."""
        return self._ids.get(name)

    def name_of(self, i: int) -> str:
        return self.names[i]

    def fresh_temp_name(self, prefix: str = "$sl") -> str:
        """A fresh synthetic temp *name* (store/load split temps, §5)."""
        self._temp_counter += 1
        return f"{prefix}{self._temp_counter}"

    def fresh_temp(self, prefix: str = "$sl") -> int:
        """A fresh synthetic node (interned :meth:`fresh_temp_name`)."""
        return self.intern(self.fresh_temp_name(prefix))

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    # -- target space ----------------------------------------------------

    def target_id(self, name: str) -> int:
        t = self._target_ids.get(name)
        if t is None:
            t = len(self.target_names)
            self._target_ids[name] = t
            self.target_names.append(name)
            if name in self._function_names:
                self.function_mask |= 1 << t
        return t

    def target_id_of(self, name: str) -> int | None:
        return self._target_ids.get(name)

    def target_name(self, t: int) -> str:
        return self.target_names[t]

    @property
    def target_count(self) -> int:
        return len(self.target_names)

    def note_functions(self, names: Iterable[str]) -> None:
        """Mark function objects so ``function_mask`` tracks their target
        bits (used by the §4 funcptr-linking loops to test ``delta &
        function_mask`` instead of per-element membership checks)."""
        for name in names:
            if name not in self._function_names:
                self._function_names.add(name)
                t = self._target_ids.get(name)
                if t is not None:
                    self.function_mask |= 1 << t

    # -- bitset decode ---------------------------------------------------

    def decode(self, mask: int) -> frozenset[str]:
        """Target-space mask -> frozenset of canonical names.

        Identical masks share one frozenset (interning keeps result
        mappings with many equal sets cheap to materialise and compare).
        """
        cache = self._decode_cache
        cached = cache.get(mask)
        if cached is None:
            _DECODE_MISSES.add()
            while len(cache) >= self._decode_cache_entries:
                cache.popitem(last=False)
                _DECODE_EVICTIONS.add()
            names = self.target_names
            cached = frozenset(names[b] for b in bits(mask))
            cache[mask] = cached
        else:
            _DECODE_HITS.add()
            cache.move_to_end(mask)
        return cached

    # -- relevance -------------------------------------------------------

    def may_point(self, name: str) -> bool:
        """Can this object's value carry pointers?  (§6: non-pointer value
        flow is irrelevant to aliasing.)  Cached per name."""
        hit = self._may_point.get(name)
        if hit is None:
            if name.startswith("*") or name.startswith("$sl"):
                hit = True  # synthetic nodes always participate
            else:
                obj: ProgramObject | None = (
                    self.store.get_object(name) if self.store is not None
                    else None
                )
                hit = obj is None or obj.may_point
            self._may_point[name] = hit
        return hit
