"""Tests for the interned integer object universe (the solver core's
id spaces, bitset helpers, and CSR adjacency), plus an end-to-end
checker-oracle pass proving every solver stays sound on top of it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker import check_result
from repro.ir.primitives import PrimitiveAssignment, PrimitiveKind
from repro.ir.universe import (
    WORD_BITS,
    CSRGraph,
    ConstraintBatch,
    ObjectUniverse,
    bits,
    bitset_words,
    mask_of,
)
from repro.solvers import SOLVERS, PreTransitiveSolver
from repro.synth.kernels import diff_propagation_kernel

names = st.text(
    alphabet="abcxyz_$<>:.0123456789*",
    min_size=1,
    max_size=24,
)

id_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=40)


# -- id spaces -------------------------------------------------------------


class TestNodeSpace:
    def test_ids_are_dense_and_first_seen_ordered(self):
        u = ObjectUniverse()
        assert u.intern("a") == 0
        assert u.intern("b") == 1
        assert u.intern("a") == 0  # re-intern is a lookup, not a new id
        assert len(u) == 2

    def test_name_round_trip(self):
        u = ObjectUniverse()
        for name in ["p", "*p", "a.c::f::x", "$sl1"]:
            assert u.name_of(u.intern(name)) == name

    def test_id_of_unseen_is_none(self):
        u = ObjectUniverse()
        assert u.id_of("ghost") is None
        u.intern("ghost")
        assert u.id_of("ghost") == 0
        assert "ghost" in u

    def test_fresh_temps_are_distinct_nodes(self):
        u = ObjectUniverse()
        t1, t2 = u.fresh_temp(), u.fresh_temp()
        assert t1 != t2
        assert u.name_of(t1).startswith("$sl")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(names, max_size=30))
    def test_intern_round_trip_property(self, batch):
        """intern -> name_of is the identity, and re-interning any name
        gives back the same id (stability within a run)."""
        u = ObjectUniverse()
        first = {name: u.intern(name) for name in batch}
        for name, i in first.items():
            assert u.name_of(i) == name
            assert u.intern(name) == i
            assert u.id_of(name) == i
        # Dense: ids are exactly 0..len-1.
        assert sorted(set(first.values())) == list(range(len(u)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(names, max_size=30))
    def test_target_space_round_trip_property(self, batch):
        u = ObjectUniverse()
        first = {name: u.target_id(name) for name in batch}
        for name, t in first.items():
            assert u.target_name(t) == name
            assert u.target_id(name) == t
            assert u.target_id_of(name) == t
        assert u.target_count == len(set(batch))

    def test_spaces_are_independent(self):
        """The same name can hold different ids in the two spaces — the
        target space is denser, so positions diverge immediately."""
        u = ObjectUniverse()
        u.intern("only_node")
        assert u.target_id("only_target") == 0
        assert u.intern("only_target") == 1
        assert u.target_id_of("only_node") is None


class TestFunctionMask:
    def test_note_before_and_after_target_creation(self):
        u = ObjectUniverse()
        f1 = u.target_id("f1")  # target first, noted later
        u.note_functions(["f1", "f2"])
        assert u.function_mask == 1 << f1
        f2 = u.target_id("f2")  # noted first, target later
        assert u.function_mask == (1 << f1) | (1 << f2)

    def test_note_is_idempotent(self):
        u = ObjectUniverse()
        u.note_functions(["f"])
        t = u.target_id("f")
        u.note_functions(["f"])
        assert u.function_mask == 1 << t


# -- bitset helpers vs frozenset algebra -----------------------------------


class TestBitsetAlgebra:
    @settings(max_examples=200, deadline=None)
    @given(id_sets, id_sets)
    def test_mask_ops_match_set_ops(self, a, b):
        """Every mask operation the solvers rely on agrees with the
        frozenset algebra it replaced."""
        ma, mb = mask_of(a), mask_of(b)
        assert set(bits(ma)) == a
        assert set(bits(ma | mb)) == a | b
        assert set(bits(ma & mb)) == a & b
        assert set(bits(ma & ~mb)) == a - b
        assert set(bits(ma ^ mb)) == a ^ b
        assert (ma | mb).bit_count() == len(a | b)
        # subset test, as used by difference propagation
        assert (ma & ~mb == 0) == a.issubset(b)

    @settings(max_examples=100, deadline=None)
    @given(id_sets)
    def test_round_trip(self, a):
        assert mask_of(bits(mask_of(a))) == mask_of(a)

    def test_bits_yields_lowest_first(self):
        assert list(bits(mask_of({9, 1, 4}))) == [1, 4, 9]
        assert list(bits(0)) == []

    def test_bitset_words(self):
        assert bitset_words(0) == 0
        assert bitset_words(1) == 1
        assert bitset_words(1 << (WORD_BITS - 1)) == 1
        assert bitset_words(1 << WORD_BITS) == 2

    def test_decode_caches_shared_frozensets(self):
        u = ObjectUniverse()
        names_ = [u.target_name(u.target_id(n)) for n in ("a", "b", "c")]
        mask = mask_of([0, 2])
        first = u.decode(mask)
        assert first == frozenset({names_[0], names_[2]})
        assert u.decode(mask) is first  # identical masks share one set
        assert u.decode(0) == frozenset()

    def test_decode_cache_is_bounded_lru(self):
        u = ObjectUniverse(decode_cache_entries=2)
        for n in ("a", "b", "c"):
            u.target_id(n)
        first = u.decode(mask_of([0]))
        assert u.decode(mask_of([1])) is not first
        # Touch the first entry so the *second* is the LRU victim.
        assert u.decode(mask_of([0])) is first
        u.decode(mask_of([2]))  # evicts mask_of([1])
        assert len(u._decode_cache) == 2
        assert mask_of([1]) not in u._decode_cache
        assert u.decode(mask_of([0])) is first  # survivor, still shared

    def test_decode_cache_counters(self):
        from repro.engine.obs import REGISTRY
        hits = REGISTRY.counter("solver.decode_cache.hits")
        misses = REGISTRY.counter("solver.decode_cache.misses")
        evictions = REGISTRY.counter("solver.decode_cache.evictions")
        h0, m0, e0 = hits.value, misses.value, evictions.value
        u = ObjectUniverse(decode_cache_entries=1)
        u.target_id("a")
        u.target_id("b")
        u.decode(mask_of([0]))                 # miss
        u.decode(mask_of([0]))                 # hit
        u.decode(mask_of([1]))                 # miss + eviction
        assert hits.value - h0 == 1
        assert misses.value - m0 == 2
        assert evictions.value - e0 == 1


# -- CSR adjacency ---------------------------------------------------------


class TestCSRGraph:
    def test_rows_preserve_per_source_edge_order(self):
        g = CSRGraph.from_pairs(4, [(0, 2), (1, 3), (0, 1), (3, 0)])
        assert list(g.row(0)) == [2, 1]
        assert list(g.row(1)) == [3]
        assert list(g.row(2)) == []
        assert list(g.row(3)) == [0]
        assert g.node_count == 4
        assert g.edge_count == 4
        assert [g.degree(i) for i in range(4)] == [2, 1, 0, 1]

    def test_empty_graph(self):
        g = CSRGraph.from_pairs(0, [])
        assert g.node_count == 0
        assert g.edge_count == 0

    def test_duplicate_edges_are_dropped(self):
        """Regression: linked units repeat COPY rows;
        duplicates must collapse to one edge (first occurrence keeps its
        per-source position) or degree/edge_count inflate and the same
        propagation retries every round."""
        g = CSRGraph.from_pairs(
            3, [(0, 1), (0, 2), (0, 1), (2, 1), (0, 2), (2, 1)]
        )
        assert g.edge_count == 3
        assert list(g.row(0)) == [1, 2]
        assert list(g.row(2)) == [1]
        assert g.degree(0) == 2


class TestConstraintBatch:
    def _assign(self, kind, dst, src):
        return PrimitiveAssignment(kind=kind, dst=dst, src=src)

    def test_addr_srcs_are_target_space(self):
        u = ObjectUniverse()
        batch = ConstraintBatch(u)
        batch.absorb([
            self._assign(PrimitiveKind.ADDR, "p", "x"),
            self._assign(PrimitiveKind.COPY, "q", "p"),
        ])
        rows = list(batch.rows())
        assert len(rows) == 2
        kind, dst, src = rows[0]
        assert kind == int(PrimitiveKind.ADDR)
        assert u.name_of(dst) == "p"
        assert u.target_name(src) == "x"  # target space, not node space
        assert u.id_of("x") is None  # ADDR did not intern a node for x

    def test_copy_csr_covers_exactly_the_copy_rows(self):
        u = ObjectUniverse()
        batch = ConstraintBatch(u)
        batch.absorb([
            self._assign(PrimitiveKind.COPY, "a", "b"),
            self._assign(PrimitiveKind.LOAD, "c", "a"),
            self._assign(PrimitiveKind.COPY, "c", "b"),
        ])
        csr = batch.copy_csr()
        b = u.id_of("b")
        assert csr.edge_count == 2
        assert sorted(u.name_of(d) for d in csr.row(b)) == ["a", "c"]


# -- the oracle gate: every solver, on the shared integer core -------------


@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_all_solvers_sound_on_diff_propagation_ladder(solver_name):
    """Every solver produces a closed (and, for Andersen-precision
    solvers, minimal) model of the diff-propagation ladder when running
    on the interned bitset core."""
    store = diff_propagation_kernel(24)
    cls = SOLVERS[solver_name]
    if cls is PreTransitiveSolver:
        solver = cls(store, demand_load=False)  # the kernel's intended mode
    else:
        solver = cls(store)
    result = solver.solve()
    report = check_result(store, result,
                          check_minimal=cls.precision == "andersen")
    assert report.ok, report.render()
    # The ladder resolves fully: rung i reaches cell a_{i+1} (exactly so
    # under Andersen precision; unification may over-approximate).
    assert "a1" in result.points_to("x0")
    assert "a25" in result.points_to("x24")
    if cls.precision == "andersen":
        assert result.points_to("x0") == frozenset({"a1"})
        assert result.points_to("x24") == frozenset({"a25"})
    # Counters from the shared core are populated.
    assert result.stats.interned_objects > 0
    assert result.stats.interned_targets > 0
    assert result.stats.bitset_words > 0
