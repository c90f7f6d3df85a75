"""Region-scoped retraction (``solve_retracted``) and its partition
(``plan_regions``).

The contract: after any constraint delta, re-solving only the regions a
changed fact touches — keeping every clean region's masks verbatim —
yields the *same* fixpoint as a cold solve of the new store, for every
solver.  This suite pins that bit-identity on the synthetic profiles,
checks the partition invariants retraction relies on, and exercises the
``retract_names`` seam directly.
"""

import pytest

from repro.checker import check_result
from repro.cla.store import MemoryStore, constraint_signature, diff_signatures
from repro.ir.primitives import PrimitiveKind
from repro.solvers import SOLVERS, plan_regions, solve_retracted
from repro.synth import generate

SCALE = 0.02

_UNITS: dict[str, list] = {}


def units(profile: str):
    if profile not in _UNITS:
        _UNITS[profile] = generate(
            profile, scale=SCALE, seed=7
        ).project().units()
    return _UNITS[profile]


def nonempty(result) -> dict:
    return {name: pts for name, pts in result.pts.items() if pts}


def retract_reference(old_units, new_units, solver):
    """Run the full retraction path: old solve → delta → retracted
    re-solve of the new store; returns (retracted, cold, info)."""
    old_store = MemoryStore(list(old_units))
    prev = SOLVERS[solver](old_store).solve()
    new_store = MemoryStore(list(new_units))
    delta = diff_signatures(
        constraint_signature(old_store), constraint_signature(new_store)
    )
    result, info = solve_retracted(
        new_store, solver, prev, delta.touched_names()
    )
    cold = SOLVERS[solver](MemoryStore(list(new_units))).solve()
    return result, cold, info


class TestPlanRegions:
    def test_rows_partition_exactly(self):
        for profile in ("nethack", "gcc", "lucent"):
            store = MemoryStore(units(profile))
            plan = plan_regions(store)
            assert plan.total_rows == sum(plan.region_weight.values())
            assert plan.regions == len(plan.region_weight) > 0
            expected_rows = len(store.static_assignments()) + sum(
                len(store.load_block(name).assignments)
                for name in store.block_names()
            )
            assert plan.total_rows == expected_rows
            # Every block lands in exactly one region, and every static
            # row in exactly one region's statics.
            seen = set()
            for blocks in plan.region_blocks.values():
                for name in blocks:
                    assert name not in seen
                    seen.add(name)
            assert seen == set(store.block_names())
            assert sum(
                len(rows) for rows in plan.region_statics.values()
            ) == len(store.static_assignments())

    def test_target_pool_matches_addr_order(self):
        """The target pool is exactly the ADDR sources, store order,
        first occurrence — the numbering the retraction merge
        pre-interns so kept masks pass through untranslated."""
        store = MemoryStore(units("nethack"))
        plan = plan_regions(store)
        seen: list[str] = []
        rows = list(store.static_assignments())
        for name in store.block_names():
            rows.extend(store.load_block(name).assignments)
        for a in rows:
            if a.kind is PrimitiveKind.ADDR and a.src not in seen:
                seen.append(a.src)
        assert list(plan.target_pool) == seen

    def test_region_of_is_read_only(self):
        store = MemoryStore(units("nethack"))
        plan = plan_regions(store)
        before = len(plan.uf.parent)
        assert plan.region_of("no-such-name-anywhere") is None
        assert len(plan.uf.parent) == before, "lookup must not intern"
        some_name = next(iter(plan.uf.parent))
        root = plan.region_of(some_name)
        assert root in plan.region_weight


class TestRetractBitIdentity:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_unit_removal(self, solver):
        old = units("nethack")
        assert len(old) > 1
        result, cold, info = retract_reference(old, old[:-1], solver)
        assert nonempty(result) == nonempty(cold), solver
        assert info["dirty_regions"] <= info["regions"]

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_unit_replacement(self, solver):
        old = units("burlap")
        new = units("burlap")[:-1] + units("vortex")[-1:]
        result, cold, info = retract_reference(old, new, solver)
        assert nonempty(result) == nonempty(cold), solver

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_result_passes_oracle(self, solver):
        old = units("vortex")
        new_units = old[:-1]
        result, _cold, _info = retract_reference(old, new_units, solver)
        report = check_result(
            MemoryStore(list(new_units)), result,
            check_minimal=SOLVERS[solver].precision == "andersen",
        )
        assert report.ok, report.render()

    def test_identical_stores_resolve_nothing(self):
        old = units("nethack")
        result, cold, info = retract_reference(old, old, "pretransitive")
        assert info["dirty_regions"] == 0
        assert info["resolved_rows"] == 0
        assert info["kept_names"] > 0
        assert nonempty(result) == nonempty(cold)


class TestRetractNamesSeam:
    def test_drops_only_named_masks(self):
        store = MemoryStore(units("nethack"))
        result = SOLVERS["pretransitive"](store).solve()
        masks = result.pts.masks()
        victim = next(iter(masks))
        kept = result.retract_names({victim})
        assert victim not in kept
        assert len(kept) == len(masks) - 1
        for name, mask in kept.items():
            assert masks[name] == mask

    def test_requires_mask_backed_result(self):
        from repro.solvers.base import PointsToResult

        plain = PointsToResult(solver="x", pts={"p": frozenset({"t"})})
        with pytest.raises(TypeError):
            plain.retract_names({"p"})
