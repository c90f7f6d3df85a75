"""The streamed ``huge`` tier (synth.stream): chunking, prefixing,
and one closed flow region (at least) per chunk."""

import re

import pytest

from repro.checker import check_result
from repro.solvers import PreTransitiveSolver, plan_regions
from repro.synth import generate, stream_program


def test_stream_reaches_target_and_counts_chunks():
    seen = []
    run = stream_program(
        "nethack", target_lines=6000, chunk_scale=0.05,
        on_chunk=lambda chunk, total: seen.append((chunk, total)),
    )
    assert run.source_lines >= 6000
    assert run.chunks == len(seen) >= 2
    assert seen[-1] == (run.chunks, run.source_lines)
    assert run.units > run.chunks  # several files per chunk
    assert run.assignments == run.store.stats.in_file > 0


def test_stream_rejects_bad_target():
    with pytest.raises(ValueError):
        stream_program("nethack", target_lines=0)


def test_chunks_are_prefixed_and_disjoint():
    """Chunk k's names all carry the ``u<k>_`` prefix, so streamed units
    can never collide at link time — and no flow region spans two
    chunks."""
    run = stream_program("nethack", target_lines=6000, chunk_scale=0.05)
    plan = plan_regions(run.store)
    assert plan.regions >= run.chunks
    chunks_of: dict[str, set[str]] = {}
    for name in plan.uf.parent:
        prefix = re.search(r"u\d+_", name)
        assert prefix is not None, name
        chunks_of.setdefault(plan.region_of(name), set()).add(prefix[0])
    assert all(len(chunks) == 1 for chunks in chunks_of.values())

    sequential = PreTransitiveSolver(run.store).solve()
    assert any(sequential.pts.values())  # the store resolved pointers
    report = check_result(run.store, sequential)
    assert report.ok, report.render()


def test_stream_matches_materialized_chunk():
    """The first streamed chunk's constraints equal compiling the same
    prefixed program by hand — streaming changes residency, not IR."""
    run = stream_program("nethack", target_lines=1, chunk_scale=0.05,
                         seed=42)
    program = generate("nethack", scale=0.05, seed=42, name_prefix="u0_")
    assert run.chunks == 1
    assert run.source_lines == program.source_lines()
    materialized = program.project().units()
    assert run.units == len(materialized)
    assert run.assignments == sum(len(u.assignments) for u in materialized)
