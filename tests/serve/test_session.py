"""Tests for :class:`ServeSession`: warm queries, the generation-keyed
query cache, incremental updates, and error envelopes."""

import pytest

from repro.cla.store import constraint_signature
from repro.engine.events import EVENTS, MemorySink
from repro.serve import ServeSession

from .conftest import SOURCE_B, SOURCE_B_GROWN, SOURCE_B_SHRUNK, make_workspace


class TestQueries:
    def test_points_to(self, session):
        r = session.request("points-to", {"name": "mine"})
        assert r["ok"] and not r["cache_hit"]
        assert r["result"]["points_to"] == {"mine": ["shared"]}

    def test_unknown_name_is_empty_not_error(self, session):
        r = session.request("points-to", {"name": "nosuch"})
        assert r["ok"]
        assert r["result"]["resolved"] == []
        assert r["result"]["points_to"] == {}

    def test_alias(self, session):
        r = session.request("alias", {"a": "mine", "b": "gp"})
        assert r["ok"]
        assert r["result"]["may_alias"] is True
        assert r["result"]["witness"] == ["shared"]
        r = session.request("alias", {"a": "mine", "b": "shared"})
        assert r["result"]["may_alias"] is False

    def test_chain(self, workspace):
        # *gp = v makes v's value flow into shared: a real dependence.
        workspace.update_source(
            "b.c", '#include "defs.h"\nint v, *mine;'
                   "void use(void) { mine = gp; *gp = v; }"
        )
        with ServeSession(workspace=workspace) as session:
            r = session.request("chain", {"target": "v"})
            assert r["ok"]
            assert r["result"]["dependents"] >= 1
            assert r["result"]["chains"]

    def test_chain_unknown_target_is_client_error(self, session):
        r = session.request("chain", {"target": "nosuch"})
        assert not r["ok"]
        assert "nosuch" in r["error"]

    def test_chain_rejects_bad_strength(self, session):
        r = session.request("chain", {"target": "shared",
                                      "min_strength": "bogus"})
        assert not r["ok"] and "min_strength" in r["error"]

    def test_ping_and_stats(self, session):
        assert session.request("ping")["result"]["pong"] is True
        stats = session.request("stats")["result"]
        assert stats["mode"] == "workspace"
        assert stats["solver"] == "pretransitive"
        assert stats["reloads"]["cold"] == 1

    def test_unknown_op(self, session):
        r = session.request("frobnicate")
        assert not r["ok"] and "unknown op" in r["error"]

    def test_missing_param(self, session):
        r = session.request("points-to", {})
        assert not r["ok"] and "name" in r["error"]

    def test_latency_counters_track_every_request(self, session):
        session.request("points-to", {"name": "mine"})
        session.request("points-to", {"name": "mine"})
        session.request("frobnicate")
        stats = session.request("stats")["result"]
        pt = stats["queries"]["points-to"]
        assert pt["count"] == 2
        assert pt["cache_hits"] == 1
        assert pt["mean_ms"] >= 0.0
        assert stats["queries"]["frobnicate"]["errors"] == 1


class TestQueryCacheSemantics:
    def test_second_identical_query_hits(self, session):
        r1 = session.request("points-to", {"name": "mine"})
        r2 = session.request("points-to", {"name": "mine"})
        assert not r1["cache_hit"] and r2["cache_hit"]
        assert r1["result"] == r2["result"]

    def test_param_order_is_canonical(self, session):
        session.request("alias", {"a": "mine", "b": "gp"})
        r = session.request("alias", {"b": "gp", "a": "mine"})
        assert r["cache_hit"]

    def test_update_invalidates(self, session):
        r1 = session.request("points-to", {"name": "extra"})
        assert r1["result"]["points_to"] == {}
        u = session.request("update", {"file": "b.c",
                                       "text": SOURCE_B_GROWN})
        assert u["ok"]
        r2 = session.request("points-to", {"name": "extra"})
        assert not r2["cache_hit"], "stale entry served across generations"
        assert r2["result"]["points_to"] == {"extra": ["shared"]}
        assert session.request("points-to",
                               {"name": "extra"})["cache_hit"]

    def test_failed_update_keeps_serving_old_generation(self, session):
        session.request("points-to", {"name": "mine"})
        before = session.generation
        u = session.request("update", {"file": "b.c", "text": "int bad("})
        assert not u["ok"] and "b.c" in u["error"]
        assert session.generation == before
        r = session.request("points-to", {"name": "mine"})
        assert r["cache_hit"], "old generation's cache should still serve"
        assert r["result"]["points_to"] == {"mine": ["shared"]}
        # healthz and stats both report the failure while still serving.
        health = session.health()
        assert health["status"] == "ok"
        assert health["generation"] == before
        failure = health["last_failure"]
        assert failure is not None
        assert failure["generation"] == before
        assert "b.c" in failure["error"]
        assert failure["age_s"] >= 0.0
        stats = session.request("stats")["result"]
        assert stats["reloads"]["failed"] == 1
        assert "b.c" in stats["last_failure"]["error"]
        # Fixing the file recovers; the failure record stays on display.
        u = session.request("update", {"file": "b.c", "text": SOURCE_B})
        assert u["ok"]
        assert session.generation == before + 1
        assert session.health()["last_update"]["generation"] == before + 1

    def test_mutating_ops_are_never_cached(self, session):
        session.request("reload", {})
        r = session.request("reload", {})
        assert not r["cache_hit"]


class TestUpdates:
    def test_additive_update_resolves_warm(self, session):
        u = session.request("update", {"file": "b.c",
                                       "text": SOURCE_B_GROWN})
        assert u["result"]["mode"] == "warm"
        assert u["result"]["compiled"] == 1
        assert u["result"]["reused"] == 1
        assert u["result"]["certified"] is True

    def test_shrinking_update_resolves_via_retraction(self, session):
        u = session.request("update", {"file": "b.c",
                                       "text": SOURCE_B_SHRUNK})
        assert u["result"]["mode"] == "retract"
        assert u["result"]["certified"] is True
        retract = u["result"]["retract"]
        assert retract["dirty_regions"] <= retract["regions"]
        assert retract["resolved_rows"] <= retract["total_rows"]
        # mine's flow is gone: nothing resolves, nothing points anywhere.
        r = session.request("points-to", {"name": "mine"})
        assert all(not v for v in r["result"]["points_to"].values())
        stats = session.request("stats")["result"]
        assert stats["reloads"]["retract"] == 1

    def test_updates_hit_the_header_caches(self, session, workspace):
        resolver = workspace.options.resolver()
        for text in (SOURCE_B_GROWN, SOURCE_B_GROWN + " int *later;"):
            u = session.request("update", {"file": "b.c", "text": text})
            assert u["result"]["compiled"] == 1
        # The first in-process recompile fills the caches; the next one
        # neither preprocesses nor parses defs.h again.
        assert resolver.include_cache_hits == 1
        assert resolver.prefix_hits == 1

    def test_new_file_via_update(self, session):
        u = session.request("update", {
            "file": "c.c",
            "text": '#include "defs.h"\nint *late;'
                    "void f(void) { late = gp; }",
        })
        assert u["ok"] and u["result"]["mode"] == "warm"
        r = session.request("points-to", {"name": "late"})
        assert r["result"]["points_to"] == {"late": ["shared"]}

    def test_header_update(self, session):
        u = session.request("update", {
            "file": "defs.h",
            "text": "extern int shared; extern int *gp; extern int more;",
            "kind": "header",
        })
        assert u["ok"]
        assert u["result"]["compiled"] == 2  # header edit re-keys all

    def test_update_rejects_bad_kind(self, session):
        r = session.request("update",
                            {"file": "b.c", "text": "", "kind": "blob"})
        assert not r["ok"] and "kind" in r["error"]


class TestDatabaseMode:
    def test_serves_a_linked_database(self, workspace, tmp_path):
        path = workspace.build()
        with ServeSession(database=path) as session:
            r = session.request("points-to", {"name": "mine"})
            assert r["result"]["points_to"] == {"mine": ["shared"]}
            assert session.request("stats")["result"]["mode"] == "database"

    def test_update_is_a_client_error(self, workspace):
        path = workspace.build()
        with ServeSession(database=path) as session:
            r = session.request("update", {"file": "b.c", "text": "int x;"})
            assert not r["ok"] and "workspace" in r["error"]

    def test_reload_rereads_the_database(self, workspace):
        path = workspace.build()
        with ServeSession(database=path) as session:
            before = session.generation
            r = session.request("reload", {})
            assert r["ok"]
            assert session.generation == before + 1

    def test_constructor_wants_exactly_one_input(self, workspace):
        with pytest.raises(ValueError):
            ServeSession()
        with pytest.raises(ValueError):
            ServeSession(workspace=workspace, database="x.cla")

    def test_constructor_rejects_unknown_solver(self, workspace):
        with pytest.raises(ValueError):
            ServeSession(workspace=workspace, solver="magic")


class TestEvents:
    def test_query_and_reload_events(self, workspace):
        with EVENTS.sink(MemorySink()) as sink:
            with ServeSession(workspace=workspace) as session:
                session.request("points-to", {"name": "mine"})
                session.request("points-to", {"name": "mine"})
                session.request("update", {"file": "b.c",
                                           "text": SOURCE_B_GROWN})
            reloads = sink.of_kind("serve.reload")
            assert [e.mode for e in reloads] == ["cold", "warm"]
            assert reloads[1].compiled == 1
            queries = sink.of_kind("serve.query")
            ops = [e.op for e in queries]
            assert ops == ["points-to", "points-to", "update"]
            assert [e.cache_hit for e in queries[:2]] == [False, True]
            assert all(e.generation >= 1 for e in queries)

    def test_retract_events_carry_invalidation_scope(self, workspace):
        with EVENTS.sink(MemorySink()) as sink:
            with ServeSession(workspace=workspace) as session:
                session.request("update", {"file": "b.c",
                                           "text": SOURCE_B_SHRUNK})
            reloads = sink.of_kind("serve.reload")
            assert [e.mode for e in reloads] == ["cold", "retract"]
            (retract,) = sink.of_kind("serve.retract")
            assert retract.generation == reloads[-1].generation
            assert retract.solver == "pretransitive"
            assert 0 < retract.dirty_regions <= retract.regions
            assert retract.resolved_rows <= retract.total_rows

    def test_error_queries_are_ledgered(self, workspace):
        with EVENTS.sink(MemorySink()) as sink:
            with ServeSession(workspace=workspace) as session:
                session.request("frobnicate")
            event = sink.of_kind("serve.query")[-1]
            assert event.ok is False


class TestConstraintSignature:
    def test_identical_content_same_signature(self, tmp_path):
        ws1 = make_workspace(tmp_path, "c1")
        ws2 = make_workspace(tmp_path, "c2")
        from repro.engine.pipeline import Pipeline

        pipeline = Pipeline()
        with pipeline.open_database(ws1.build()) as s1, \
                pipeline.open_database(ws2.build()) as s2:
            assert constraint_signature(s1) == constraint_signature(s2)
        ws1.close()
        ws2.close()

    def test_additive_edit_grows_signature(self, tmp_path):
        ws = make_workspace(tmp_path)
        from repro.engine.pipeline import Pipeline

        pipeline = Pipeline()
        with pipeline.open_database(ws.build()) as store:
            old = constraint_signature(store)
        ws.update_source("b.c", SOURCE_B_GROWN)
        with pipeline.open_database(ws.build()) as store:
            new = constraint_signature(store)
        assert old < new
        ws.update_source("b.c", SOURCE_B_SHRUNK)
        with pipeline.open_database(ws.build()) as store:
            shrunk = constraint_signature(store)
        assert not (old <= shrunk)
        ws.close()

    def test_per_unit_merge_matches_store_scan(self, tmp_path):
        """The per-section signatures folded in link order equal the
        scanned signature of the disk-linked database — the equivalence
        the serving layer's store-free signature path rests on — and the
        in-memory link of the same sections scans the same."""
        from repro.cla.linker import SectionCache, link_sections
        from repro.cla.store import merge_unit_signatures
        from repro.engine.pipeline import Pipeline

        ws = make_workspace(tmp_path)
        pipeline = Pipeline()
        cache = SectionCache()
        previous, decoded = [], []
        for edit in (SOURCE_B_GROWN, SOURCE_B_SHRUNK, SOURCE_B, None):
            path = ws.build()
            with pipeline.open_database(path) as store:
                scanned = constraint_signature(store)
            sections = cache.sections(
                (key, obj) for _f, key, obj in ws.object_entries()
            )
            decoded.append(sum(
                all(s is not p for p in previous) for s in sections
            ))
            previous = sections
            merged = merge_unit_signatures(s.signature for s in sections)
            assert merged == scanned
            assert constraint_signature(link_sections(sections)) == scanned
            if edit is not None:
                ws.update_source("b.c", edit)
        # Both units once, then only the edited unit per edit — the undo
        # back to SOURCE_B decodes again: its entry was dropped when dead.
        assert decoded == [2, 1, 1, 1]
        ws.close()


class TestUpdateSignatureScan:
    def test_update_never_scans_serving_store(self, workspace, monkeypatch):
        """An update that edits one unit decodes exactly that unit's
        object file, links in memory and opens no database — even for a
        solver that can never resume warm — and writes no
        ``workspace.cla``."""
        import os

        from repro.cla.reader import DatabaseStore, ObjectFileReader
        from repro.cla.store import MemoryStore

        with ServeSession(workspace=workspace,
                          solver="steensgaard") as session:
            opened, stores = [], []
            reader_init = ObjectFileReader.__init__
            store_init = DatabaseStore.__init__

            def counted_reader(self, path):
                reader_init(self, path)
                opened.append(path)

            def counted_store(self, reader):
                stores.append(reader.path)
                store_init(self, reader)

            monkeypatch.setattr(ObjectFileReader, "__init__", counted_reader)
            monkeypatch.setattr(DatabaseStore, "__init__", counted_store)
            u = session.request("update", {"file": "b.c",
                                           "text": SOURCE_B_GROWN})
            assert u["ok"]
            # Additive delta + non-resumable solver: a plain cold solve.
            assert u["result"]["mode"] == "cold"
            (_a, (_f, _key, b_object)) = workspace.object_entries()
            assert opened == [b_object], "decode only the edited unit"
            assert stores == [], "update opened a database"
            assert isinstance(session._store, MemoryStore)
            assert not os.path.exists(
                os.path.join(workspace.cache_dir, "workspace.cla")
            )


class TestInMemoryLink:
    def test_conflicting_definition_keeps_serving(self, session):
        """A second, different definition of ``init`` fails the memory
        link like the disk link; the previous generation keeps serving
        and the failure is on display."""
        before = session.generation
        u = session.request("update", {
            "file": "c.c",
            "text": '#include "defs.h"\nvoid init(void) { gp = 0; }',
        })
        assert not u["ok"]
        assert "duplicate definition of function 'init'" in u["error"]
        assert session.generation == before
        failure = session.health()["last_failure"]
        assert failure["generation"] == before
        assert failure["error"].startswith("LinkError")
        r = session.request("points-to", {"name": "mine"})
        assert r["ok"] and r["result"]["points_to"] == {"mine": ["shared"]}
        # Removing the duplicate recovers.
        u = session.request("update", {"file": "c.c", "text": ""})
        assert u["ok"] and session.generation == before + 1

    def test_merge_never_mutates_cached_sections(self, tmp_path):
        """a.c only declares ``g`` (its ``g$arg1`` has no type there) and
        defines ``fp``; b.c defines ``g`` and calls through ``fp``.  The
        link merges b.c's metadata into both objects, and a.c's cached
        section must read the same after two links."""
        from repro.driver.incremental import Workspace

        a = ("int *g(int *x); int *q; void (*fp)(void);"
             "void f(void) { q = g(q); }")
        b = ("extern void (*fp)(void); int t;"
             "int *g(int *x) { return &t; } void h(void) { fp(); }")
        ws = Workspace(cache_dir=str(tmp_path / "cache"))
        ws.add_source("a.c", a)
        ws.add_source("b.c", b)

        def fields(section):
            return {o.name: (o.location, o.type_str, o.may_point,
                             o.is_funcptr) for o in section.objects}

        try:
            with ServeSession(workspace=ws, certify=True) as session:
                (_f, a_key, _p), _b = ws.object_entries()
                section = session._sections._by_key[a_key]
                snapshot = fields(section)
                assert snapshot["g$arg1"][1] == ""
                assert snapshot["fp"][3] is False
                for text in (b + " int *more;", b):
                    u = session.request("update",
                                        {"file": "b.c", "text": text})
                    assert u["ok"] and u["result"]["certified"]
                    assert session._sections._by_key[a_key] is section
                    assert fields(section) == snapshot
                    merged = session._store.get_object("g$arg1")
                    assert merged.type_str == "int *"
                    assert session._store.get_object("fp").is_funcptr
        finally:
            ws.close()


class TestTraceRingDisabled:
    def test_zero_disables_both_rings_but_keeps_counts(self, workspace):
        with ServeSession(workspace=workspace, trace_ring=0,
                          slow_query_ms=0.0) as session:
            session.request("points-to", {"name": "mine"})
            session.request("points-to", {"name": "mine"})
            traces = session.request("traces")["result"]
            assert traces["recent"] == []
            assert traces["slow"] == [], "slow log must honour 0 = disabled"
            assert traces["seen"] >= 2
            assert session.health()["queries"] >= 2
