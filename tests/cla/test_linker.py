"""Tests for the link phase: merging object files on disk."""

import pytest

from repro.cfront import parse_c
from repro.cla.linker import LinkError, link_object_files, link_units
from repro.cla.reader import DatabaseStore, ObjectFileReader
from repro.cla.writer import write_unit
from repro.ir import lower_translation_unit


def compile_to(tmp_path, filename, src, field_based=True):
    unit = lower_translation_unit(
        parse_c(src, filename=filename), field_based=field_based
    )
    path = str(tmp_path / (filename + ".o"))
    write_unit(unit, path, field_based=field_based)
    return path


class TestLinking:
    def test_two_files_merge_globals(self, tmp_path):
        a = compile_to(tmp_path, "a.c",
                       "int shared; void f(void) { shared = 1; }")
        b = compile_to(tmp_path, "b.c",
                       "extern int shared; int *p;"
                       "void g(void) { p = &shared; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with ObjectFileReader(out) as r:
            assert r.linked
            assert len(r.find_targets("shared")) == 1
            assert r.find_object("p") is not None

    def test_statics_concatenate(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int x, *p; void f(void){ p = &x; }")
        b = compile_to(tmp_path, "b.c", "int y, *q; void g(void){ q = &y; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with ObjectFileReader(out) as r:
            statics = {str(s) for s in r.static_assignments()}
            assert statics == {"p = &x", "q = &y"}

    def test_cross_file_blocks_merge(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int g2; int u; void f(void){ u = g2; }")
        b = compile_to(tmp_path, "b.c",
                       "extern int g2; int v; void h(void){ v = g2; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with ObjectFileReader(out) as r:
            block = r.load_block("g2")
            assert {x.dst for x in block.assignments} == {"u", "v"}

    def test_file_statics_stay_distinct(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "static int priv; "
                                        "void f(void){ priv = 1; }")
        b = compile_to(tmp_path, "b.c", "static int priv; "
                                        "void g(void){ priv = 2; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with ObjectFileReader(out) as r:
            assert sorted(r.find_targets("priv")) == ["a.c::priv", "b.c::priv"]

    def test_function_record_from_defining_file(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        b = compile_to(tmp_path, "b.c",
                       "int work(int); void f(void) { work(3); }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)
        with ObjectFileReader(out) as r:
            record = r.load_block("work").function_record
            assert record is not None
            assert record.args == ["work$arg1"]

    def test_source_lines_sum(self, tmp_path):
        unit_a = lower_translation_unit(
            parse_c("int a;\nint b;\n", filename="a.c"),
            )
        unit_a.source_lines = 2
        path_a = str(tmp_path / "a.o")
        write_unit(unit_a, path_a)
        unit_b = lower_translation_unit(parse_c("int c;\n", filename="b.c"))
        unit_b.source_lines = 1
        path_b = str(tmp_path / "b.o")
        write_unit(unit_b, path_b)
        out = str(tmp_path / "prog.cla")
        link_object_files([path_a, path_b], out)
        with ObjectFileReader(out) as r:
            assert r.source_lines == 3

    def test_mixed_field_models_rejected(self, tmp_path):
        a = compile_to(tmp_path, "a.c", "int x;", field_based=True)
        b = compile_to(tmp_path, "b.c", "int y;", field_based=False)
        with pytest.raises(LinkError):
            link_object_files([a, b], str(tmp_path / "prog.cla"))

    def test_no_inputs_rejected(self, tmp_path):
        with pytest.raises(LinkError):
            link_object_files([], str(tmp_path / "prog.cla"))

    def test_link_units_shortcut(self, tmp_path):
        units = [
            lower_translation_unit(parse_c("int x, *p; "
                                           "void f(void){ p = &x; }",
                                           filename="a.c")),
        ]
        out = str(tmp_path / "prog.cla")
        link_units(units, out)
        store = DatabaseStore.open(out)
        assert store.stats.in_file == 1
        store.close()

    def test_linked_database_analyzes_identically(self, tmp_path):
        """End-to-end: disk pipeline == in-memory pipeline."""
        from repro.cla.store import MemoryStore
        from repro.solvers import PreTransitiveSolver

        src_a = "int x, *p; void f(void) { p = &x; }"
        src_b = ("extern int *p; int **pp, *q;"
                 "void g(void) { pp = &p; q = *pp; }")
        a = compile_to(tmp_path, "a.c", src_a)
        b = compile_to(tmp_path, "b.c", src_b)
        out = str(tmp_path / "prog.cla")
        link_object_files([a, b], out)

        disk = DatabaseStore.open(out)
        disk_result = PreTransitiveSolver(disk).solve()

        units = [
            lower_translation_unit(parse_c(src_a, filename="a.c")),
            lower_translation_unit(parse_c(src_b, filename="b.c")),
        ]
        mem_result = PreTransitiveSolver(MemoryStore(units)).solve()

        for name in set(disk_result.pts) | set(mem_result.pts):
            assert disk_result.points_to(name) == mem_result.points_to(name)
        assert disk_result.points_to("q") == {"x"}
        assert disk_result.points_to("pp") == {"p"}
        disk.close()


class TestDuplicateFunctionRecords:
    def test_conflicting_definitions_rejected(self, tmp_path):
        """Two object files each defining ``work`` used to merge silently,
        last record winning; now that is a link error."""
        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        b = compile_to(tmp_path, "b.c", "int work(int n, int m) { return m; }")
        with pytest.raises(LinkError) as exc:
            link_object_files([a, b], str(tmp_path / "prog.cla"))
        message = str(exc.value)
        assert "work" in message
        assert "a.c" in message and "b.c" in message

    def test_same_definition_twice_keeps_first(self, tmp_path):
        """The same object file linked twice is not a conflict: the
        records are identical, so the first is kept."""
        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        out = str(tmp_path / "prog.cla")
        link_object_files([a, a], out)
        with ObjectFileReader(out) as r:
            record = r.load_block("work").function_record
            assert record is not None
            assert record.args == ["work$arg1"]

    def test_declaration_plus_definition_still_links(self, tmp_path):
        """A declaration-only unit carries no function record; linking it
        with the defining unit is untouched by the conflict check."""
        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        b = compile_to(tmp_path, "b.c",
                       "int work(int); void f(void) { work(3); }")
        out = str(tmp_path / "prog.cla")
        link_object_files([b, a], out)  # definition last: must not "win"
        with ObjectFileReader(out) as r:
            record = r.load_block("work").function_record
            assert record is not None
            assert "a.c" in record.location.brief()


class TestLinkUnitsSourceLines:
    def test_link_units_sums_source_lines(self, tmp_path):
        """Regression pin: the in-memory link shortcut must report the
        same source-line total as the object-file route."""
        unit_a = lower_translation_unit(
            parse_c("int a;\nint b;\n", filename="a.c"))
        unit_a.source_lines = 2
        unit_b = lower_translation_unit(parse_c("int c;\n", filename="b.c"))
        unit_b.source_lines = 3
        out = str(tmp_path / "prog.cla")
        link_units([unit_a, unit_b], out)
        with ObjectFileReader(out) as r:
            assert r.source_lines == 5


def _fields(store, name):
    obj = store.get_object(name)
    return (obj.kind, obj.type_str, obj.location.brief(), obj.may_point,
            obj.is_funcptr)


class TestInMemoryLink:
    """``link_sections`` builds the database ``link_object_files`` writes,
    from decoded sections that stay reusable."""

    SOURCES = {
        "a.c": ("int *g(int *x); int *q, **pp; void (*fp)(void);"
                "void f(void) { q = g(q); pp = &q; }"),
        "b.c": ("extern void (*fp)(void); extern int **pp; int t, *r;"
                "int *g(int *x) { return &t; } void h(void) { fp(); "
                "r = *pp; }"),
    }

    def _objects(self, tmp_path):
        return [compile_to(tmp_path, name, src)
                for name, src in sorted(self.SOURCES.items())]

    def test_memory_link_equals_disk_link(self, tmp_path):
        from repro.cla.linker import UnitSection, link_sections
        from repro.cla.store import (
            constraint_signature,
            merge_unit_signatures,
            simple_name_of,
        )

        paths = self._objects(tmp_path)
        out = str(tmp_path / "prog.cla")
        link_object_files(paths, out)
        sections = [UnitSection(p) for p in paths]
        memory = link_sections(sections)
        with DatabaseStore.open(out) as disk:
            assert constraint_signature(memory) == constraint_signature(disk)
            assert merge_unit_signatures(
                s.signature for s in sections
            ) == constraint_signature(disk)
            assert set(memory.object_names()) == set(disk.object_names())
            for name in disk.object_names():
                assert _fields(memory, name) == _fields(disk, name), name
                simple = simple_name_of(name)
                assert sorted(memory.find_targets(simple)) == \
                    sorted(disk.find_targets(simple))
            assert memory.stats.in_file == disk.stats.in_file
            for name in disk.block_names():
                mine, theirs = memory.fetch_block(name), disk.fetch_block(name)
                assert [str(a) for a in mine.assignments] == \
                    [str(a) for a in theirs.assignments]
                assert mine.function_record == theirs.function_record
                assert mine.indirect_record == theirs.indirect_record
            assert memory.call_sites() == disk.call_sites()

    def test_sections_survive_repeated_links(self, tmp_path):
        from repro.cla.linker import UnitSection, link_sections

        sections = [UnitSection(p) for p in self._objects(tmp_path)]

        def snapshot():
            return [
                ({o.name: (o.location, o.type_str, o.may_point,
                           o.is_funcptr) for o in s.objects},
                 {n: len(b.assignments) for n, b in s.blocks.items()},
                 len(s.statics), len(s.call_sites))
                for s in sections
            ]

        before = snapshot()
        first = link_sections(sections)
        second = link_sections(sections)
        assert snapshot() == before
        # b.c's definition and funcptr use reach the merged objects only.
        for store in (first, second):
            assert store.get_object("g$arg1").type_str == "int *"
            assert store.get_object("fp").is_funcptr
        assert before[0][0]["g$arg1"][1] == ""
        assert before[0][0]["fp"][3] is False

    def test_memory_link_rejects_what_disk_link_rejects(self, tmp_path):
        from repro.cla.linker import UnitSection, link_sections

        a = compile_to(tmp_path, "a.c", "int work(int n) { return n; }")
        b = compile_to(tmp_path, "b.c", "int work(int n, int m) { return m; }")
        with pytest.raises(LinkError, match="duplicate definition"):
            link_sections([UnitSection(a), UnitSection(b)])
        c = compile_to(tmp_path, "c.c", "int y;", field_based=False)
        with pytest.raises(LinkError, match="struct model"):
            link_sections([UnitSection(a), UnitSection(c)])
        with pytest.raises(LinkError):
            link_sections([])

    def test_section_cache_keeps_only_live_keys(self, tmp_path):
        from repro.cla.linker import SectionCache

        a, b = self._objects(tmp_path)
        cache = SectionCache()
        first = cache.sections([("ka", a), ("kb", b)])
        again = cache.sections([("ka", a), ("kb", b)])
        assert [s is t for s, t in zip(first, again)] == [True, True]
        (only_a,) = cache.sections([("ka", a)])
        assert only_a is first[0]
        last = cache.sections([("ka", a), ("kb", b)])
        assert last[0] is first[0]
        assert last[1] is not first[1], "a dropped key decodes again"
