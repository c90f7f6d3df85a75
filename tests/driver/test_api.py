"""Tests for the high-level pipeline API."""

import pickle

import pytest

from repro.driver.api import (
    CompileOptions,
    Project,
    analyze_database,
    build_project_from_dir,
    compile_source,
    compile_to_object,
    link_objects,
)


class TestCompileSource:
    def test_basic(self):
        ir = compile_source("int x, *p; void f(void) { p = &x; }", "a.c")
        assert len(ir.assignments) == 1
        assert ir.source_lines == 1

    def test_include_dirs_option(self, tmp_path):
        (tmp_path / "inc").mkdir()
        (tmp_path / "inc" / "defs.h").write_text("#define WIDTH 4\n")
        options = CompileOptions(include_dirs=[str(tmp_path / "inc")])
        ir = compile_source(
            '#include "defs.h"\nint arr[WIDTH];', "a.c", options
        )
        assert "arr" in ir.objects

    def test_predefined_macros(self):
        options = CompileOptions(predefined={"FEATURE": "1"})
        ir = compile_source(
            "#if FEATURE\nint on;\n#else\nint off;\n#endif", "a.c", options
        )
        assert "on" in ir.objects
        assert "off" not in ir.objects

    def test_field_independent_option(self):
        src = "struct S { int *f; } s; int *p; void g(void) { p = s.f; }"
        fb = compile_source(src, "a.c")
        fi = compile_source(src, "a.c", CompileOptions(field_based=False))
        assert any(a.src == "S.f" for a in fb.assignments)
        assert any(a.src == "s" for a in fi.assignments)


class TestCompileOptionsPickle:
    def test_round_trip_preserves_fields(self):
        options = CompileOptions(
            include_dirs=["/usr/include"],
            predefined={"FEATURE": "1"},
            field_based=False,
        )
        clone = pickle.loads(pickle.dumps(options))
        assert clone.include_dirs == options.include_dirs
        assert clone.predefined == options.predefined
        assert clone.field_based is False

    def test_memoized_resolver_is_dropped(self, tmp_path):
        (tmp_path / "defs.h").write_text("#define WIDTH 4\n")
        options = CompileOptions(include_dirs=[str(tmp_path)])
        options.resolver()  # memoize _resolver before pickling
        assert "_resolver" in vars(options)
        state = options.__getstate__()
        assert "_resolver" not in state
        clone = pickle.loads(pickle.dumps(options))
        assert "_resolver" not in vars(clone)
        # The clone rebuilds its resolver on demand and still compiles.
        ir = compile_source('#include "defs.h"\nint arr[WIDTH];',
                            "a.c", clone)
        assert "arr" in ir.objects


class TestProject:
    def test_quickstart(self):
        project = Project()
        project.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        assert project.points_to().points_to("p") == {"x"}

    def test_multi_file_with_cross_includes(self):
        project = Project()
        project.add_header("shared.h", "extern int g2; extern int *gp;")
        project.add_source("a.c", '#include "shared.h"\n'
                                  "int g2; int *gp;"
                                  "void f(void) { gp = &g2; }")
        project.add_source("b.c", '#include "shared.h"\n'
                                  "int *local;"
                                  "void h(void) { local = gp; }")
        result = project.points_to()
        assert result.points_to("local") == {"g2"}

    def test_sources_can_include_each_other(self):
        project = Project()
        project.add_source("impl.c", "int deep; int *dp;"
                                     "void f(void) { dp = &deep; }")
        result = project.points_to()
        assert result.points_to("dp") == {"deep"}

    def test_points_to_cached(self):
        project = Project()
        project.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        assert project.points_to() is project.points_to()

    def test_adding_source_invalidates_cache(self):
        project = Project()
        project.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        first = project.points_to()
        project.add_source("b.c", "extern int *p; int y;"
                                  "void g(void) { p = &y; }")
        second = project.points_to()
        assert first is not second
        assert second.points_to("p") == {"x", "y"}

    def test_solver_selection(self):
        project = Project()
        project.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        for solver in ("pretransitive", "transitive", "steensgaard"):
            assert project.points_to(solver).points_to("p") == {"x"}

    def test_unknown_solver(self):
        project = Project()
        project.add_source("a.c", "int x;")
        with pytest.raises(ValueError, match="unknown solver"):
            project.points_to("magic")

    def test_dependence_query(self):
        project = Project()
        project.add_source("a.c", """
        void f(void) { short t2, a, b; a = t2; b = a; }
        """)
        result = project.dependence("t2")
        deps = {n.rsplit("::")[-1] for n, d in result.dependents.items()
                if d.parent is not None}
        assert deps == {"a", "b"}

    def test_dependence_unknown_target(self):
        project = Project()
        project.add_source("a.c", "int x;")
        with pytest.raises(KeyError):
            project.dependence("ghost")

    def test_write_executable(self, tmp_path):
        project = Project()
        project.add_source("a.c", "int x, *p; void f(void) { p = &x; }")
        path = str(tmp_path / "prog.cla")
        project.write_executable(path)
        result = analyze_database(path)
        assert result.points_to("p") == {"x"}


class TestDiskPipeline:
    def test_compile_link_analyze(self, tmp_path):
        src_a = tmp_path / "a.c"
        src_a.write_text("int x, *p; void f(void) { p = &x; }")
        src_b = tmp_path / "b.c"
        src_b.write_text("extern int *p; int *q; void g(void) { q = p; }")
        obj_a = str(tmp_path / "a.o")
        obj_b = str(tmp_path / "b.o")
        compile_to_object(str(src_a), obj_a)
        compile_to_object(str(src_b), obj_b)
        out = str(tmp_path / "prog.cla")
        link_objects([obj_a, obj_b], out)
        result = analyze_database(out)
        assert result.points_to("q") == {"x"}

    def test_analyze_database_solver_choice(self, tmp_path):
        src = tmp_path / "a.c"
        src.write_text("int x, *p; void f(void) { p = &x; }")
        obj = str(tmp_path / "a.o")
        compile_to_object(str(src), obj)
        out = str(tmp_path / "prog.cla")
        link_objects([obj], out)
        for solver in ("pretransitive", "steensgaard"):
            assert analyze_database(out, solver).points_to("p") == {"x"}

    def test_build_project_from_dir(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "defs.h").write_text("extern int shared;")
        (tmp_path / "a.c").write_text(
            '#include "defs.h"\nint shared; int *p;'
            "void f(void) { p = &shared; }"
        )
        (tmp_path / "sub" / "b.c").write_text(
            "extern int *p; int *q; void g(void) { q = p; }"
        )
        project = build_project_from_dir(str(tmp_path))
        result = project.points_to()
        assert result.points_to("q") == {"shared"}
