"""The resolver's header caches and deterministic object files.

A build worker preprocesses and parses a shared header once and reuses
the work for every later unit (``IncludeResolver.token_cache`` entries'
expansions and the parsed unit-opening prefix).  Every test here holds a
unit compiled through a warm resolver to what a cold one produces: the
same tokens, the same diagnostics, the same object bytes.
"""

import pytest

from repro.cfront import (
    IncludeResolver,
    Preprocessor,
    PreprocessorError,
    SourceFile,
    StructType,
    parse_c,
)
from repro.cla.linker import link_object_files
from repro.cla.writer import write_unit
from repro.driver.incremental import Workspace
from repro.engine.obs import Tracer
from repro.engine.pipeline import (
    AnalysisSession,
    CompileOptions,
    Pipeline,
    compile_source,
    compile_unit_to_path,
)
from repro.synth import generate


def _tokens(text: str, resolver: IncludeResolver, name: str = "u.c"):
    out = Preprocessor(resolver=resolver).preprocess(SourceFile(name, text))
    return [(t.kind, t.value, t.location) for t in out]


def _assert_cached_matches_cold(headers: dict, units: list[str]):
    """Preprocess ``units`` in order through one resolver; each must equal
    a preprocess through a fresh one."""
    warm = IncludeResolver(virtual_files=headers)
    for text in units:
        cold = IncludeResolver(virtual_files=headers)
        assert _tokens(text, warm) == _tokens(text, cold), text


def _object_bytes(unit, path) -> bytes:
    write_unit(unit, str(path))
    with open(path, "rb") as f:
        return f.read()


def _compile_span(tracer: Tracer):
    (span,) = [s for s in tracer.roots if s.name == "compile"]
    return span


class TestIncludeCache:
    def test_nested_include_edit_is_seen(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path / "c"))
        ws.add_header("a.h", '#include "b.h"\nextern int *ap;\n')
        ws.add_header("b.h", "#define TARGET x\n")
        ws.add_source("m.c", '#include "a.h"\nint x, y, *p;\n'
                             "void f(void) { p = &TARGET; }\n")
        assert ws.analyze().points_to("p") == frozenset({"x"})
        ws.update_header("b.h", "#define TARGET y\n")
        ws.build(jobs=1)
        assert ws.stats.compiled == 1
        assert ws.analyze().points_to("p") == frozenset({"y"})
        ws.close()

    def test_define_before_include_changes_output(self):
        headers = {"h.h": "#ifdef WIDE\nextern int *wide;\n#else\n"
                          "extern int narrow;\n#endif\nint after;\n"}
        _assert_cached_matches_cold(headers, [
            '#define WIDE\n#include "h.h"\n',
            '#include "h.h"\n',
            '#define WIDE 2\n#include "h.h"\n',
            '#include "h.h"\n',
        ])

    def test_pragma_once_at_entry(self):
        headers = {
            "once.h": "#pragma once\nint *op;\n",
            "h.h": '#include "once.h"\nint *hp;\n',
        }
        _assert_cached_matches_cold(headers, [
            '#include "h.h"\n',
            '#include "once.h"\n#include "h.h"\n',
            # The hit on h.h must mark once.h as seen.
            '#include "h.h"\n#include "once.h"\n',
        ])

    def test_include_guard_at_entry(self):
        headers = {"g.h": "#ifndef G_H\n#define G_H\nint *gp;\n#endif\n"}
        _assert_cached_matches_cold(headers, [
            '#include "g.h"\n#include "g.h"\n',
            '#define G_H\n#include "g.h"\n',
            # The hit on g.h must define G_H for the second include.
            '#include "g.h"\n#include "g.h"\nint tail;\n',
        ])

    def test_include_depth_limit_holds_on_a_hit(self):
        # deep.h nests five levels; c1.h..c60.h lead to it 61 deep, so
        # there its innermost header would sit past MAX_INCLUDE_DEPTH.
        headers = {"deep.h": '#include "n1.h"\n', "n5.h": "int leaf;\n"}
        headers.update({f"n{k}.h": f'#include "n{k + 1}.h"\n'
                        for k in range(1, 5)})
        headers.update({f"c{k}.h": f'#include "c{k + 1}.h"\n'
                        for k in range(1, 60)})
        headers["c60.h"] = '#include "deep.h"\n'
        assert Preprocessor.MAX_INCLUDE_DEPTH == 64
        resolver = IncludeResolver(virtual_files=headers)
        _tokens('#include "deep.h"\n', resolver)
        for warm in (resolver, IncludeResolver(virtual_files=headers)):
            with pytest.raises(PreprocessorError, match="too deeply"):
                _tokens('#include "c1.h"\n', warm)

    def test_hits_are_counted(self):
        resolver = IncludeResolver(virtual_files={"h.h": "int *hp;\n"})
        for _ in range(3):
            _tokens('#include "h.h"\n', resolver)
        assert resolver.include_cache_hits == 2
        assert sorted(resolver.token_cache) == ["h.h"]


class TestPrefixReuse:
    HEADER = (
        "typedef struct { int *p; } T;\n"
        "enum mode { OFF, ON = 4 };\n"
        "struct node { struct node *next; int *val; };\n"
        "typedef int (*fn_t)(int *);\n"
        "extern T shared;\n"
        "int table[ON];\n"
    )
    UNITS = {
        "a.c": '#include "h.h"\nint x; struct node n;\n'
               "void f(void) { shared.p = &x; n.val = shared.p; }\n",
        "b.c": '#include "h.h"\nint *q; fn_t cb; T local;\n'
               "void g(void) { q = shared.p; local = shared; }\n",
    }

    def _compare(self, headers, units, tmp_path, tolerant=False):
        files = {**headers, **units}
        warm = CompileOptions(virtual_files=files, tolerant=tolerant)
        for name, text in units.items():
            cold = CompileOptions(virtual_files=files, tolerant=tolerant)
            assert _object_bytes(
                compile_source(text, name, warm), tmp_path / "w.o"
            ) == _object_bytes(
                compile_source(text, name, cold), tmp_path / "c.o"
            ), name
        return warm.resolver()

    def test_prefix_hit_matches_full_parse(self, tmp_path):
        resolver = self._compare({"h.h": self.HEADER}, self.UNITS, tmp_path)
        assert resolver.prefix_hits == 1

    def test_resumed_parse_keeps_file_scope(self):
        resolver = IncludeResolver(virtual_files={"h.h": self.HEADER})
        first = parse_c(self.UNITS["a.c"], "a.c", resolver=resolver)
        second = parse_c(self.UNITS["b.c"], "b.c", resolver=resolver)
        assert resolver.prefix_hits == 1
        cold = parse_c(self.UNITS["b.c"], "b.c",
                       resolver=IncludeResolver(
                           virtual_files={"h.h": self.HEADER}))
        assert [d.name for d in second.items] == \
            [d.name for d in cold.items]
        # The resumed parse reuses the header's declaration objects.
        assert second.items[0] is first.items[0]
        assert [str(d.type) for d in second.items] == \
            [str(d.type) for d in cold.items]

    def test_struct_completed_in_unit_is_not_shared(self, tmp_path):
        headers = {"h.h": "struct S;\nextern struct S *gp;\n"}
        units = {
            "a.c": '#include "h.h"\nstruct S { int *f; };\nint x;\n'
                   "void fa(void) { gp->f = &x; }\n",
            "b.c": '#include "h.h"\nstruct S { int *pad; int *g; };\n'
                   "int y, *q;\nvoid fb(void) { gp->g = &y; q = gp->g; }\n",
        }
        resolver = self._compare(headers, units, tmp_path)
        assert resolver.prefix_hits == 0
        session = AnalysisSession(
            options=CompileOptions(virtual_files=dict(headers)))
        for name, text in units.items():
            session.add_source(name, text)
        assert session.points_to().points_to("q") == frozenset({"y"})

    def test_tolerant_diagnostics_match_uncached(self, tmp_path):
        headers = {"h.h": "int *good;\nint @ broken;\nint *also;\n"}
        units = {
            "a.c": '#include "h.h"\nint x;\nvoid f(void) { good = &x; }\n',
            "b.c": '#include "h.h"\nint *q;\nvoid g(void) { q = also; }\n',
        }
        resolver = IncludeResolver(virtual_files=headers)
        for name, text in units.items():
            warm = parse_c(text, name, resolver=resolver, tolerant=True)
            cold = parse_c(text, name, tolerant=True,
                           resolver=IncludeResolver(virtual_files=headers))
            assert warm.diagnostics
            assert [(str(d), d.location) for d in warm.diagnostics] == \
                [(str(d), d.location) for d in cold.diagnostics]
        assert resolver.prefix_hits == 0
        self._compare(headers, units, tmp_path, tolerant=True)

    def test_header_ending_mid_declaration(self, tmp_path):
        headers = {"h.h": "int x; extern int *hp"}
        units = {
            "a.c": '#include "h.h"\n, *ha;\nvoid f(void) { ha = &x; }\n',
            "b.c": '#include "h.h"\n, *hb;\nvoid g(void) { hb = &x; }\n',
        }
        resolver = self._compare(headers, units, tmp_path)
        assert resolver.prefix_hits == 0

    def test_unit_with_code_before_include_parses_fully(self, tmp_path):
        units = {name: "int lead;\n" + text
                 for name, text in self.UNITS.items()}
        resolver = self._compare({"h.h": self.HEADER}, units, tmp_path)
        assert resolver.prefix_hits == 0


class TestAnonymousTags:
    HEADER = "typedef struct { int *p; } T;\nextern T t;\n"
    A = '#include "t.h"\nT t; int x;\nvoid f(void) { t.p = &x; }\n'
    B = '#include "t.h"\nint *q;\nvoid g(void) { q = t.p; }\n'

    def test_recompile_is_byte_identical(self, tmp_path):
        files = {"t.h": self.HEADER}
        first, second = (
            _object_bytes(
                compile_source(self.A, "a.c",
                               CompileOptions(virtual_files=dict(files))),
                tmp_path / f"{k}.o")
            for k in range(2)
        )
        assert first == second

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_header_anonymous_struct_links_across_units(self, tmp_path,
                                                        jobs):
        ws = Workspace(cache_dir=str(tmp_path / "c"))
        ws.add_header("t.h", self.HEADER)
        ws.add_source("a.c", self.A)
        ws.add_source("b.c", self.B)
        ws.build(jobs=jobs)
        assert ws.analyze().points_to("q") == frozenset({"x"})
        ws.close()

    def test_tags_name_their_location(self):
        unit = parse_c(
            "#define PAIR struct { int a; } s1; struct { int b; } s2;\n"
            "PAIR\nstruct { int c; } s3;\n", "m.c")
        tags = [d.type.tag for d in unit.items]
        assert all(isinstance(d.type, StructType) for d in unit.items)
        # One macro expansion: one location, told apart by an ordinal.
        assert tags[0] == "<anonymous-struct@m.c:2:1>"
        assert tags[1] == "<anonymous-struct@m.c:2:1#1>"
        assert tags[2] == "<anonymous-struct@m.c:3:1>"


class TestByteIdentity:
    """Objects and the linked database do not depend on how a build
    shares its header caches."""

    @pytest.mark.parametrize("profile", ["gcc", "lucent", "nethack"])
    def test_jobs_and_fresh_options_agree(self, tmp_path, profile):
        program = generate(profile, scale=0.03, seed=5)
        builds = {}
        for mode in ("jobs1", "jobs2"):
            ws = Workspace(cache_dir=str(tmp_path / mode))
            ws.add_header(program.header_name, program.header)
            for name, text in program.files.items():
                ws.add_source(name, text)
            executable = ws.build(jobs=1 if mode == "jobs1" else 2)
            paths = [entry[2] for entry in ws.object_entries()]
            builds[mode] = [_read(p) for p in paths + [executable]]
            ws.close()
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        files = {program.header_name: program.header, **program.files}
        paths = []
        for name in sorted(program.files):
            path = str(fresh / (name + ".o"))
            compile_unit_to_path(name, program.files[name], path,
                                 CompileOptions(virtual_files=dict(files)))
            paths.append(path)
        executable = str(fresh / "workspace.cla")
        link_object_files(paths, executable)
        builds["fresh"] = [_read(p) for p in paths + [executable]]
        assert builds["jobs1"] == builds["fresh"]
        assert builds["jobs2"] == builds["fresh"]


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class TestCompileSpanCounters:
    SOURCES = {
        f"u{k}.c": f'#include "h.h"\nint *p{k}; void f{k}(void) {{ p{k} = gp; }}\n'
        for k in range(3)
    }

    def _workspace(self, tmp_path, tracer):
        ws = Workspace(cache_dir=str(tmp_path / "c"), tracer=tracer)
        ws.add_header("h.h", "extern int *gp;\n")
        for name, text in self.SOURCES.items():
            ws.add_source(name, text)
        return ws

    def test_sequential_build_counts_every_later_unit(self, tmp_path):
        tracer = Tracer()
        ws = self._workspace(tmp_path, tracer)
        ws.build(jobs=1)
        attrs = _compile_span(tracer).attrs
        assert attrs["include_cache_hits"] == 2
        assert attrs["prefix_hits"] == 2
        ws.close()

    def test_workers_report_their_hits(self, tmp_path):
        tracer = Tracer()
        ws = self._workspace(tmp_path, tracer)
        ws.build(jobs=2)
        attrs = _compile_span(tracer).attrs
        # Three units on two workers: at least one worker compiles two.
        assert 1 <= attrs["include_cache_hits"] <= 2
        assert attrs["prefix_hits"] == attrs["include_cache_hits"]
        ws.close()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pipeline_compile_stage(self, jobs):
        tracer = Tracer()
        session = AnalysisSession(
            options=CompileOptions(virtual_files={"h.h": "extern int *gp;"}),
            tracer=tracer, jobs=jobs)
        for name, text in self.SOURCES.items():
            session.add_source(name, text)
        session.units()
        attrs = _compile_span(tracer).attrs
        assert 3 - jobs <= attrs["include_cache_hits"] <= 2
        assert attrs["prefix_hits"] == attrs["include_cache_hits"]

    def test_compile_files_to_objects(self, tmp_path):
        (tmp_path / "h.h").write_text("extern int *gp;\n")
        paths, outs = [], []
        for name, text in self.SOURCES.items():
            (tmp_path / name).write_text(text)
            paths.append(str(tmp_path / name))
            outs.append(str(tmp_path / (name + ".o")))
        tracer = Tracer()
        Pipeline(tracer=tracer).compile_files_to_objects(paths, outs, jobs=2)
        attrs = _compile_span(tracer).attrs
        assert 1 <= attrs["include_cache_hits"] <= 2
        assert attrs["prefix_hits"] == attrs["include_cache_hits"]
