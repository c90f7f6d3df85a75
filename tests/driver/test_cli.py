"""Tests for the repro-cla command-line interface."""

import pytest

from repro.driver.cli import main


@pytest.fixture
def sources(tmp_path):
    a = tmp_path / "a.c"
    a.write_text("int x, *p; void f(void) { p = &x; }\n")
    b = tmp_path / "b.c"
    b.write_text("extern int *p; int *q; short tgt, out;\n"
                 "void g(void) { q = p; out = tgt; }\n")
    return tmp_path, str(a), str(b)


@pytest.fixture
def database(sources):
    tmp_path, a, b = sources
    obj_a, obj_b = str(tmp_path / "a.o"), str(tmp_path / "b.o")
    out = str(tmp_path / "prog.cla")
    assert main(["compile", a, "-o", obj_a]) == 0
    assert main(["compile", b, "-o", obj_b]) == 0
    assert main(["link", obj_a, obj_b, "-o", out]) == 0
    return out


class TestCompileAndLink:
    def test_compile_reports_counts(self, sources, capsys):
        tmp_path, a, _ = sources
        assert main(["compile", a, "-o", str(tmp_path / "a.o")]) == 0
        out = capsys.readouterr().out
        assert "primitive assignments" in out

    def test_compile_with_defines(self, tmp_path, capsys):
        src = tmp_path / "d.c"
        src.write_text("#if FEAT\nint on;\n#endif\n")
        assert main(["compile", str(src), "-o", str(tmp_path / "d.o"),
                     "-D", "FEAT"]) == 0

    def test_compile_field_independent_flag(self, sources, capsys):
        tmp_path, a, _ = sources
        obj = str(tmp_path / "fi.o")
        assert main(["compile", a, "-o", obj, "--field-independent"]) == 0

    def test_link_reports_totals(self, sources, capsys):
        tmp_path, a, b = sources
        obj_a = str(tmp_path / "a.o")
        assert main(["compile", a, "-o", obj_a]) == 0
        out_path = str(tmp_path / "prog.cla")
        assert main(["link", obj_a, "-o", out_path]) == 0
        out = capsys.readouterr().out
        assert "objects" in out


class TestAnalyze:
    def test_analyze_summary(self, database, capsys):
        assert main(["analyze", database]) == 0
        out = capsys.readouterr().out
        assert "solver=pretransitive" in out
        assert "in file" in out

    def test_query(self, database, capsys):
        assert main(["analyze", database, "--query", "q"]) == 0
        out = capsys.readouterr().out
        assert "pts(q) = {x}" in out

    def test_all_solvers(self, database, capsys):
        for solver in ("pretransitive", "transitive", "steensgaard"):
            assert main(["analyze", database, "--solver", solver]) == 0

    def test_top_listing(self, database, capsys):
        assert main(["analyze", database, "--top", "3"]) == 0

    def test_no_demand_flag(self, database, capsys):
        assert main(["analyze", database, "--no-demand"]) == 0

    def test_no_diff_flag(self, database, capsys):
        assert main(["analyze", database, "--no-diff", "--query", "q"]) == 0
        assert "pts(q) = {x}" in capsys.readouterr().out

    def test_stats_include_diff_counters(self, database, capsys):
        assert main(["analyze", database, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "delta_lvals_processed=" in out
        assert "lvals_skipped_by_diff=" in out


class TestCliFailureModes:
    """Every database-opening subcommand fails with a one-line error and
    exit code 2 — never a traceback (the ISSUE's three bugfixes)."""

    def err(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: "), err
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("command", [
        ["analyze"], ["depend", "--target", "x"], ["dump"],
        ["callgraph"],
    ])
    def test_missing_database(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.cla")
        assert main([command[0], missing] + command[1:]) == 2
        assert missing in self.err(capsys)

    def test_truncated_database(self, tmp_path, capsys):
        bad = tmp_path / "bad.cla"
        bad.write_bytes(b"short")
        assert main(["analyze", str(bad)]) == 2
        err = self.err(capsys)
        assert "truncated header" in err and str(bad) in err

    def test_corrupt_database(self, tmp_path, capsys):
        bad = tmp_path / "garbage.cla"
        bad.write_bytes(bytes(range(256)))
        assert main(["analyze", str(bad)]) == 2
        assert "bad magic" in self.err(capsys)

    def test_pretransitive_toggle_rejected_for_other_solver(
            self, database, capsys):
        assert main(["analyze", database, "--solver", "steensgaard",
                     "--no-demand"]) == 2
        err = self.err(capsys)
        assert "--no-demand" in err and "steensgaard" in err

    def test_diff_toggle_rejected_for_other_solver(self, database, capsys):
        assert main(["analyze", database, "--solver", "transitive",
                     "--no-diff", "--no-cache"]) == 2
        err = self.err(capsys)
        assert "--no-diff" in err and "--no-cache" in err

    def test_toggles_fine_with_explicit_pretransitive(self, database,
                                                      capsys):
        assert main(["analyze", database, "--solver", "pretransitive",
                     "--no-diff", "--no-cycle-elim"]) == 0


class TestDepend:
    def test_dependence_output(self, database, capsys):
        assert main(["depend", database, "--target", "tgt"]) == 0
        out = capsys.readouterr().out
        assert "dependent objects" in out
        assert "out/short" in out

    def test_missing_target_errors(self, database, capsys):
        assert main(["depend", database, "--target", "nothing"]) == 1

    def test_non_target_flag(self, database, capsys):
        assert main(["depend", database, "--target", "tgt",
                     "--non-target", "out"]) == 0
        out = capsys.readouterr().out
        assert "0 dependent objects" in out


class TestDump:
    def test_sections_listed(self, database, capsys):
        assert main(["dump", database]) == 0
        out = capsys.readouterr().out
        for section in ("strtab", "global", "static", "target", "dynamic",
                        "dynidx"):
            assert section in out

    def test_statics_dump(self, database, capsys):
        assert main(["dump", database, "--statics"]) == 0
        assert "p = &x" in capsys.readouterr().out

    def test_block_dump(self, database, capsys):
        assert main(["dump", database, "--block", "p"]) == 0
        assert "q = p" in capsys.readouterr().out

    def test_missing_block(self, database, capsys):
        assert main(["dump", database, "--block", "ghost"]) == 1


class TestSynthAndBench:
    def test_synth_writes_files(self, tmp_path, capsys):
        out_dir = str(tmp_path / "gen")
        assert main(["synth", "nethack", "-o", out_dir,
                     "--scale", "0.02"]) == 0
        assert (tmp_path / "gen" / "synth.h").exists()

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Strong" in out and "Weak" in out

    def test_bench_table4_single_profile(self, capsys):
        assert main(["bench", "table4", "--profile", "nethack",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "nethack" in out
        assert "rel ratio" in out

    def test_bench_solvers_single_profile(self, capsys):
        assert main(["bench", "solvers", "--profile", "nethack",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "steensgaard:utime" in out


class TestDependReports:
    def test_tree_flag(self, database, capsys):
        assert main(["depend", database, "--target", "tgt", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "[target]" in out
        assert "`--" in out

    def test_json_to_stdout(self, database, capsys):
        import json

        assert main(["depend", database, "--target", "tgt",
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        data = json.loads(payload)
        assert data["targets"] == ["tgt"]

    def test_csv_to_file(self, database, tmp_path, capsys):
        out_file = str(tmp_path / "deps.csv")
        assert main(["depend", database, "--target", "tgt",
                     "--csv", out_file]) == 0
        content = open(out_file).read()
        assert content.startswith("object,")

    def test_struct_model_flag(self, sources, capsys):
        tmp_path, a, _ = sources
        obj = str(tmp_path / "om.o")
        assert main(["compile", a, "-o", obj,
                     "--struct-model", "offset_based"]) == 0


class TestCallgraphCli:
    def test_callgraph_output(self, tmp_path, capsys):
        src = tmp_path / "cg.c"
        src.write_text("""
void leaf(void) { }
void (*h)(void);
void mid(void) { h = leaf; h(); }
void top(void) { mid(); }
void dead(void) { }
""")
        obj, db = str(tmp_path / "cg.o"), str(tmp_path / "cg.cla")
        assert main(["compile", str(src), "-o", obj]) == 0
        assert main(["link", obj, "-o", db]) == 0
        assert main(["callgraph", db, "--roots", "top"]) == 0
        out = capsys.readouterr().out
        assert "mid -> leaf*" in out
        assert "dead: dead" in out

    def test_callgraph_dot(self, tmp_path, capsys):
        src = tmp_path / "cg.c"
        src.write_text("void a(void) {} void b(void) { a(); }")
        obj, db = str(tmp_path / "cg.o"), str(tmp_path / "cg.cla")
        assert main(["compile", str(src), "-o", obj]) == 0
        assert main(["link", obj, "-o", db]) == 0
        dot = str(tmp_path / "cg.dot")
        assert main(["callgraph", db, "--dot", dot]) == 0
        assert "digraph callgraph" in open(dot).read()


class TestAnalyzeJson:
    def test_json_output(self, database, tmp_path, capsys):
        import json

        out = str(tmp_path / "pts.json")
        assert main(["analyze", database, "--json", out]) == 0
        data = json.loads(open(out).read())
        assert data["solver"] == "pretransitive"
        assert data["points_to"]["p"] == ["x"]
        assert data["points_to"]["q"] == ["x"]
        assert data["assignments"]["in_file"] >= data["assignments"]["loaded"] or True
        assert data["pointer_variables"] >= 2


class TestCheckCli:
    def test_check_sources_clean(self, sources, capsys):
        _tmp, a, b = sources
        assert main(["check", a, b]) == 0
        out = capsys.readouterr().out
        assert "pretransitive:" in out
        assert "0 violation(s)" in out

    def test_check_all_solvers(self, sources, capsys):
        _tmp, a, b = sources
        assert main(["check", a, b, "--all-solvers"]) == 0
        out = capsys.readouterr().out
        for solver in ("pretransitive", "transitive", "steensgaard",
                       "onelevel"):
            assert f"{solver}:" in out

    def test_check_database_with_minimality(self, database, capsys):
        assert main(["check", database, "--minimal"]) == 0

    def test_minimality_skipped_for_unification(self, database, capsys):
        assert main(["check", database, "--solver", "steensgaard",
                     "--minimal"]) == 0
        out = capsys.readouterr().out
        assert "skipping minimality" in out

    def test_violation_exits_one(self, sources, capsys, monkeypatch):
        from repro.solvers import PreTransitiveSolver

        original = PreTransitiveSolver._add_edge

        def buggy(self, src, dst):
            if not getattr(self, "_dropped_one", False):
                self._dropped_one = True
                return False
            return original(self, src, dst)

        monkeypatch.setattr(PreTransitiveSolver, "_add_edge", buggy)
        _tmp, a, b = sources
        assert main(["check", a, b]) == 1
        out = capsys.readouterr().out
        assert "violation" in out

    def test_mixed_inputs_rejected(self, sources, database, capsys):
        _tmp, a, _b = sources
        assert main(["check", a, database]) == 2

    def test_events_written(self, sources, tmp_path, capsys):
        _tmp, a, b = sources
        events = str(tmp_path / "check-events.jsonl")
        assert main(["check", a, b, "--events", events]) == 0
        assert '"solver.begin"' in open(events).read()


class TestFuzzCli:
    def test_clean_campaign(self, tmp_path, capsys):
        out_dir = str(tmp_path / "repros")
        assert main(["fuzz", "--seed", "7", "--iterations", "2",
                     "--max-units", "2", "--scale", "0.005",
                     "--profile", "burlap", "--out", out_dir]) == 0
        out = capsys.readouterr().out
        assert "2/2 programs" in out
        assert "no oracle violations" in out

    def test_unknown_profile_rejected(self, capsys):
        assert main(["fuzz", "--profile", "nope"]) == 2

    def test_failure_exits_one_with_repro(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.solvers import PreTransitiveSolver

        original = PreTransitiveSolver._add_edge

        def buggy(self, src, dst):
            if not getattr(self, "_dropped_one", False):
                self._dropped_one = True
                return False
            return original(self, src, dst)

        monkeypatch.setattr(PreTransitiveSolver, "_add_edge", buggy)
        out_dir = str(tmp_path / "repros")
        assert main(["fuzz", "--seed", "20260806", "--iterations", "16",
                     "--max-units", "2", "--out", out_dir]) == 1
        err = capsys.readouterr().err
        assert "FAILURE at iteration" in err
        assert "repro written to" in err
