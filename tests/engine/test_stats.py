"""SolverStats: the uniform per-solver stats record (ISSUE tentpole).

The contract under test: all four solvers fill the *same* schema through
the shared hook in ``repro.solvers.base``, the Table 3 load-accounting
columns read from the stats record are identical to the store's own
accounting, and the legacy ``.metrics`` attribute name keeps working.
"""

import pytest

from repro.cla.store import MemoryStore
from repro.driver.api import CompileOptions, Project, compile_source
from repro.engine.obs import MetricsRegistry
from repro.engine.stats import SolverStats
from repro.solvers import SOLVERS
from repro.solvers.base import BaseSolver

FIXTURE = """
int x, y, z;
int *p, *q, **pp;
int f(int a) { return a; }
int g(int a) { return a + 1; }
int (*fp)(int);
void main_like(void) {
    p = &x;
    q = p;
    pp = &p;
    *pp = &y;
    z = (*pp == q);
    fp = f;
    fp = g;
    z = fp(z);
}
"""


def fresh_store() -> MemoryStore:
    unit = compile_source(FIXTURE, filename="fixture.c",
                          options=CompileOptions())
    return MemoryStore(unit)


@pytest.fixture(params=sorted(SOLVERS))
def solver_name(request):
    return request.param


class TestUniformStats:
    def test_every_solver_populates_the_shared_record(self, solver_name):
        store = fresh_store()
        solver = SOLVERS[solver_name](store)
        result = solver.solve()
        stats = result.stats
        assert isinstance(solver, BaseSolver)
        assert isinstance(stats, SolverStats)
        assert stats.solver == solver_name == result.solver
        # The load-accounting snapshot is filled for every solver.
        assert stats.assignments_in_file == store.stats.in_file > 0
        assert stats.assignments_loaded == store.stats.loaded > 0
        assert stats.assignments_in_core == store.stats.in_core
        assert stats.blocks_loaded == store.stats.blocks_loaded > 0

    def test_stats_schema_is_identical_across_solvers(self):
        keys = set()
        for name, cls in SOLVERS.items():
            result = cls(fresh_store()).solve()
            fields = result.stats.counter_fields()
            assert all(isinstance(v, int) for v in fields.values())
            keys.add(tuple(sorted(fields)))
        assert len(keys) == 1  # one schema, not one per solver

    def test_solver_and_result_share_one_record(self, solver_name):
        store = fresh_store()
        solver = SOLVERS[solver_name](store)
        result = solver.solve()
        assert solver.stats is solver.metrics  # legacy attribute name
        assert result.stats is result.metrics is solver.stats

    def test_table3_columns_match_store_accounting(self, solver_name):
        store = fresh_store()
        result = SOLVERS[solver_name](store).solve()
        assert result.stats.table3_columns() == store.stats.snapshot()

    def test_pretransitive_cache_counters(self):
        store = fresh_store()
        solver = SOLVERS["pretransitive"](store)
        result = solver.solve()
        stats = result.stats
        assert stats.lval_queries == stats.cache_hits + stats.cache_misses
        assert stats.cache_misses > 0
        assert stats.lvals_cached > 0
        assert stats.rounds >= 1

    def test_funcptr_links_counted(self, solver_name):
        result = SOLVERS[solver_name](fresh_store()).solve()
        assert result.stats.funcptr_links > 0  # fp = f; fp = g


class TestStatsRecord:
    def test_iterations_alias(self):
        stats = SolverStats(rounds=7)
        assert stats.iterations == 7

    def test_as_dict_and_counter_fields(self):
        stats = SolverStats(solver="x", rounds=2, edges_added=3)
        d = stats.as_dict()
        assert d["solver"] == "x" and d["rounds"] == 2
        assert "solver" not in stats.counter_fields()

    def test_publish_accumulates_nonzero_counters(self):
        reg = MetricsRegistry()
        SolverStats(solver="t", rounds=2, edges_added=5).publish(reg)
        SolverStats(solver="t", rounds=1).publish(reg)
        snap = reg.snapshot()
        assert snap["solver.rounds"] == 3
        assert snap["solver.edges_added"] == 5
        assert "solver.cache_hits" not in snap  # zero: never published

    def test_render_names_the_solver(self):
        line = SolverStats(solver="pretransitive", rounds=3).render()
        assert line.startswith("stats[pretransitive]:")
        assert "rounds=3" in line and "in_core/loaded/in_file=" in line


class TestTable3Parity:
    """The refactor must not change what Table 3 reports."""

    def test_database_store_parity_demand_and_full(self, tmp_path):
        from repro.engine.pipeline import Pipeline

        project = Project()
        project.add_source("fixture.c", FIXTURE)
        path = str(tmp_path / "prog.cla")
        project.write_executable(path)
        pipeline = Pipeline()
        for kwargs in ({}, {"demand_load": False}):
            store = pipeline.open_database(path)
            try:
                result = SOLVERS["pretransitive"](store, **kwargs).solve()
                assert result.stats.table3_columns() == (
                    store.stats.in_core,
                    store.stats.loaded,
                    store.stats.in_file,
                )
                assert result.stats.assignments_in_file > 0
            finally:
                store.close()

    def test_table3_rows_read_from_stats_layer(self):
        # The bench path itself: the three accounting columns must be the
        # stats record's numbers, and ordered in_core <= loaded <= in_file.
        from repro.driver import tables

        headers, rows = tables.table3_rows(scale=0.02,
                                           profiles=["nethack"])
        i = headers.index("in core")
        in_core, loaded, in_file = (int(rows[0][i]), int(rows[0][i + 1]),
                                    int(rows[0][i + 2]))
        assert in_core <= loaded <= in_file
        assert in_file > 0
