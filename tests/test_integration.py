"""End-to-end integration tests: realistic multi-file C projects through
the full compile -> object file -> link -> analyze -> depend pipeline.

These are the closest thing to running the deployed Lucent tool (§2): a
small but realistic code base with headers, structs, function pointers,
heap allocation and cross-file flows, exercised through every layer at
once and cross-checked across all four solvers.
"""

import pytest

from repro.cla.reader import DatabaseStore
from repro.depend import DependenceAnalysis, render_chain
from repro.driver.api import (
    Project,
    analyze_database,
    link_objects,
    CompileOptions,
)
from repro.solvers import SOLVERS

LIST_H = """
#ifndef LIST_H
#define LIST_H
#include <stdlib.h>

struct node {
    struct node *next;
    void *payload;
};

struct list {
    struct node *head;
    int count;
};

void list_push(struct list *l, void *item);
void *list_top(struct list *l);
#endif
"""

LIST_C = """
#include "list.h"

void list_push(struct list *l, void *item) {
    struct node *n = malloc(sizeof(struct node));
    n->payload = item;
    n->next = l->head;
    l->head = n;
    l->count = l->count + 1;
}

void *list_top(struct list *l) {
    if (l->head)
        return l->head->payload;
    return 0;
}
"""

APP_H = """
#ifndef APP_H
#define APP_H
#include "list.h"

struct task {
    short priority;
    int (*run)(struct task *);
};

extern struct list work_queue;
extern struct task idle_task;

int run_idle(struct task *t);
int run_busy(struct task *t);
void enqueue(struct task *t);
struct task *next_task(void);
#endif
"""

APP_C = """
#include "app.h"

struct list work_queue;
struct task idle_task;
static struct task busy_task;

int run_idle(struct task *t) { return 0; }
int run_busy(struct task *t) { return t->priority; }

void setup(void) {
    idle_task.run = run_idle;
    busy_task.run = run_busy;
    enqueue(&idle_task);
    enqueue(&busy_task);
}

void enqueue(struct task *t) {
    list_push(&work_queue, t);
}

struct task *next_task(void) {
    return (struct task *)list_top(&work_queue);
}

int dispatch(void) {
    struct task *t = next_task();
    return t->run(t);
}
"""


@pytest.fixture(scope="module")
def project():
    p = Project()
    p.add_header("list.h", LIST_H)
    p.add_header("app.h", APP_H)
    p.add_source("list.c", LIST_C)
    p.add_source("app.c", APP_C)
    return p


class TestPointsToEndToEnd:
    def test_heap_site_reaches_list_head(self, project):
        result = project.points_to()
        heads = result.points_to("list.head")
        assert any(t.startswith("malloc@list.c") for t in heads)

    def test_payload_holds_tasks(self, project):
        result = project.points_to()
        payloads = result.points_to("node.payload")
        assert "idle_task" in payloads
        assert "app.c::busy_task" in payloads

    def test_next_task_returns_tasks(self, project):
        result = project.points_to()
        returned = result.points_to("next_task$ret")
        assert "idle_task" in returned
        assert "app.c::busy_task" in returned

    def test_function_pointer_field_resolves(self, project):
        result = project.points_to()
        runs = result.points_to("task.run")
        assert runs == {"run_idle", "run_busy"}

    def test_indirect_call_links_args(self, project):
        # dispatch calls t->run(t); the callee's parameter must receive
        # the task objects.
        result = project.points_to()
        busy_param = result.points_to("app.c::run_busy::t")
        assert "idle_task" in busy_param
        assert "app.c::busy_task" in busy_param

    def test_all_andersen_solvers_agree(self, project):
        base = project.points_to("pretransitive")
        other = project.points_to("transitive")
        for name in set(base.pts) | set(other.pts):
            assert base.points_to(name) == other.points_to(name), name

    def test_steensgaard_superset(self, project):
        base = project.points_to("pretransitive")
        steens = project.points_to("steensgaard")
        for name, targets in base.pts.items():
            assert targets <= steens.points_to(name), name


class TestDependenceEndToEnd:
    def test_priority_type_change(self, project):
        """§2's scenario on this code base: widen task.priority."""
        result = project.dependence("task.priority")
        dependents = {
            n for n, d in result.dependents.items() if d.parent is not None
        }
        # run_busy returns t->priority -> its return object and the
        # dispatch result depend on the field's type.
        assert "run_busy$ret" in dependents
        assert any(n.endswith("<task.run>$ret") or "run" in n
                   for n in dependents)

    def test_chain_renders_with_locations(self, project):
        result = project.dependence("task.priority")
        line = render_chain(project.store(), result, "run_busy$ret")
        assert "task.priority" in line
        assert "<app.c:" in line

    def test_count_is_not_dependent(self, project):
        # list.count flows from integer arithmetic unrelated to priority.
        result = project.dependence("task.priority")
        assert not result.is_dependent("list.count")


class TestDiskPipelineEquivalence:
    def test_object_file_pipeline_matches_memory(self, project, tmp_path):
        options = CompileOptions()
        options.virtual_files["list.h"] = LIST_H
        options.virtual_files["app.h"] = APP_H
        objects = []
        for name, text in [("list.c", LIST_C), ("app.c", APP_C)]:
            src = tmp_path / name
            src.write_text(text)
            obj = str(tmp_path / (name + ".o"))
            from repro.driver.api import compile_source
            from repro.cla.writer import write_unit

            unit = compile_source(text, filename=name, options=options)
            write_unit(unit, obj)
            objects.append(obj)
        out = str(tmp_path / "app.cla")
        link_objects(objects, out)
        disk = analyze_database(out)
        mem = project.points_to()
        for name in set(disk.pts) | set(mem.pts):
            assert disk.points_to(name) == mem.points_to(name), name

    def test_dependence_over_disk_database(self, project, tmp_path):
        options = CompileOptions()
        options.virtual_files["list.h"] = LIST_H
        options.virtual_files["app.h"] = APP_H
        from repro.driver.api import compile_source
        from repro.cla.writer import write_unit

        objects = []
        for name, text in [("list.c", LIST_C), ("app.c", APP_C)]:
            obj = str(tmp_path / (name + ".o"))
            write_unit(compile_source(text, filename=name, options=options),
                       obj)
            objects.append(obj)
        out = str(tmp_path / "app.cla")
        link_objects(objects, out)
        store = DatabaseStore.open(out)
        try:
            points_to = SOLVERS["pretransitive"](store).solve()
            analysis = DependenceAnalysis(store, points_to)
            targets = analysis.resolve_targets("task.priority")
            assert targets == ["task.priority"]
            result = analysis.analyze(targets)
            assert result.is_dependent("run_busy$ret")
        finally:
            store.close()
