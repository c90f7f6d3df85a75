"""The pipeline engine: compile → link → analyze → depend as named stages.

The paper's CLA architecture (§4) *is* a pipeline — compile, link and
analyze are separable phases with measurable per-phase costs (Tables 2-3
report per-phase sizes, load accounting and solver times).  This module is
the one instrumented spine all entry points go through:

* :class:`Pipeline` — the stage engine.  Each stage method runs under a
  named :class:`~repro.engine.obs.Span` ("compile", "link", "analyze",
  "depend"), annotates the span with its key counters, and feeds the
  process-wide :class:`~repro.engine.obs.MetricsRegistry`.
* :class:`AnalysisSession` — a stateful multi-file project built on
  :class:`Pipeline`: sources in, cached units/store/results out.
  :class:`repro.driver.api.Project` is a thin alias of it, and
  :class:`repro.driver.incremental.Workspace` drives its builds through
  the same stage methods.

Parallel compilation (§4: the architecture "supports separate and/or
parallel compilation of collections of source files") is a Pipeline
concern: any compile stage accepts ``jobs``; each :func:`compile_pool`
worker gets the options once and keeps its header caches for the whole
build, and only the cheap link phase is serial.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..cfront import IncludeResolver, parse_c
from ..cla.cache import BlockCache
from ..cla.linker import UnitSection, link_object_files, link_sections
from ..cla.reader import DatabaseStore
from ..cla.store import ConstraintStore, MemoryStore
from ..cla.writer import ObjectFileWriter, write_unit
from ..depend.analysis import DependenceAnalysis, DependenceResult
from ..ir.lower import UnitIR, lower_translation_unit
from ..ir.strength import Strength
from ..solvers import SOLVERS
from ..solvers.base import PointsToResult
from .events import EVENTS, StageEvent, UnitCompiledEvent
from .obs import Span, Tracer


@dataclass
class CompileOptions:
    """Options shared by every compile-phase entry point."""

    field_based: bool = True
    #: "field_based" | "field_independent" | "offset_based"; overrides
    #: ``field_based`` when set.
    struct_model: str | None = None
    #: "site" (fresh location per allocation call, §6 setup (a)) |
    #: "function" (one heap object per allocating function) | "single".
    heap_model: str = "site"
    track_strings: bool = False
    #: Recover from unparseable declarations instead of failing the unit.
    tolerant: bool = False
    include_dirs: list[str] = field(default_factory=list)
    virtual_files: dict[str, str] = field(default_factory=dict)
    predefined: dict[str, str] = field(default_factory=dict)

    def resolver(self) -> IncludeResolver:
        """One shared resolver per options object.

        Sharing matters: the resolver carries the header caches — each
        included file's tokens, its preprocessed output per entry macro
        state, and the parsed declarations of a unit-opening header — so
        every unit compiled through these options after the first
        reuses the shared headers' work.  Parallel builds get the same
        reuse per worker process (:func:`compile_pool`).
        """
        cached = getattr(self, "_resolver", None)
        if cached is None:
            cached = IncludeResolver(
                include_dirs=self.include_dirs,
                virtual_files=self.virtual_files,
            )
            object.__setattr__(self, "_resolver", cached)
        else:
            # Late-added sources/headers must stay visible.
            cached.include_dirs = self.include_dirs
            cached.virtual_files = self.virtual_files
        return cached

    def __getstate__(self):
        # The memoized resolver's caches are per process; a worker that
        # receives pickled options builds its own.
        state = dict(self.__dict__)
        state.pop("_resolver", None)
        return state


def resolve_jobs(jobs: int | None) -> int:
    """``None`` means "use every core"; anything else is clamped to >= 1."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# ---------------------------------------------------------------------------
# Stage primitives (uninstrumented; Pipeline wraps them in spans)
# ---------------------------------------------------------------------------


def compile_source(
    text: str,
    filename: str = "<string>",
    options: CompileOptions | None = None,
) -> UnitIR:
    """Compile one translation unit from source text to IR."""
    options = options or CompileOptions()
    unit = parse_c(
        text,
        filename=filename,
        resolver=options.resolver(),
        predefined=options.predefined,
        tolerant=options.tolerant,
    )
    return lower_translation_unit(
        unit,
        field_based=options.field_based,
        track_strings=options.track_strings,
        source_text=text,
        struct_model=options.struct_model,
        heap_model=options.heap_model,
    )


def compile_file(path: str, options: CompileOptions | None = None) -> UnitIR:
    """Compile one ``.c`` file from disk to IR."""
    with open(path, "r", errors="replace") as f:
        text = f.read()
    return compile_source(text, filename=path, options=options)


def compile_unit_to_path(
    filename: str, text: str, object_path: str, options: CompileOptions
) -> str:
    """Compile one file and write its object file."""
    unit = compile_source(text, filename=filename, options=options)
    write_unit(unit, object_path, field_based=options.field_based)
    return object_path


#: The build's options in a :func:`compile_pool` worker process, set
#: once by the pool's initializer; their resolver, and so its header
#: caches, live as long as the worker.
_worker_options: CompileOptions | None = None


def _init_compile_worker(options: CompileOptions) -> None:
    global _worker_options
    _worker_options = options


def compile_pool(options: CompileOptions, workers: int) -> ProcessPoolExecutor:
    """A process pool for parallel compiles under ``options``.

    The options (with every virtual source file) go to each worker once,
    at start-up, rather than with every task; a worker then compiles all
    its units through one resolver, so the shared headers are
    preprocessed and parsed once per worker.  Submit
    :func:`compile_in_worker` tasks.  The CLA design is what makes this
    embarrassingly parallel (§4) — units share no analysis state and
    only the cheap link phase is serial.
    """
    return ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_compile_worker,
        initargs=(options,),
    )


def compile_in_worker(
    filename: str, text: str, object_path: str | None = None
) -> tuple[UnitIR | str, dict[str, int]]:
    """A :func:`compile_pool` task: compile one unit under the pool's
    options, to ``object_path`` (returning the path) or, without one,
    to IR (returning the unit).  Also returns the unit's
    :class:`HeaderCacheHits` attributes."""
    options = _worker_options
    hits = HeaderCacheHits(options)
    if object_path is None:
        result = compile_source(text, filename=filename, options=options)
    else:
        result = compile_unit_to_path(filename, text, object_path, options)
    return result, hits.attrs()


class HeaderCacheHits:
    """A compile span's ``include_cache_hits``/``prefix_hits``: what
    the options' resolver gained since this was made, plus the counts
    pool workers report with their results (:meth:`add`)."""

    def __init__(self, options: CompileOptions):
        self._resolver = options.resolver()
        self._start = self._now()
        self._added = dict.fromkeys(self._start, 0)

    def _now(self) -> dict[str, int]:
        return {"include_cache_hits": self._resolver.include_cache_hits,
                "prefix_hits": self._resolver.prefix_hits}

    def add(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self._added[key] += value

    def attrs(self) -> dict[str, int]:
        now = self._now()
        return {key: now[key] - self._start[key] + self._added[key]
                for key in now}


# ---------------------------------------------------------------------------
# The Pipeline engine
# ---------------------------------------------------------------------------


class Pipeline:
    """Instrumented compile→link→analyze→depend stage engine.

    Stateless apart from its options and tracer: every method takes its
    inputs and returns its outputs, so stages compose freely and callers
    (Project, Workspace, the CLI) share one observability spine.
    """

    #: The named stages, in pipeline order.
    STAGES = ("compile", "link", "analyze", "depend")

    def __init__(
        self,
        options: CompileOptions | None = None,
        tracer: Tracer | None = None,
        jobs: int = 1,
    ):
        self.options = options or CompileOptions()
        self.tracer = tracer or Tracer()
        self.jobs = jobs

    def _jobs(self, jobs: int | None) -> int:
        return resolve_jobs(self.jobs if jobs is None else jobs)

    @contextmanager
    def _stage(self, name: str, **attrs) -> Iterator[Span]:
        """A tracer span that is also a stage begin/end on the event bus.

        The end event carries the span's final attributes and wall time,
        so an events.jsonl ledger alone reconstructs the per-phase table.
        It is emitted in a ``finally`` — a failing stage still closes its
        ledger entry (with the span's ``error`` attribute attached)."""
        if EVENTS:
            EVENTS.emit(StageEvent(stage=name, phase="begin",
                                   attrs=dict(attrs)))
        span = None
        try:
            with self.tracer.span(name, **attrs) as span:
                yield span
        finally:
            # Emitted after the span closes so the end event sees the
            # final attributes (including ``error`` on a failing stage).
            if EVENTS and span is not None:
                EVENTS.emit(StageEvent(
                    stage=name, phase="end", attrs=dict(span.attrs),
                    wall_s=round(span.wall_seconds, 6),
                ))

    # -- compile stage -------------------------------------------------------

    def compile_units(
        self, sources: dict[str, str], jobs: int | None = None
    ) -> list[UnitIR]:
        """Compile many in-memory sources to IR, optionally in parallel."""
        jobs = self._jobs(jobs)
        items = sorted(sources.items())
        total = len(items)
        with self._stage("compile", files=total, jobs=jobs) as span:
            hits = HeaderCacheHits(self.options)
            if jobs > 1 and total > 1:
                workers = min(jobs, total)
                results: list[UnitIR | None] = [None] * total
                with compile_pool(self.options, workers) as pool:
                    futures = {
                        pool.submit(compile_in_worker, name, text): i
                        for i, (name, text) in enumerate(items)
                    }
                    done = 0
                    for f in as_completed(futures):
                        i = futures[f]
                        unit, unit_hits = f.result()
                        hits.add(unit_hits)
                        results[i] = unit
                        done += 1
                        if EVENTS:
                            EVENTS.emit(UnitCompiledEvent(
                                file=items[i][0], index=done, total=total,
                                assignments=len(unit.assignments),
                                objects=len(unit.objects),
                            ))
                units = results
            else:
                units = []
                for i, (name, text) in enumerate(items):
                    with self.tracer.span("unit", file=name):
                        unit = compile_source(
                            text, filename=name, options=self.options
                        )
                    units.append(unit)
                    if EVENTS:
                        EVENTS.emit(UnitCompiledEvent(
                            file=name, index=i + 1, total=total,
                            assignments=len(unit.assignments),
                            objects=len(unit.objects),
                        ))
            span.annotate(
                assignments=sum(len(u.assignments) for u in units),
                objects=sum(len(u.objects) for u in units),
                **hits.attrs(),
            )
        return units

    def compile_to_object(self, path: str, out_path: str) -> UnitIR:
        """The compile phase proper: source file -> CLA object file."""
        with self._stage("compile", files=1, jobs=1) as span:
            hits = HeaderCacheHits(self.options)
            unit = compile_file(path, self.options)
            write_unit(unit, out_path, field_based=self.options.field_based)
            span.annotate(
                assignments=len(unit.assignments), objects=len(unit.objects),
                **hits.attrs(),
            )
            if EVENTS:
                EVENTS.emit(UnitCompiledEvent(
                    file=path, index=1, total=1,
                    assignments=len(unit.assignments),
                    objects=len(unit.objects),
                ))
        return unit

    def compile_files_to_objects(
        self,
        paths: list[str],
        out_paths: list[str],
        jobs: int | None = None,
    ) -> list[str]:
        """Compile many source files to object files, optionally in
        parallel (the ``repro-cla compile --jobs`` path)."""
        if len(paths) != len(out_paths):
            raise ValueError("paths and out_paths must pair up")
        jobs = self._jobs(jobs)
        texts = []
        for path in paths:
            with open(path, "r", errors="replace") as f:
                texts.append(f.read())
        total = len(paths)
        with self._stage("compile", files=total, jobs=jobs) as span:
            hits = HeaderCacheHits(self.options)
            if jobs > 1 and total > 1:
                workers = min(jobs, total)
                with compile_pool(self.options, workers) as pool:
                    futures = {
                        pool.submit(compile_in_worker, path, text, out): path
                        for path, text, out in zip(paths, texts, out_paths)
                    }
                    done = 0
                    for f in as_completed(futures):
                        hits.add(f.result()[1])
                        done += 1
                        if EVENTS:
                            EVENTS.emit(UnitCompiledEvent(
                                file=futures[f], index=done, total=total,
                            ))
            else:
                for i, (path, text, out) in enumerate(
                    zip(paths, texts, out_paths)
                ):
                    with self.tracer.span("unit", file=path):
                        compile_unit_to_path(path, text, out, self.options)
                    if EVENTS:
                        EVENTS.emit(UnitCompiledEvent(
                            file=path, index=i + 1, total=total,
                        ))
            span.annotate(**hits.attrs())
        return out_paths

    # -- link stage ----------------------------------------------------------

    def link_units(self, units: list[UnitIR]) -> MemoryStore:
        """Link compiled units into an in-memory constraint store."""
        with self._stage("link", units=len(units)) as span:
            store = MemoryStore(units)
            span.annotate(
                objects=len(store.objects),
                assignments=store.stats.in_file,
            )
        return store

    def link_objects(self, object_paths: list[str], out_path: str) -> str:
        """The link phase: object files -> executable database."""
        with self._stage("link", objects=len(object_paths)) as span:
            link_object_files(object_paths, out_path)
            span.annotate(output=out_path)
        return out_path

    def link_sections(self, sections: list[UnitSection]) -> MemoryStore:
        """The in-memory link: decoded object files -> the database
        :meth:`link_objects` would write, as a :class:`MemoryStore`."""
        with self._stage("link", sections=len(sections)) as span:
            store = link_sections(sections)
            span.annotate(
                objects=len(store.objects),
                assignments=store.stats.in_file,
            )
        return store

    def write_executable(self, units: list[UnitIR], out_path: str) -> str:
        """Serialize linked units straight to an executable database."""
        with self._stage("link", units=len(units)) as span:
            writer = ObjectFileWriter(
                field_based=self.options.field_based, linked=True
            )
            for unit in units:
                writer.add_unit(unit)
            writer.write(out_path)
            span.annotate(output=out_path)
        return out_path

    # -- analyze stage -------------------------------------------------------

    def open_database(
        self, path: str, max_core_assignments: int | None = None
    ) -> ConstraintStore:
        """Open a database, optionally behind a keep-or-discard cache.

        With ``max_core_assignments`` set, the returned store is a
        :class:`~repro.cla.cache.BlockCache` bounding analyze-phase
        residency to that many assignments (§4's discard-and-reload
        strategy); ``None`` returns the plain :class:`DatabaseStore`.
        """
        store = DatabaseStore.open(path)
        if max_core_assignments is None:
            return store
        try:
            return BlockCache(store, max_core_assignments)
        except Exception:
            store.close()
            raise

    def analyze(
        self,
        store: ConstraintStore,
        solver: str = "pretransitive",
        **solver_kwargs,
    ) -> PointsToResult:
        """The analyze phase on any store: one sequential solve."""
        try:
            cls = SOLVERS[solver]
        except KeyError:
            known = ", ".join(sorted(SOLVERS))
            raise ValueError(
                f"unknown solver {solver!r} (known: {known})"
            ) from None
        with self._stage("analyze", solver=solver) as span:
            result = cls(store, **solver_kwargs).solve()
            span.annotate(**result.stats.counter_fields())
        return result

    def analyze_database(
        self,
        path: str,
        solver: str = "pretransitive",
        max_core_assignments: int | None = None,
        **solver_kwargs,
    ) -> PointsToResult:
        """Open a linked database and run a points-to analysis on it."""
        store = self.open_database(path, max_core_assignments)
        try:
            return self.analyze(store, solver, **solver_kwargs)
        finally:
            store.close()

    # -- depend stage --------------------------------------------------------

    def depend(
        self,
        store: ConstraintStore,
        points_to: PointsToResult,
        target: str,
        non_targets: frozenset[str] | list[str] = frozenset(),
        min_strength: Strength = Strength.WEAK,
    ) -> DependenceResult:
        """Forward dependence query by source-level target name."""
        with self._stage("depend", target=target) as span:
            analysis = DependenceAnalysis(store, points_to)
            targets = analysis.resolve_targets(target)
            if not targets:
                raise KeyError(f"no object named {target!r} in the project")
            result = analysis.analyze(
                targets, frozenset(non_targets), min_strength=min_strength
            )
            span.annotate(
                dependents=len(result.dependents),
                blocks_loaded=result.blocks_loaded,
            )
        return result


# ---------------------------------------------------------------------------
# Stateful sessions over the engine
# ---------------------------------------------------------------------------


class AnalysisSession:
    """An in-memory multi-file project: the whole pipeline without disk.

    Sources added with :meth:`add_source` can ``#include`` each other and
    any header placed in :attr:`CompileOptions.virtual_files`.  Compiled
    units, the linked store and analysis results are cached until a source
    changes; every stage runs through the owned :class:`Pipeline`, so a
    session's tracer shows the nested compile/link/analyze/depend spans.
    """

    def __init__(
        self,
        options: CompileOptions | None = None,
        tracer: Tracer | None = None,
        jobs: int = 1,
    ):
        self.pipeline = Pipeline(options=options, tracer=tracer, jobs=jobs)
        self._sources: dict[str, str] = {}
        self._units: list[UnitIR] | None = None
        self._store: MemoryStore | None = None
        self._points_to: dict[str, PointsToResult] = {}

    @property
    def options(self) -> CompileOptions:
        return self.pipeline.options

    @property
    def tracer(self) -> Tracer:
        return self.pipeline.tracer

    # -- source management ---------------------------------------------------

    def add_source(self, filename: str, text: str) -> "AnalysisSession":
        self._sources[filename] = text
        self.options.virtual_files.setdefault(filename, text)
        self._invalidate()
        return self

    def add_file(self, path: str) -> "AnalysisSession":
        with open(path, "r", errors="replace") as f:
            return self.add_source(path, f.read())

    def add_header(self, filename: str, text: str) -> "AnalysisSession":
        """A header visible to ``#include`` but not compiled on its own."""
        self.options.virtual_files[filename] = text
        self._invalidate()
        return self

    def _invalidate(self) -> None:
        self._units = None
        self._store = None
        self._points_to.clear()

    def sources(self) -> list[str]:
        return sorted(self._sources)

    # -- staged, cached products ---------------------------------------------

    def units(self, jobs: int | None = None) -> list[UnitIR]:
        """Compile every source (cached)."""
        if self._units is None:
            self._units = self.pipeline.compile_units(self._sources, jobs)
        return self._units

    def store(self) -> MemoryStore:
        """Link the compiled units in memory (cached)."""
        if self._store is None:
            self._store = self.pipeline.link_units(self.units())
        return self._store

    def write_executable(self, path: str) -> None:
        """Serialize the linked database to disk."""
        self.pipeline.write_executable(self.units(), path)

    def points_to(
        self, solver: str = "pretransitive", **solver_kwargs
    ) -> PointsToResult:
        """Run (and cache) a points-to analysis."""
        key = solver + repr(sorted(solver_kwargs.items()))
        if key not in self._points_to:
            self._points_to[key] = self.pipeline.analyze(
                self.store(), solver, **solver_kwargs
            )
        return self._points_to[key]

    def dependence(
        self,
        target: str,
        non_targets: list[str] | frozenset[str] = frozenset(),
        solver: str = "pretransitive",
        min_strength: Strength = Strength.WEAK,
    ) -> DependenceResult:
        """Forward dependence query by source-level target name."""
        return self.pipeline.depend(
            self.store(),
            self.points_to(solver),
            target,
            non_targets,
            min_strength=min_strength,
        )
