"""The instrumented pipeline engine.

One spine for the whole system (ROADMAP: a single instrumented seam that
batching/caching work can land on):

* :mod:`repro.engine.pipeline` — :class:`Pipeline` and
  :class:`AnalysisSession`: compile → link → analyze → depend as named,
  composable, traced stages.  :class:`repro.driver.api.Project` and
  :class:`repro.driver.incremental.Workspace` are thin wrappers over it.
* :mod:`repro.engine.obs` — spans, tracing, the process-wide
  :class:`MetricsRegistry`, and the measurement helpers.
* :mod:`repro.engine.stats` — the uniform :class:`SolverStats` record all
  four solvers report through :mod:`repro.solvers.base`.

``pipeline`` is imported lazily: the low layers (``cla``, ``solvers``)
import ``engine.obs``/``engine.stats``, and ``engine.pipeline`` imports
those low layers back, so an eager import here would be circular.
"""

from .obs import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    Measurement,
    MetricsRegistry,
    Span,
    Tracer,
    format_table,
    human_bytes,
    human_count,
    measure,
    peak_rss_mb,
)
from .stats import SolverStats

_PIPELINE_EXPORTS = (
    "AnalysisSession",
    "CompileOptions",
    "Pipeline",
    "compile_unit_to_path",
)

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "Measurement",
    "MetricsRegistry",
    "SolverStats",
    "Span",
    "Tracer",
    "format_table",
    "human_bytes",
    "human_count",
    "measure",
    "peak_rss_mb",
    *_PIPELINE_EXPORTS,
]


def __getattr__(name: str):
    if name in _PIPELINE_EXPORTS:
        from . import pipeline

        return getattr(pipeline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
