"""CLA: the compile-link-analyze database architecture (paper §4).

* :mod:`repro.cla.objfile` — the sectioned binary format (Figure 4).
* :mod:`repro.cla.writer` — compile/link phase serializer.
* :mod:`repro.cla.reader` — mmap demand-loading reader.
* :mod:`repro.cla.linker` — merges object files into an executable database,
  on disk or in memory from cached per-unit sections.
* :mod:`repro.cla.store` — the ConstraintStore interface solvers consume,
  with in-memory and on-disk implementations sharing load accounting.
* :mod:`repro.cla.cache` — the keep-or-discard block cache bounding
  analyze-phase memory (§4's discard-and-reload strategy).
"""

from .cache import BlockCache, wrap_store
from .linker import (
    Linker,
    LinkError,
    SectionCache,
    UnitSection,
    link_object_files,
    link_sections,
    link_units,
    link_units_in_memory,
)
from .objfile import ClaFormatError, name_hash
from .reader import DatabaseStore, ObjectFileReader
from .store import (
    Block,
    ConstraintStore,
    LoadStats,
    MemoryStore,
    simple_name_of,
    trigger_object,
)
from .writer import ObjectFileWriter, write_unit

__all__ = [
    "BlockCache", "wrap_store",
    "Linker", "LinkError", "SectionCache", "UnitSection",
    "link_object_files", "link_sections", "link_units", "link_units_in_memory",
    "ClaFormatError", "name_hash",
    "DatabaseStore", "ObjectFileReader",
    "Block", "ConstraintStore", "LoadStats", "MemoryStore",
    "simple_name_of", "trigger_object",
    "ObjectFileWriter", "write_unit",
]
