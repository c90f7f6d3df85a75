"""The CLA link phase.

Merges many object files into one "executable" database: global symbols
(objects whose names carry no file qualifier) are unified by name, blocks
for the same global are concatenated, and all indexing information is
recomputed (§4: "During this process we must recompute indexing
information").  The output uses the identical format, flagged as linked.

Two links share one set of merge rules (:class:`Linker`): the disk link
writes the executable database, and the in-memory link builds the same
database as a :class:`~repro.cla.store.MemoryStore` from decoded object
files (:class:`UnitSection`) that the serve daemon keeps per live unit
(:class:`SectionCache`), so an edit decodes only the changed unit and
nothing is written or re-read.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.lower import UnitIR
from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import CallSiteRecord, FunctionRecord, PrimitiveAssignment
from .reader import ObjectFileReader
from .store import (
    Block,
    MemoryStore,
    merge_object,
    signature_of,
    wider_indirect,
)
from .writer import ObjectFileWriter


class LinkError(Exception):
    """Incompatible inputs (e.g. mixed struct models)."""


class UnitSection:
    """One object file decoded into memory: everything a link reads of it.

    Shared and never mutated — :class:`Linker` copies what it merges — so
    the serve daemon can keep a unit's section across generations and
    link it again after every edit to *another* unit.  The constraint
    signature is computed on first use and kept with the section.
    """

    __slots__ = ("path", "field_based", "source_lines", "objects",
                 "statics", "blocks", "call_sites", "_signature")

    def __init__(self, path: str):
        with ObjectFileReader(path) as reader:
            self.path = path
            self.field_based = reader.field_based
            self.source_lines = reader.source_lines
            self.objects: list[ProgramObject] = list(reader.objects())
            self.statics: list[PrimitiveAssignment] = (
                reader.static_assignments()
            )
            self.blocks: dict[str, Block] = {
                block.obj.name: block
                for block in reader.blocks(
                    {obj.name: obj for obj in self.objects}
                )
            }
            self.call_sites: list[CallSiteRecord] = reader.call_sites()
        self._signature: frozenset | None = None

    @property
    def signature(self) -> frozenset:
        """This unit's constraint signature; folded in link order through
        :func:`~repro.cla.store.merge_unit_signatures` it equals the
        linked database's :func:`~repro.cla.store.constraint_signature`."""
        if self._signature is None:
            self._signature = signature_of(
                self.statics, self.blocks.values(), self.call_sites
            )
        return self._signature


class Linker:
    """The link phase's one set of merge rules.

    Both links go through it: :func:`link_object_files` writes the result
    to disk, :func:`link_sections` hands it to a :class:`MemoryStore`.
    Globals unify by name (:func:`~repro.cla.store.merge_object`), a
    block's rows concatenate in link order, a function keeps its one
    definition (two different ones are a :class:`LinkError`), an
    indirect-call record keeps the widest argument list, and mixing
    struct models is a :class:`LinkError`.

    Inputs are never mutated: merged objects are copies and every block
    is a fresh one with its own row list, so a section stays linkable.
    """

    def __init__(self):
        self.field_based: bool | None = None
        self.source_lines = 0
        self.objects: dict[str, ProgramObject] = {}
        self.statics: list[PrimitiveAssignment] = []
        self.call_sites: list[CallSiteRecord] = []
        self._blocks: dict[str, Block] = {}

    def add(self, section: UnitSection) -> None:
        if self.field_based is None:
            self.field_based = section.field_based
        elif section.field_based != self.field_based:
            raise LinkError(
                f"{section.path}: struct model differs from earlier inputs "
                "(field-based vs field-independent)"
            )
        self.source_lines += section.source_lines
        objects = self.objects
        for obj in section.objects:
            objects[obj.name] = merge_object(objects.get(obj.name), obj)
        self.statics.extend(section.statics)
        blocks = self._blocks
        for name, block in section.blocks.items():
            mine = blocks.get(name)
            if mine is None:
                blocks[name] = Block(
                    obj=block.obj, assignments=list(block.assignments),
                    function_record=block.function_record,
                    indirect_record=block.indirect_record,
                )
                continue
            mine.assignments.extend(block.assignments)
            if block.function_record is not None:
                mine.function_record = _merge_function_record(
                    mine.function_record, block.function_record
                )
            if block.indirect_record is not None:
                mine.indirect_record = wider_indirect(
                    mine.indirect_record, block.indirect_record
                )
        self.call_sites.extend(section.call_sites)

    def _final_blocks(self) -> dict[str, Block]:
        """The merged blocks, each pointing at its merged object."""
        for name, block in self._blocks.items():
            obj = self.objects.get(name)
            if obj is None:
                obj = self.objects[name] = ProgramObject(
                    name=name, kind=ObjectKind.VARIABLE
                )
            block.obj = obj
        return self._blocks

    def write(self, path: str) -> None:
        """Serialize the linked database (flagged as linked) to ``path``."""
        writer = ObjectFileWriter(field_based=self.field_based, linked=True)
        writer.source_lines = self.source_lines
        writer.blocks = self._final_blocks()
        writer.objects = self.objects
        writer.statics = self.statics
        writer.call_sites = self.call_sites
        writer.write(path)

    def store(self) -> MemoryStore:
        """The linked database as an in-memory store (takes ownership)."""
        blocks = self._final_blocks()
        return MemoryStore.linked(self.objects, self.statics, blocks,
                                  self.call_sites)


def _link(sections: Iterable[UnitSection]) -> Linker:
    linker = Linker()
    for section in sections:
        linker.add(section)
    if linker.field_based is None:
        raise LinkError("no input object files")
    return linker


def link_object_files(paths: Iterable[str], output_path: str) -> None:
    """Link object files from disk into one executable database."""
    _link(UnitSection(path) for path in paths).write(output_path)


def link_sections(sections: Iterable[UnitSection]) -> MemoryStore:
    """Link decoded object files in memory: the same database
    :func:`link_object_files` would write, never serialized."""
    return _link(sections).store()


class SectionCache:
    """Decoded object files of the live units, keyed by content key.

    The serve daemon's link input.  :meth:`sections` decodes only the
    units whose key it does not hold — a unit just compiled, reused from
    the object cache or restored by an undo — and drops every key not in
    the current entries, so it holds one decoded copy per live unit.
    """

    def __init__(self):
        self._by_key: dict[str, UnitSection] = {}

    def sections(
        self, entries: Iterable[tuple[str, str]]
    ) -> list[UnitSection]:
        """The section of every ``(content_key, object_path)``, in order."""
        live: dict[str, UnitSection] = {}
        out = []
        for key, path in entries:
            section = live.get(key) or self._by_key.get(key)
            if section is None:
                section = UnitSection(path)
            live[key] = section
            out.append(section)
        self._by_key = live
        return out


def _merge_function_record(
    current: FunctionRecord | None, theirs: FunctionRecord
) -> FunctionRecord:
    """Merge a duplicate ``function_record`` for one function block.

    Two object files may both carry a record for the same function — the
    legitimate case is the *same* definition reaching the linker twice
    (e.g. an object file linked in two stages).  Conflicting records mean
    two different definitions of one external function; silently letting
    the last one win would bind call sites to whichever file happened to
    come later, so that is a link error (the moral equivalent of
    ``multiple definition of `f'``).
    """
    if current is None:
        return theirs
    same_shape = (
        len(current.args) == len(theirs.args)
        and current.ret == theirs.ret
        and current.variadic == theirs.variadic
    )
    if same_shape and current.location.brief() == theirs.location.brief():
        return current  # identical definition seen twice: keep the first
    raise LinkError(
        f"duplicate definition of function '{current.function}': "
        f"{current.location.brief()} and {theirs.location.brief()}"
    )


def link_units(
    units: Iterable[UnitIR], output_path: str, field_based: bool = True
) -> None:
    """Compile-and-link shortcut: lowered units straight to an executable."""
    writer = ObjectFileWriter(field_based=field_based, linked=True)
    for unit in units:
        # add_unit accumulates writer.source_lines per unit, so the linked
        # database reports the same line total as the object-file route.
        writer.add_unit(unit)
    writer.write(output_path)


def link_units_in_memory(units: Iterable[UnitIR]) -> MemoryStore:
    """Link without serializing: the in-memory analogue of the link phase."""
    return MemoryStore(list(units))
