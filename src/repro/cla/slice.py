"""Region-local constraint stores for the retraction re-solve.

A :class:`StoreSlice` is a view of a subset of a database's rows: the
full object/record metadata (cheap, and every solver needs it for
relevance tests and §4 funcptr linking) plus only the chosen
*assignments*, laid out exactly like a :class:`~repro.cla.store.MemoryStore`
— statics (base assignments) and dynamic blocks keyed by trigger object.
:func:`repro.solvers.shard.solve_retracted` cold-solves the dirty
regions of an edited program through one slice.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
)
from .store import Block, ConstraintStore, LoadStats, simple_name_of


class StoreSlice:
    """A ConstraintStore over a subset of a store's rows (self-contained).

    Blocks exist for every function/indirect-call record holder even when
    the slice has none of that block's assignments — the funcptr linker
    demand-loads records by block name when it discovers the callee.
    """

    def __init__(
        self,
        objects: dict[str, ProgramObject],
        statics: list[PrimitiveAssignment],
        block_rows: dict[str, list[PrimitiveAssignment]],
        function_records: dict[str, FunctionRecord],
        indirect_records: dict[str, IndirectCallRecord],
        call_site_records: list[CallSiteRecord] | None = None,
    ):
        self.objects = objects
        self._statics = list(statics)
        self._blocks: dict[str, Block] = {}
        self._targets: dict[str, list[str]] = {}
        self._call_sites = list(call_site_records or [])
        self.stats = LoadStats()
        self._loaded_blocks: set[str] = set()
        self._statics_loaded = False
        for name, rows in block_rows.items():
            self._ensure_block(name).assignments.extend(rows)
        for fname, record in function_records.items():
            self._ensure_block(fname).function_record = record
        for pname, record in indirect_records.items():
            self._ensure_block(pname).indirect_record = record
        for name in objects:
            self._targets.setdefault(simple_name_of(name), []).append(name)
        self.stats.in_file = len(self._statics) + sum(
            len(b.assignments) for b in self._blocks.values()
        )

    def _ensure_block(self, name: str) -> Block:
        block = self._blocks.get(name)
        if block is None:
            obj = self.objects.get(name)
            if obj is None:
                obj = ProgramObject(name=name, kind=ObjectKind.VARIABLE)
                self.objects[name] = obj
            block = Block(obj=obj)
            self._blocks[name] = block
        return block

    # -- ConstraintStore interface ----------------------------------------

    def static_assignments(self) -> list[PrimitiveAssignment]:
        if not self._statics_loaded:
            self._statics_loaded = True
            self.stats.count_load(len(self._statics), blocks=0)
        return self._statics

    def load_block(self, name: str) -> Block | None:
        block = self._blocks.get(name)
        if block is None:
            return None
        if name not in self._loaded_blocks:
            self._loaded_blocks.add(name)
            self.stats.count_load(len(block.assignments))
        return block

    def fetch_block(self, name: str) -> Block | None:
        return self._blocks.get(name)

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        return self._statics

    def object_names(self) -> Iterable[str]:
        return self.objects.keys()

    def get_object(self, name: str) -> ProgramObject | None:
        return self.objects.get(name)

    def find_targets(self, simple_name: str) -> list[str]:
        return list(self._targets.get(simple_name, []))

    def block_names(self) -> Iterable[str]:
        return self._blocks.keys()

    def call_sites(self) -> list[CallSiteRecord]:
        return list(self._call_sites)

    def discard(self, assignments_kept: int) -> None:
        self.stats.in_core = assignments_kept


def slice_store(
    store: ConstraintStore,
    statics: list[PrimitiveAssignment],
    block_rows: dict[str, list[PrimitiveAssignment]],
) -> StoreSlice:
    """Build a slice from a full store plus a subset of its rows."""
    objects: dict[str, ProgramObject] = {}
    for name in store.object_names():
        obj = store.get_object(name)
        if obj is not None:
            objects[name] = obj
    function_records: dict[str, FunctionRecord] = {}
    indirect_records: dict[str, IndirectCallRecord] = {}
    for name in store.block_names():
        block = store.fetch_block(name)
        if block is None:
            continue
        if block.function_record is not None:
            function_records[name] = block.function_record
        if block.indirect_record is not None:
            indirect_records[name] = block.indirect_record
    return StoreSlice(
        objects=objects,
        statics=statics,
        block_rows=block_rows,
        function_records=function_records,
        indirect_records=indirect_records,
        call_site_records=store.call_sites(),
    )
