"""mmap-backed reader for CLA object files, with demand loading.

The analyze phase never reads the whole database: the static section is
loaded up front; dynamic blocks are located through the hash index and
parsed only when the analysis asks for them ("only those parts of the
object file that are required are loaded", §4).  Parsed blocks are *not*
retained here — the caller keeps what it wants and may re-request a block,
which re-reads it from the map ("after reading a component we have the
choice of keeping it in memory or discarding it and re-reading it if we
ever need it again").
"""

from __future__ import annotations

import mmap
from typing import Iterator

from ..cfront.source import Location
from ..ir.objects import ObjectKind, ProgramObject
from ..ir.primitives import (
    CallSiteRecord,
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from ..ir.strength import Strength
from . import objfile as F
from .store import Block, LoadStats


class ObjectFileReader:
    """Random access to one CLA object file through mmap."""

    def __init__(self, path: str):
        self.path = path
        self._closed = False
        self._file = open(path, "rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._closed = True
            self._file.close()
            raise F.ClaFormatError(
                f"{path}: empty or unmappable file"
            ) from None
        # Validate size / magic / version / section bounds up front, so a
        # truncated or corrupt database fails with one clear error instead
        # of a struct.error from whichever unpack happens to fall off the
        # end of the map first.
        file_size = len(self._map)
        if file_size < F.HEADER.size:
            self.close()
            raise F.ClaFormatError(
                f"{path}: truncated header ({file_size} bytes, "
                f"CLA header is {F.HEADER.size})"
            )
        header = F.HEADER.unpack_from(self._map, 0)
        magic, version, self.flags, nsections, _r32, self.source_lines, _r64 = header
        if magic != F.MAGIC:
            self.close()
            raise F.ClaFormatError(f"{path}: bad magic {magic!r}")
        if version != F.VERSION:
            self.close()
            raise F.ClaFormatError(f"{path}: unsupported version {version}")
        table_end = F.HEADER.size + nsections * F.SECTION_ENTRY.size
        if table_end > file_size:
            self.close()
            raise F.ClaFormatError(
                f"{path}: truncated section table "
                f"({nsections} sections claimed, {file_size} bytes)"
            )
        self.sections: dict[bytes, tuple[int, int]] = {}
        pos = F.HEADER.size
        for _ in range(nsections):
            tag, offset, size = F.SECTION_ENTRY.unpack_from(self._map, pos)
            if offset + size > file_size:
                tag_name = tag.rstrip(b"\x00").decode("ascii", "replace")
                self.close()
                raise F.ClaFormatError(
                    f"{path}: section {tag_name!r} out of bounds "
                    f"(offset={offset} size={size}, file is "
                    f"{file_size} bytes)"
                )
            self.sections[tag] = (offset, size)
            pos += F.SECTION_ENTRY.size
        str_off, str_size = self.sections.get(F.SEC_STRTAB, (0, 0))
        self.strings = F.StringReader(self._map, str_off, str_size)
        self._dynamic_base = self.sections.get(F.SEC_DYNAMIC, (0, 0))[0]

    @property
    def field_based(self) -> bool:
        return bool(self.flags & F.FLAG_FIELD_BASED)

    @property
    def linked(self) -> bool:
        return bool(self.flags & F.FLAG_LINKED)

    def close(self) -> None:
        """Release the map and file handle.  Idempotent: error paths and
        context managers may both close the same reader."""
        if self._closed:
            return
        self._closed = True
        self._map.close()
        self._file.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ObjectFileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- decoding helpers -----------------------------------------------------

    def _location(self, file_ref: int, line: int) -> Location:
        filename = self.strings.get(file_ref)
        if not filename:
            return Location.unknown()
        return Location(filename, line)

    def _read_assignment(self, pos: int) -> tuple[PrimitiveAssignment, int]:
        kind, strength, _r, dst, src, op, file_ref, line = (
            F.ASSIGNMENT_ENTRY.unpack_from(self._map, pos)
        )
        a = PrimitiveAssignment(
            kind=PrimitiveKind(kind),
            dst=self.strings.get(dst),
            src=self.strings.get(src),
            strength=Strength(strength),
            op=self.strings.get(op),
            location=self._location(file_ref, line),
        )
        return a, pos + F.ASSIGNMENT_ENTRY.size

    # -- section access --------------------------------------------------------

    def static_assignments(self) -> list[PrimitiveAssignment]:
        offset, size = self.sections.get(F.SEC_STATIC, (0, 0))
        if size == 0:
            return []
        (count,) = F.COUNT.unpack_from(self._map, offset)
        pos = offset + F.COUNT.size
        out = []
        for _ in range(count):
            a, pos = self._read_assignment(pos)
            out.append(a)
        return out

    def objects(self) -> Iterator[ProgramObject]:
        offset, size = self.sections.get(F.SEC_GLOBAL, (0, 0))
        if size == 0:
            return
        (count,) = F.COUNT.unpack_from(self._map, offset)
        pos = offset + F.COUNT.size
        for _ in range(count):
            yield self._object_at(pos)
            pos += F.OBJECT_ENTRY.size

    def _object_at(self, pos: int) -> ProgramObject:
        name, type_ref, file_ref, line, enclosing, kind, flags, _r = (
            F.OBJECT_ENTRY.unpack_from(self._map, pos)
        )
        return ProgramObject(
            name=self.strings.get(name),
            kind=ObjectKind(kind),
            type_str=self.strings.get(type_ref),
            location=self._location(file_ref, line),
            enclosing_function=self.strings.get(enclosing),
            is_global=bool(flags & F.OBJ_FLAG_GLOBAL),
            may_point=bool(flags & F.OBJ_FLAG_MAY_POINT),
            is_funcptr=bool(flags & F.OBJ_FLAG_FUNCPTR),
        )

    def object_count(self) -> int:
        offset, size = self.sections.get(F.SEC_GLOBAL, (0, 0))
        if size == 0:
            return 0
        (count,) = F.COUNT.unpack_from(self._map, offset)
        return count

    def assignment_count(self) -> int:
        """Total primitive assignments in the file (statics + all blocks)."""
        total = 0
        offset, size = self.sections.get(F.SEC_STATIC, (0, 0))
        if size:
            (count,) = F.COUNT.unpack_from(self._map, offset)
            total += count
        offset, size = self.sections.get(F.SEC_DYNIDX, (0, 0))
        if size:
            (count,) = F.COUNT.unpack_from(self._map, offset)
            pos = offset + F.COUNT.size
            for _ in range(count):
                _h, _n, block_offset, _s = F.DYNIDX_ENTRY.unpack_from(
                    self._map, pos
                )
                _name_ref, nassign, _f, _r1, _r2 = F.BLOCK_HEADER.unpack_from(
                    self._map, self._dynamic_base + block_offset
                )
                total += nassign
                pos += F.DYNIDX_ENTRY.size
        return total

    # -- hash index lookups -------------------------------------------------------

    def _index_lookup(
        self, section: bytes, entry_struct, name: str, name_field: int
    ) -> list[tuple]:
        """All index entries whose hashed name equals ``name``."""
        offset, size = self.sections.get(section, (0, 0))
        if size == 0:
            return []
        (count,) = F.COUNT.unpack_from(self._map, offset)
        base = offset + F.COUNT.size
        esize = entry_struct.size
        want = F.name_hash(name)
        # Binary search for the first entry with this hash.
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            (h,) = F.COUNT.unpack_from(self._map, base + mid * esize)
            if h < want:
                lo = mid + 1
            else:
                hi = mid
        out = []
        i = lo
        while i < count:
            entry = entry_struct.unpack_from(self._map, base + i * esize)
            if entry[0] != want:
                break
            if self.strings.get(entry[name_field]) == name:
                out.append(entry)
            i += 1
        return out

    def find_targets(self, simple_name: str) -> list[str]:
        """Canonical object names for a source-level name (target section)."""
        hits = self._index_lookup(F.SEC_TARGET, F.TARGET_ENTRY, simple_name, 1)
        return [self.strings.get(entry[2]) for entry in hits]

    def find_object(self, name: str) -> ProgramObject | None:
        """Linear-free lookup of one object's metadata by canonical name.

        Objects are sorted by name in the global section, so binary search
        works directly on the entry array.
        """
        offset, size = self.sections.get(F.SEC_GLOBAL, (0, 0))
        if size == 0:
            return None
        (count,) = F.COUNT.unpack_from(self._map, offset)
        base = offset + F.COUNT.size
        esize = F.OBJECT_ENTRY.size
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) // 2
            (name_ref,) = F.COUNT.unpack_from(self._map, base + mid * esize)
            mid_name = self.strings.get(name_ref)
            if mid_name < name:
                lo = mid + 1
            elif mid_name > name:
                hi = mid
            else:
                return self._object_at(base + mid * esize)
        return None

    def load_block(self, name: str) -> Block | None:
        """Parse one dynamic block.  Each call re-reads from the map."""
        hits = self._index_lookup(F.SEC_DYNIDX, F.DYNIDX_ENTRY, name, 1)
        if not hits:
            return None
        _h, _name_ref, block_offset, _size = hits[0]
        return self._block_at(self._dynamic_base + block_offset,
                              self.find_object)

    def blocks(
        self, objects: dict[str, ProgramObject]
    ) -> Iterator[Block]:
        """Every dynamic block, parsed in index order.

        The whole-file decode the link reads: one sequential pass with no
        per-block hash or object lookups — each block's object comes from
        ``objects`` (the decoded global section, by name)."""
        offset, size = self.sections.get(F.SEC_DYNIDX, (0, 0))
        if size == 0:
            return
        (count,) = F.COUNT.unpack_from(self._map, offset)
        pos = offset + F.COUNT.size
        for _ in range(count):
            _h, _n, block_offset, _s = F.DYNIDX_ENTRY.unpack_from(
                self._map, pos
            )
            yield self._block_at(self._dynamic_base + block_offset,
                                 objects.get)
            pos += F.DYNIDX_ENTRY.size

    def _block_at(self, pos: int, find_object) -> Block:
        obj_ref, nassign, flags, _r1, _r2 = F.BLOCK_HEADER.unpack_from(
            self._map, pos
        )
        pos += F.BLOCK_HEADER.size
        name = self.strings.get(obj_ref)
        obj = find_object(name)
        if obj is None:
            obj = ProgramObject(name=name, kind=ObjectKind.VARIABLE)
        block = Block(obj=obj)
        for _ in range(nassign):
            a, pos = self._read_assignment(pos)
            block.assignments.append(a)
        if flags & F.BLOCK_FLAG_FUNCTION:
            ret, variadic, _r, _r2b, nargs, file_ref, line = (
                F.FUNC_RECORD_HEADER.unpack_from(self._map, pos)
            )
            pos += F.FUNC_RECORD_HEADER.size
            args = []
            for _ in range(nargs):
                (ref,) = F.COUNT.unpack_from(self._map, pos)
                args.append(self.strings.get(ref))
                pos += F.COUNT.size
            block.function_record = FunctionRecord(
                function=obj.name, args=args, ret=self.strings.get(ret),
                variadic=bool(variadic),
                location=self._location(file_ref, line),
            )
        if flags & F.BLOCK_FLAG_INDIRECT:
            ret, nargs, file_ref, line = F.INDIRECT_RECORD_HEADER.unpack_from(
                self._map, pos
            )
            pos += F.INDIRECT_RECORD_HEADER.size
            args = []
            for _ in range(nargs):
                (ref,) = F.COUNT.unpack_from(self._map, pos)
                args.append(self.strings.get(ref))
                pos += F.COUNT.size
            block.indirect_record = IndirectCallRecord(
                pointer=obj.name, args=args, ret=self.strings.get(ret),
                location=self._location(file_ref, line),
            )
        return block

    def call_sites(self) -> list[CallSiteRecord]:
        """The calls section (empty for files written before it existed —
        new sections are transparently additive, §4)."""
        offset, size = self.sections.get(F.SEC_CALLS, (0, 0))
        if size == 0:
            return []
        (count,) = F.COUNT.unpack_from(self._map, offset)
        pos = offset + F.COUNT.size
        out = []
        for _ in range(count):
            caller, target, flags, _r1, _r2, file_ref, line = (
                F.CALL_ENTRY.unpack_from(self._map, pos)
            )
            out.append(CallSiteRecord(
                caller=self.strings.get(caller),
                target=self.strings.get(target),
                indirect=bool(flags & F.CALL_FLAG_INDIRECT),
                location=self._location(file_ref, line),
            ))
            pos += F.CALL_ENTRY.size
        return out

    def block_names(self) -> Iterator[str]:
        offset, size = self.sections.get(F.SEC_DYNIDX, (0, 0))
        if size == 0:
            return
        (count,) = F.COUNT.unpack_from(self._map, offset)
        pos = offset + F.COUNT.size
        for _ in range(count):
            _h, name_ref, _o, _s = F.DYNIDX_ENTRY.unpack_from(self._map, pos)
            yield self.strings.get(name_ref)
            pos += F.DYNIDX_ENTRY.size


class DatabaseStore:
    """ConstraintStore over an :class:`ObjectFileReader` with accounting.

    Every :meth:`load_block` call physically re-parses from the map (the
    reader keeps nothing); the *accounting* follows the protocol contract:
    a block's assignments count into ``loaded``/``in_core`` exactly once,
    and each re-read counts into ``reloads`` — it is real I/O under the
    discard-and-reload strategy, but not new coverage or residency, so
    ``in_core <= loaded <= in_file`` holds at all times.  The analyzer's
    :meth:`discard` report then shrinks ``in_core`` to what it retained.
    Wrap the store in :class:`repro.cla.cache.BlockCache` for an actual
    keep-or-discard retention policy with exact residency accounting.
    """

    def __init__(self, reader: ObjectFileReader):
        self.reader = reader
        self.stats = LoadStats(in_file=reader.assignment_count())
        self._object_cache: dict[str, ProgramObject | None] = {}
        self._statics: list[PrimitiveAssignment] | None = None
        self._statics_loaded = False
        self._loaded_blocks: set[str] = set()

    @classmethod
    def open(cls, path: str) -> "DatabaseStore":
        reader = ObjectFileReader(path)
        try:
            return cls(reader)
        except Exception:
            # The mmap succeeded but the store could not be built (e.g. a
            # corrupt dynamic index found while counting assignments):
            # never leak the map/file handle.
            reader.close()
            raise

    def close(self) -> None:
        self.reader.close()

    def __enter__(self) -> "DatabaseStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def static_assignments(self) -> list[PrimitiveAssignment]:
        statics = self.fetch_statics()
        if not self._statics_loaded:
            self._statics_loaded = True
            self.stats.count_load(len(statics), blocks=0)
        return statics

    def load_block(self, name: str) -> Block | None:
        block = self.reader.load_block(name)
        if block is not None:
            n = len(block.assignments)
            if name in self._loaded_blocks:
                # Real I/O (the reader re-parsed), but the block's
                # residency and coverage were already counted once.
                self.stats.count_reload(n)
            else:
                self._loaded_blocks.add(name)
                self.stats.count_load(n)
        return block

    def fetch_block(self, name: str) -> Block | None:
        """Uncounted parse — the :class:`BlockCache` accounting seam."""
        return self.reader.load_block(name)

    def fetch_statics(self) -> list[PrimitiveAssignment]:
        """The static section, parsed once and memoized (uncounted)."""
        if self._statics is None:
            self._statics = self.reader.static_assignments()
        return self._statics

    def object_names(self):
        return (obj.name for obj in self.reader.objects())

    def get_object(self, name: str) -> ProgramObject | None:
        if name not in self._object_cache:
            self._object_cache[name] = self.reader.find_object(name)
        return self._object_cache[name]

    def find_targets(self, simple_name: str) -> list[str]:
        return self.reader.find_targets(simple_name)

    def block_names(self):
        return self.reader.block_names()

    def call_sites(self):
        return self.reader.call_sites()

    def discard(self, assignments_kept: int) -> None:
        self.stats.in_core = assignments_kept
