"""The CLA object-file format.

A COFF/ELF-like sectioned binary container (§4, Figure 4):

========  ==================================================================
section   contents
========  ==================================================================
strtab    deduplicated NUL-terminated strings (the *string section*)
global    object metadata + linking information (the *global section*)
static    address-of assignments ``x = &y``; always loaded for points-to
target    hashtable: source-level name -> canonical objects (*target
          section*), for finding dependence-analysis targets in one lookup
dynamic   per-object blocks, loaded on demand: the object's triggered
          assignments plus its function / indirect-call records
dynidx    hash index: canonical object name -> block offset, so the
          relevant assignments for a variable are found in one lookup step
========  ==================================================================

All integers are little-endian.  Strings are referenced by byte offset into
``strtab``.  Hash indexes are sorted by CRC32 of the name and binary
searched directly over the mmap, so a reader touches only the pages it
needs.
"""

from __future__ import annotations

import struct
import zlib

MAGIC = b"CLA1"
VERSION = 1

FLAG_FIELD_BASED = 0x0001
FLAG_LINKED = 0x0002

SEC_STRTAB = b"strtab\x00\x00"
SEC_GLOBAL = b"global\x00\x00"
SEC_STATIC = b"static\x00\x00"
SEC_TARGET = b"target\x00\x00"
SEC_DYNAMIC = b"dynamic\x00"
SEC_DYNIDX = b"dynidx\x00\x00"
#: Added after the original six sections — old readers simply ignore it
#: (the paper's "new sections can be transparently added" property).
SEC_CALLS = b"calls\x00\x00\x00"

#: magic, version, flags, nsections, reserved32, source_lines, reserved64
HEADER = struct.Struct("<4sHHLLQQ")
#: tag, offset, size
SECTION_ENTRY = struct.Struct("<8sQQ")

#: name_ref, type_ref, file_ref, line, enclosing_ref, kind, flags, reserved
OBJECT_ENTRY = struct.Struct("<LLLLLBBH")
OBJ_FLAG_GLOBAL = 0x01
OBJ_FLAG_MAY_POINT = 0x02
OBJ_FLAG_FUNCPTR = 0x04

#: kind, strength, reserved, dst_ref, src_ref, op_ref, file_ref, line
ASSIGNMENT_ENTRY = struct.Struct("<BBHLLLLL")

#: hash, simple_name_ref, object_name_ref
TARGET_ENTRY = struct.Struct("<LLL")

#: caller_ref, target_ref, flags, reserved8, reserved16, file_ref, line
CALL_ENTRY = struct.Struct("<LLBBHLL")
CALL_FLAG_INDIRECT = 0x01

#: hash, name_ref, block_offset, block_size
DYNIDX_ENTRY = struct.Struct("<LLQL")

#: obj_name_ref, n_assignments, flags, reserved
BLOCK_HEADER = struct.Struct("<LLBBH")
BLOCK_FLAG_FUNCTION = 0x01
BLOCK_FLAG_INDIRECT = 0x02

#: ret_ref, variadic, reserved, n_args, file_ref, line  (args follow)
FUNC_RECORD_HEADER = struct.Struct("<LBBHLLL")
#: ret_ref, n_args, file_ref, line  (args follow)
INDIRECT_RECORD_HEADER = struct.Struct("<LLLL")

COUNT = struct.Struct("<L")


def name_hash(name: str) -> int:
    """Stable 32-bit hash used by the target and dynidx indexes."""
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


class StringTable:
    """Builds a deduplicated string section; refs are byte offsets."""

    def __init__(self):
        self._offsets: dict[str, int] = {}
        self._chunks: list[bytes] = []
        self._size = 0
        self.intern("")  # ref 0 is always the empty string

    def intern(self, s: str) -> int:
        ref = self._offsets.get(s)
        if ref is not None:
            return ref
        data = s.encode("utf-8") + b"\x00"
        ref = self._size
        self._offsets[s] = ref
        self._chunks.append(data)
        self._size += len(data)
        return ref

    def data(self) -> bytes:
        return b"".join(self._chunks)


class StringReader:
    """Reads strings out of a strtab slice of an mmap'd file."""

    def __init__(self, buf, base: int, size: int):
        self._buf = buf
        self._base = base
        self._end = base + size
        self._cache: dict[int, str] = {}

    def get(self, ref: int) -> str:
        hit = self._cache.get(ref)
        if hit is not None:
            return hit
        start = self._base + ref
        end = self._buf.find(b"\x00", start, self._end)
        if end == -1:
            end = self._end
        s = bytes(self._buf[start:end]).decode("utf-8", errors="replace")
        self._cache[ref] = s
        return s


class ClaFormatError(Exception):
    """The file is not a valid CLA database.

    Raised with the offending path in the message; the CLI renders it as
    a one-line error instead of a traceback.
    """

