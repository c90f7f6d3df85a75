"""Round-trip tests for the CLA binary object-file format, including
property-based tests over randomly generated databases."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.source import Location
from repro.cla import objfile as F
from repro.cla.objfile import ClaFormatError, name_hash
from repro.cla.reader import DatabaseStore, ObjectFileReader
from repro.cla.store import trigger_object
from repro.cla.writer import ObjectFileWriter
from repro.ir.objects import ObjectKind, ProgramObject
from repro.ir.primitives import (
    FunctionRecord,
    IndirectCallRecord,
    PrimitiveAssignment,
    PrimitiveKind,
)
from repro.ir.strength import Strength

# -- strategies ------------------------------------------------------------

names = st.text(
    alphabet="abcxyz_$<>:.0123456789*",
    min_size=1,
    max_size=24,
).filter(lambda s: not s.isspace())

locations = st.builds(
    Location,
    filename=st.sampled_from(["a.c", "b.c", "<unknown>", "dir/longer_name.c"]),
    line=st.integers(min_value=0, max_value=1_000_000),
)

assignments = st.builds(
    PrimitiveAssignment,
    kind=st.sampled_from(list(PrimitiveKind)),
    dst=names,
    src=names,
    strength=st.sampled_from(list(Strength)),
    op=st.sampled_from(["", "+", "*", ">>", "%"]),
    location=locations,
)

objects = st.builds(
    ProgramObject,
    name=names,
    kind=st.sampled_from(list(ObjectKind)),
    type_str=st.sampled_from(["", "int", "short *", "struct S"]),
    location=locations,
    enclosing_function=st.sampled_from(["", "f", "a.c::g"]),
    is_global=st.booleans(),
    may_point=st.booleans(),
    is_funcptr=st.booleans(),
)


def write_and_read(tmp_path, writer):
    path = str(tmp_path / "t.o")
    writer.write(path)
    return ObjectFileReader(path)


# -- unit tests ------------------------------------------------------------


class TestHeader:
    def test_flags_round_trip(self, tmp_path):
        for field_based in (True, False):
            w = ObjectFileWriter(field_based=field_based, linked=True)
            path = str(tmp_path / f"t{field_based}.o")
            w.write(path)
            with ObjectFileReader(path) as r:
                assert r.field_based == field_based
                assert r.linked

    def test_source_lines_round_trip(self, tmp_path):
        w = ObjectFileWriter()
        w.source_lines = 12345
        with write_and_read(tmp_path, w) as r:
            assert r.source_lines == 12345

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.o")
        with open(path, "wb") as f:
            f.write(b"NOTCLA__" + b"\x00" * 64)
        with pytest.raises(ClaFormatError):
            ObjectFileReader(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.o")
        open(path, "wb").close()
        with pytest.raises(ClaFormatError):
            ObjectFileReader(path)

    def test_all_sections_present(self, tmp_path):
        w = ObjectFileWriter()
        with write_and_read(tmp_path, w) as r:
            tags = {t.rstrip(b"\x00").decode() for t in r.sections}
            assert tags == {
                "strtab", "global", "static", "target", "dynamic", "dynidx",
                "calls",
            }


class TestAssignments:
    def test_static_round_trip(self, tmp_path):
        w = ObjectFileWriter()
        a = PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x",
            strength=Strength.DIRECT, location=Location("a.c", 7),
        )
        w.add_assignment(a)
        with write_and_read(tmp_path, w) as r:
            [back] = r.static_assignments()
            assert back.kind is PrimitiveKind.ADDR
            assert (back.dst, back.src) == ("p", "x")
            assert back.location == Location("a.c", 7)

    def test_block_round_trip(self, tmp_path):
        w = ObjectFileWriter()
        a = PrimitiveAssignment(
            kind=PrimitiveKind.COPY, dst="x", src="y", op="+",
            strength=Strength.STRONG, location=Location("a.c", 3),
        )
        w.add_assignment(a)
        with write_and_read(tmp_path, w) as r:
            block = r.load_block("y")
            [back] = block.assignments
            assert back.op == "+"
            assert back.strength is Strength.STRONG

    def test_assignment_count(self, tmp_path):
        w = ObjectFileWriter()
        for i in range(5):
            w.add_assignment(PrimitiveAssignment(
                kind=PrimitiveKind.COPY, dst=f"d{i}", src="s"))
        w.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"))
        with write_and_read(tmp_path, w) as r:
            assert r.assignment_count() == 6

    def test_missing_block_is_none(self, tmp_path):
        w = ObjectFileWriter()
        with write_and_read(tmp_path, w) as r:
            assert r.load_block("ghost") is None


class TestRecords:
    def test_function_record_round_trip(self, tmp_path):
        w = ObjectFileWriter()
        w._ensure_block("f").function_record = FunctionRecord(
            function="f", args=["f$arg1", "f$arg2"], ret="f$ret",
            variadic=True, location=Location("a.c", 1),
        )
        with write_and_read(tmp_path, w) as r:
            record = r.load_block("f").function_record
            assert record.args == ["f$arg1", "f$arg2"]
            assert record.ret == "f$ret"
            assert record.variadic

    def test_indirect_record_round_trip(self, tmp_path):
        w = ObjectFileWriter()
        w._ensure_block("fp").indirect_record = IndirectCallRecord(
            pointer="fp", args=["<fp>$arg1"], ret="<fp>$ret",
            location=Location("b.c", 9),
        )
        with write_and_read(tmp_path, w) as r:
            record = r.load_block("fp").indirect_record
            assert record.args == ["<fp>$arg1"]
            assert record.ret == "<fp>$ret"

    def test_both_records_one_block(self, tmp_path):
        w = ObjectFileWriter()
        block = w._ensure_block("f")
        block.function_record = FunctionRecord(
            function="f", args=[], ret="f$ret")
        block.indirect_record = IndirectCallRecord(
            pointer="f", args=[], ret="<f>$ret")
        with write_and_read(tmp_path, w) as r:
            block = r.load_block("f")
            assert block.function_record is not None
            assert block.indirect_record is not None


class TestObjects:
    def test_object_metadata_round_trip(self, tmp_path):
        w = ObjectFileWriter()
        obj = ProgramObject(
            name="a.c::f::x", kind=ObjectKind.VARIABLE, type_str="short *",
            location=Location("a.c", 4), enclosing_function="f",
            is_global=False, may_point=True, is_funcptr=False,
        )
        w._merge_object(obj.name, obj)
        with write_and_read(tmp_path, w) as r:
            back = r.find_object("a.c::f::x")
            assert back == obj
            assert back.type_str == "short *"
            assert back.enclosing_function == "f"
            assert not back.is_global

    def test_find_object_binary_search(self, tmp_path):
        w = ObjectFileWriter()
        for name in ["zeta", "alpha", "mid", "beta", "omega"]:
            w._merge_object(name, ProgramObject(name=name,
                                                kind=ObjectKind.VARIABLE))
        with write_and_read(tmp_path, w) as r:
            for name in ["alpha", "beta", "mid", "omega", "zeta"]:
                assert r.find_object(name).name == name
            assert r.find_object("nope") is None

    def test_targets_lookup(self, tmp_path):
        w = ObjectFileWriter()
        for name in ["a.c::f::v", "b.c::g::v", "w"]:
            w._merge_object(name, ProgramObject(name=name,
                                                kind=ObjectKind.VARIABLE))
        with write_and_read(tmp_path, w) as r:
            assert sorted(r.find_targets("v")) == ["a.c::f::v", "b.c::g::v"]
            assert r.find_targets("w") == ["w"]
            assert r.find_targets("zzz") == []


class TestDatabaseStore:
    def _database(self, tmp_path) -> str:
        w = ObjectFileWriter()
        w.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"))
        w.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.COPY, dst="q", src="p"))
        path = str(tmp_path / "db.o")
        w.write(path)
        return path

    def test_load_accounting(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        assert store.stats.in_file == 2
        store.static_assignments()
        assert store.stats.loaded == 1
        store.load_block("p")
        assert store.stats.loaded == 2
        assert store.stats.in_core == 2
        # Re-reading is real I/O (the reader keeps nothing) but counts as
        # a reload, never as new coverage or residency — otherwise
        # in_core could exceed in_file.
        store.load_block("p")
        assert store.stats.loaded == 2
        assert store.stats.in_core == 2
        assert store.stats.reloads == 1
        assert store.stats.blocks_reloaded == 1
        store.load_block("p")
        assert store.stats.reloads == 2
        assert store.stats.in_core <= store.stats.loaded <= store.stats.in_file
        store.close()

    def test_static_assignments_memoized(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        first = store.static_assignments()
        assert store.static_assignments() is first
        assert store.fetch_statics() is first
        # Counted once, no matter how often the section is consulted.
        assert store.stats.loaded == 1
        store.close()

    def test_fetch_block_uncounted(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        block = store.fetch_block("p")
        assert block is not None
        assert store.stats.loaded == 0
        assert store.stats.in_core == 0
        store.close()

    def test_close_idempotent(self, tmp_path):
        store = DatabaseStore.open(self._database(tmp_path))
        assert not store.reader.closed
        store.close()
        assert store.reader.closed
        store.close()  # second close is a no-op, not a crash

    def test_context_manager_closes(self, tmp_path):
        with DatabaseStore.open(self._database(tmp_path)) as store:
            reader = store.reader
        assert reader.closed


class TestEnumWidthGuard:
    """serialize() refuses enums that no longer fit the one-byte entry
    slots, instead of silently truncating through struct packing."""

    def test_normal_enums_serialize(self):
        w = ObjectFileWriter()
        w.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"))
        assert w.serialize()  # both enums fit a byte today

    def test_wide_member_rejected(self, monkeypatch):
        import enum

        import repro.cla.writer as writer_mod

        class WidePrimitiveKind(enum.IntEnum):
            COPY = 0
            OVERFLOW = 256  # one past the byte slot

        monkeypatch.setattr(writer_mod, "PrimitiveKind", WidePrimitiveKind)
        w = ObjectFileWriter()
        with pytest.raises(ClaFormatError) as excinfo:
            w.serialize()
        message = str(excinfo.value)
        assert "WidePrimitiveKind.OVERFLOW" in message
        assert "one-byte" in message

    def test_negative_member_rejected(self, monkeypatch):
        import enum

        import repro.cla.writer as writer_mod

        class SignedObjectKind(enum.IntEnum):
            BOGUS = -1

        monkeypatch.setattr(writer_mod, "ObjectKind", SignedObjectKind)
        w = ObjectFileWriter()
        with pytest.raises(ClaFormatError):
            w.serialize()


def test_name_hash_stable():
    assert name_hash("x") == name_hash("x")
    assert name_hash("x") != name_hash("y")


class TestCorruptDatabases:
    """Malformed files raise ClaFormatError with the path in the message —
    never a bare struct.error from a short or garbage read."""

    def valid_bytes(self, tmp_path) -> bytes:
        w = ObjectFileWriter()
        w.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"))
        path = str(tmp_path / "valid.o")
        w.write(path)
        with open(path, "rb") as f:
            return f.read()

    def expect_format_error(self, path: str, fragment: str):
        with pytest.raises(ClaFormatError) as excinfo:
            ObjectFileReader(path)
        message = str(excinfo.value)
        assert path in message
        assert fragment in message

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "short.o")
        with open(path, "wb") as f:
            f.write(self.valid_bytes(tmp_path)[:7])
        self.expect_format_error(path, "truncated header")

    def test_truncated_section_table(self, tmp_path):
        data = self.valid_bytes(tmp_path)
        path = str(tmp_path / "cut.o")
        with open(path, "wb") as f:
            f.write(data[:F.HEADER.size + 4])
        self.expect_format_error(path, "truncated section table")

    def test_unsupported_version(self, tmp_path):
        data = bytearray(self.valid_bytes(tmp_path))
        data[4:6] = (99).to_bytes(2, "little")
        path = str(tmp_path / "future.o")
        with open(path, "wb") as f:
            f.write(data)
        self.expect_format_error(path, "version")

    def test_section_out_of_bounds(self, tmp_path):
        data = bytearray(self.valid_bytes(tmp_path))
        # First section entry: tag(8) offset(8) size(8) after the header;
        # blow up its size so offset + size overruns the file.
        size_at = F.HEADER.size + 16
        data[size_at:size_at + 8] = (1 << 40).to_bytes(8, "little")
        path = str(tmp_path / "oob.o")
        with open(path, "wb") as f:
            f.write(data)
        self.expect_format_error(path, "out of bounds")

    def test_random_garbage(self, tmp_path):
        path = str(tmp_path / "garbage.o")
        with open(path, "wb") as f:
            f.write(bytes(range(256)) * 2)
        self.expect_format_error(path, "bad magic")


# -- property-based round trip ------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.lists(assignments, max_size=30), st.lists(objects, max_size=15))
def test_database_round_trip(tmp_path_factory, assigns, objs):
    """Any database survives write -> mmap read unchanged."""
    tmp = tmp_path_factory.mktemp("objfile")
    w = ObjectFileWriter()
    for obj in objs:
        w._merge_object(obj.name, obj)
    for a in assigns:
        w.add_assignment(a)
    path = str(tmp / "prop.o")
    w.write(path)
    with ObjectFileReader(path) as r:
        # Every written object is findable with identical metadata.
        merged = {o.name: o for o in objs}
        for name, obj in list(merged.items())[:5]:
            back = r.find_object(name)
            assert back is not None
            assert back.kind == w.objects[name].kind
        # Assignment multiset is preserved.
        def key(a):
            return (a.kind, a.dst, a.src, a.strength, a.op,
                    a.location.filename if not a.location.is_unknown else "",
                    a.location.line if not a.location.is_unknown else 0)

        originals = sorted(key(a) for a in assigns)
        read_back = [a for a in r.static_assignments()]
        for block_name in r.block_names():
            read_back.extend(r.load_block(block_name).assignments)
        assert sorted(key(a) for a in read_back) == originals
        # Every non-static assignment landed in its trigger's block.
        for a in assigns:
            trigger = trigger_object(a)
            if trigger is not None:
                block = r.load_block(trigger)
                assert any(key(b) == key(a) for b in block.assignments)


# -- atomic writes ------------------------------------------------------------


class TestAtomicWrite:
    """write() must be atomic: an interrupted write can never leave a
    truncated file at the final path (the content-keyed Workspace cache
    would reuse it forever)."""

    def _writer(self) -> ObjectFileWriter:
        w = ObjectFileWriter()
        w.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="p", src="x"))
        return w

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.o"
        self._writer().write(str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.o"]

    def test_failed_replace_preserves_existing_file(self, tmp_path,
                                                    monkeypatch):
        """A write that dies before the rename leaves the old file
        intact and cleans up its temp file."""
        import os as _os

        path = tmp_path / "out.o"
        self._writer().write(str(path))
        before = path.read_bytes()

        def boom(src, dst):
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr("repro.cla.writer.os.replace", boom)
        w2 = self._writer()
        w2.add_assignment(PrimitiveAssignment(
            kind=PrimitiveKind.ADDR, dst="q", src="y"))
        with pytest.raises(OSError):
            w2.write(str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.o"]
        # and the surviving file still opens
        ObjectFileReader(str(path)).close()
        assert _os.path.exists(path)

    def test_temp_file_in_same_directory(self, tmp_path, monkeypatch):
        """The temp file must share the target's directory: os.replace
        across filesystems is not atomic (it degrades to copy+delete)."""
        seen = {}
        real_mkstemp = __import__("tempfile").mkstemp

        def spy(*args, **kwargs):
            seen["dir"] = kwargs.get("dir")
            return real_mkstemp(*args, **kwargs)

        monkeypatch.setattr("repro.cla.writer.tempfile.mkstemp", spy)
        target = tmp_path / "sub"
        target.mkdir()
        self._writer().write(str(target / "out.o"))
        assert seen["dir"] == str(target)
