"""Tests for the C type representations."""

from repro.cfront.ctypes import (
    ArrayType,
    EnumType,
    Field,
    FloatType,
    FunctionType,
    IntType,
    Param,
    PointerType,
    StructType,
    UnionType,
    UnknownType,
    VoidType,
    anon_tag,
    with_qualifiers,
)
from repro.cfront.source import Location


class TestScalars:
    def test_int_sizes_ilp32(self):
        assert IntType("char").size == 1
        assert IntType("short").size == 2
        assert IntType("int").size == 4
        assert IntType("long").size == 4
        assert IntType("long long").size == 8

    def test_float_sizes(self):
        assert FloatType("float").size == 4
        assert FloatType("double").size == 8

    def test_str_rendering(self):
        assert str(IntType("short")) == "short"
        assert str(IntType("int", signed=False)) == "unsigned int"
        assert str(VoidType()) == "void"
        assert str(PointerType(IntType())) == "int *"
        assert str(ArrayType(IntType(), 4)) == "int[4]"

    def test_integral_predicate(self):
        assert IntType().is_integral()
        assert EnumType(tag="E").is_integral()
        assert not FloatType().is_integral()


class TestShapePredicates:
    def test_pointer(self):
        assert PointerType(IntType()).is_pointer()
        assert not IntType().is_pointer()

    def test_array_strip(self):
        t = ArrayType(ArrayType(IntType("short"), 3), 2)
        assert isinstance(t.strip(), IntType)
        assert t.strip().kind == "short"

    def test_pointee(self):
        t = PointerType(IntType())
        assert isinstance(t.pointee(), IntType)
        assert IntType().pointee() is None

    def test_array_of_pointers_pointee(self):
        t = ArrayType(PointerType(IntType()), 4)
        assert isinstance(t.pointee(), IntType)


class TestMayHoldPointer:
    def test_pointer_yes(self):
        assert PointerType(VoidType()).may_hold_pointer()

    def test_int_no(self):
        assert not IntType().may_hold_pointer()
        assert not FloatType().may_hold_pointer()

    def test_aggregate_yes(self):
        assert StructType(tag="S").may_hold_pointer()
        assert UnionType(tag="U").may_hold_pointer()

    def test_unknown_conservative(self):
        assert UnknownType().may_hold_pointer()

    def test_array_of_pointers_yes(self):
        assert ArrayType(PointerType(IntType()), 2).may_hold_pointer()

    def test_array_of_ints_no(self):
        assert not ArrayType(IntType(), 2).may_hold_pointer()


class TestStructs:
    def test_completion(self):
        s = StructType(tag="S")
        assert not s.is_complete
        s.fields = [Field("x", IntType())]
        assert s.is_complete

    def test_field_lookup(self):
        s = StructType(tag="S", fields=[
            Field("a", IntType()), Field("b", PointerType(IntType())),
        ])
        assert s.field_named("a").type.kind == "int"
        assert s.field_named("missing") is None

    def test_anonymous_member_lookup(self):
        inner = UnionType(tag="<anon>", fields=[Field("u", IntType())])
        s = StructType(tag="S", fields=[Field("", inner)])
        assert s.field_named("u") is not None

    def test_identity_equality(self):
        a = StructType(tag="S", fields=[])
        b = StructType(tag="S", fields=[])
        assert a != b  # tagged aggregates compare by identity
        assert a == a

    def test_union_kind_name(self):
        assert UnionType(tag="U").kind_name == "union"
        assert "union U" in str(UnionType(tag="U"))

    def test_anon_tags_named_by_location(self):
        here = Location("h.h", 3, 9)
        assert anon_tag("struct", here) == anon_tag("struct", here)
        assert anon_tag("struct", here).startswith("<anonymous")
        assert anon_tag("struct", here) != anon_tag("struct", here, 1)
        assert anon_tag("struct", here) != anon_tag("union", here)
        assert anon_tag("struct", here) != \
            anon_tag("struct", Location("h.h", 3, 10))

    def test_bitfield_render(self):
        f = Field("flags", IntType(), bitwidth=3)
        assert str(f) == "int flags : 3"


class TestFunctionTypes:
    def test_render(self):
        t = FunctionType(IntType(), (Param("a", IntType()),), False)
        assert str(t) == "int (*)(int a)"

    def test_variadic_render(self):
        t = FunctionType(IntType(), (Param(None, IntType()),), True)
        assert "..." in str(t)

    def test_unspecified_render(self):
        t = FunctionType(IntType(), (), False, unspecified_params=True)
        assert str(t) == "int (*)()"

    def test_void_params_render(self):
        t = FunctionType(VoidType(), (), False)
        assert str(t) == "void (*)(void)"


class TestQualifiers:
    def test_with_qualifiers_int(self):
        t = with_qualifiers(IntType(), {"const"})
        assert "const" in t.qualifiers
        assert str(t) == "const int"

    def test_empty_is_identity(self):
        t = IntType()
        assert with_qualifiers(t, set()) is t

    def test_aggregates_unchanged(self):
        s = StructType(tag="S")
        assert with_qualifiers(s, {"const"}) is s

    def test_pointer_qualified(self):
        t = with_qualifiers(PointerType(IntType()), {"volatile"})
        assert "volatile" in t.qualifiers
