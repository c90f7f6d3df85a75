"""C frontend: lexer, preprocessor, parser, AST and types.

This is the substrate for the paper's *compile* phase: it turns raw
(unpreprocessed) C source into ASTs from which primitive assignments are
extracted.  The paper used the ckit SML frontend; this is a from-scratch
Python equivalent.

Typical use::

    from repro.cfront import parse_c

    unit = parse_c("int x, *p; void f(void) { p = &x; }", filename="a.c")
"""

from __future__ import annotations

from . import cast
from .ctypes import (
    ArrayType,
    CType,
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
)
from .errors import CFrontError, LexError, ParseError, PreprocessorError
from .lexer import Lexer, Token, TokenKind, tokenize, tokenize_text
from .parser import Parser, parse_tokens
from .preprocessor import BUILTIN_HEADERS, IncludeResolver, Macro, Preprocessor
from .source import Location, SourceFile, count_source_lines
from .unparse import Unparser, declaration, unparse, unparse_expr

__all__ = [
    "cast",
    "ArrayType", "CType", "EnumType", "Field", "FloatType", "FunctionType",
    "IntType", "Param", "PointerType", "StructType", "UnionType",
    "UnknownType", "VoidType",
    "CFrontError", "LexError", "ParseError", "PreprocessorError",
    "Lexer", "Token", "TokenKind", "tokenize", "tokenize_text",
    "Parser", "parse_tokens",
    "BUILTIN_HEADERS", "IncludeResolver", "Macro", "Preprocessor",
    "Location", "SourceFile", "count_source_lines",
    "Unparser", "declaration", "unparse", "unparse_expr",
    "parse_c", "parse_file",
]


def parse_c(
    text: str,
    filename: str = "<string>",
    resolver: IncludeResolver | None = None,
    predefined: dict[str, str] | None = None,
    tolerant: bool = False,
) -> cast.TranslationUnit:
    """Preprocess and parse a string of C source.

    ``resolver`` supplies ``#include`` search paths / virtual files;
    ``predefined`` adds ``-D``-style macro definitions; ``tolerant``
    recovers from unparseable external declarations instead of raising
    (recovered errors land in ``unit.diagnostics``).
    """
    pp = Preprocessor(resolver=resolver, predefined=predefined,
                      tolerant=tolerant)
    tokens = pp.preprocess(SourceFile(filename, text))
    if pp.prefix is not None and pp.prefix.parsed:
        pp.resolver.prefix_hits += 1
    return parse_tokens(tokens, filename, tolerant=tolerant, prefix=pp.prefix)


def parse_file(
    path: str,
    resolver: IncludeResolver | None = None,
    predefined: dict[str, str] | None = None,
) -> cast.TranslationUnit:
    """Preprocess and parse a C file from disk."""
    with open(path, "r", errors="replace") as f:
        text = f.read()
    return parse_c(text, filename=path, resolver=resolver,
                   predefined=predefined)
