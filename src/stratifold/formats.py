"""Text formats: graph files, presentation files, words, manifold expressions.

All formats are UTF-8 and line-oriented where applicable.  Parsers report
the first problem with its 1-based line number; serializers emit the
deterministic normal form that the parsers map back to the same object.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .graph import BlackVertex, Edge, StratifoldGraph, WhiteVertex
from .presentation import GENERATOR_ROLES, Generator, GroupPresentation, Word
from .spine import SUMMAND_KINDS, ManifoldExpr, Summand

# a word syllable: a name (no whitespace, '^' or '#') with an optional exponent
_SYLLABLE_RE = re.compile(r"^(?P<name>[^\s^#]+)(?:\^(?P<exp>[+-]?\d+))?$")
_LENS_RE = re.compile(r"^L\(\s*(?P<q>[+-]?\d+)\s*\)$")
# a character that would split or end a token of the text formats
_UNWRITABLE_RE = re.compile(r"[\s#]")

_EXPR_NAMES = {str(Summand(k)): k for k in SUMMAND_KINDS if k != "lens"}


def _parse_int(token: str, num: int, what: str) -> int:
    # an optional sign, then decimal digits: int() alone would also take
    # "1_0" and surrounding whitespace
    digits = token[1:] if token[0] in "+-" else token
    if not digits.isdecimal():
        raise ParseError(f"line {num}: {what} must be an integer, got {token!r}")
    return int(token)


def _check_token(token: str, what: str):
    if not token or _UNWRITABLE_RE.search(token):
        raise ParseError(f"{what} {token!r} is not representable in the text format")


# -- graphs ----------------------------------------------------------------


def parse_graph(text: str) -> StratifoldGraph:
    """Parse the line-oriented graph format.

    Lines are `white <id> genus <int>`, `black <id>`, or
    `edge <id> <white-id> <black-id> <label>`; '#' starts a comment.
    Raises :class:`ParseError` with the line number of the first syntax
    error, duplicate id, or dangling edge endpoint.
    """
    whites: list[WhiteVertex] = []
    blacks: list[BlackVertex] = []
    edges: list[tuple[int, Edge]] = []
    # id -> the line that declared it, one namespace per kind
    white_ids: dict[str, int] = {}
    black_ids: dict[str, int] = {}
    edge_ids: dict[str, int] = {}

    for num, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "white":
            if len(tokens) != 4 or tokens[2] != "genus":
                raise ParseError(f"line {num}: expected 'white <id> genus <int>'")
            first = white_ids.setdefault(tokens[1], num)
            if first != num:
                raise _duplicate("white", tokens[1], num, first)
            whites.append(WhiteVertex(tokens[1], _parse_int(tokens[3], num, "genus")))
        elif head == "black":
            if len(tokens) != 2:
                raise ParseError(f"line {num}: expected 'black <id>'")
            first = black_ids.setdefault(tokens[1], num)
            if first != num:
                raise _duplicate("black", tokens[1], num, first)
            blacks.append(BlackVertex(tokens[1]))
        elif head == "edge":
            if len(tokens) != 5:
                raise ParseError(
                    f"line {num}: expected 'edge <id> <white-id> <black-id> <label>'")
            first = edge_ids.setdefault(tokens[1], num)
            if first != num:
                raise _duplicate("edge", tokens[1], num, first)
            label = _parse_int(tokens[4], num, "label")
            edges.append((num, Edge(tokens[1], tokens[2], tokens[3], label)))
        else:
            raise ParseError(f"line {num}: unknown directive {head!r}")

    # endpoint resolution is a second pass so declaration order is free
    for num, e in edges:
        if e.white not in white_ids:
            raise ParseError(f"line {num}: edge {e.id!r} has a dangling"
                             f" white endpoint {e.white!r}")
        if e.black not in black_ids:
            raise ParseError(f"line {num}: edge {e.id!r} has a dangling"
                             f" black endpoint {e.black!r}")
    return StratifoldGraph(whites, blacks, [e for _, e in edges])


def _duplicate(kind: str, ident: str, num: int, first: int) -> ParseError:
    return ParseError(f"line {num}: duplicate {kind} id {ident!r}"
                      f" (first declared on line {first})")


def serialize_graph(graph: StratifoldGraph) -> str:
    """Emit the graph format, lines sorted by (kind, id).

    ``parse_graph(serialize_graph(g)) == g`` for every representable graph
    (ids free of whitespace and '#').
    """
    out: list[str] = []
    for b in graph.blacks:
        _check_token(b.id, "black id")
        out.append(f"black {b.id}")
    for e in graph.edges:
        _check_token(e.id, "edge id")
        out.append(f"edge {e.id} {e.white} {e.black} {e.label}")
    for w in graph.whites:
        _check_token(w.id, "white id")
        out.append(f"white {w.id} genus {w.genus}")
    return "\n".join(out) + ("\n" if out else "")


# -- words and presentations -------------------------------------------------


def parse_word(text: str) -> Word:
    """Parse `a^2 b^-1 c` (caret optional for exponent 1); "" is the empty word."""
    syllables: list[tuple[str, int]] = []
    for token in text.split():
        m = _SYLLABLE_RE.match(token)
        if not m:
            raise ParseError(f"bad word syllable {token!r}")
        exp = m.group("exp")
        syllables.append((m.group("name"), 1 if exp is None else int(exp)))
    return Word(tuple(syllables))


def format_word(word: Word) -> str:
    """Inverse of :func:`parse_word` on reduced words; empty word is ""."""
    parts = []
    for name, exp in word.syllables:
        _check_token(name, "generator name")
        if "^" in name:
            raise ParseError(f"generator name {name!r} is not representable"
                             " in the text format")
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def parse_presentation(text: str) -> GroupPresentation:
    """Parse `gen <name> <role>` and `rel <word>` lines ('#' comments allowed).

    A bare `rel` line denotes the empty relator.  Relators may only use
    declared generator names.
    """
    gens: list[Generator] = []
    declared: dict[str, int] = {}
    rel_lines: list[tuple[int, str]] = []
    for num, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split(None, 1)
        if not tokens:
            continue
        head = tokens[0]
        rest = tokens[1] if len(tokens) > 1 else ""
        if head == "gen":
            parts = rest.split()
            if len(parts) != 2:
                raise ParseError(f"line {num}: expected 'gen <name> <role>'")
            name, role = parts
            if role not in GENERATOR_ROLES:
                raise ParseError(f"line {num}: unknown role {role!r}"
                                 f" (expected one of {', '.join(GENERATOR_ROLES)})")
            if name in declared:
                raise ParseError(f"line {num}: duplicate generator {name!r}"
                                 f" (first declared on line {declared[name]})")
            declared[name] = num
            gens.append(Generator(name, role))
        elif head == "rel":
            rel_lines.append((num, rest))
        else:
            raise ParseError(f"line {num}: unknown directive {head!r}")

    relators: list[Word] = []
    for num, rest in rel_lines:
        try:
            w = parse_word(rest)
        except ParseError as exc:
            raise ParseError(f"line {num}: {exc}") from None
        missing = w.names() - declared.keys()
        if missing:
            raise ParseError(f"line {num}: relator uses undeclared"
                             f" generators {sorted(missing)}")
        relators.append(w)
    return GroupPresentation(tuple(gens), tuple(relators))


def serialize_presentation(pres: GroupPresentation) -> str:
    """Emit gen lines then rel lines, preserving declaration order."""
    out = []
    for g in pres.generators:
        _check_token(g.name, "generator name")
        out.append(f"gen {g.name} {g.role}")
    for r in pres.relators:
        w = format_word(r)
        out.append(f"rel {w}" if w else "rel")
    return "\n".join(out) + ("\n" if out else "")


# -- manifold expressions ----------------------------------------------------


def parse_expr(text: str) -> ManifoldExpr:
    """Parse `term (" # " term)*` with terms L(q), S2xS1, S2~xS1, P2xS1, S3.

    L(q) with q < 2 is a :class:`DomainError`; "S3" parses (rejection is
    the spine builder's job).
    """
    if not text.strip():
        raise ParseError("empty manifold expression")
    summands: list[Summand] = []
    for part in text.split("#"):
        term = part.strip()
        if not term:
            raise ParseError("empty summand in manifold expression")
        m = _LENS_RE.match(term)
        if m:
            summands.append(Summand("lens", int(m.group("q"))))
        elif term in _EXPR_NAMES:
            summands.append(Summand(_EXPR_NAMES[term]))
        else:
            raise ParseError(f"unknown summand {term!r}")
    return ManifoldExpr(tuple(summands))


def format_expr(expr: ManifoldExpr) -> str:
    """Canonical text for an expression (summands in sorted order)."""
    return str(expr)
