"""Group presentations read off stratifold graphs.

The fundamental group of a 2-stratifold has a presentation determined by
the graph and a spanning tree: one generator per black vertex (the branch
circle) and per surface loop, one stable letter per edge outside the
tree, and one relator per white vertex, in which each boundary circle is
written as a power of its branch circle.  This module builds that
presentation, the one-relator-per-period presentations of F-groups
(groups of orientation preserving isometries of surfaces with cone
points, in the Lyndon-Schupp sense), and a bounded Tietze simplifier
for any presentation.  The order oracle in the algebra module only
deletes the generators its relators prove trivial, and H1 is read off
what it leaves; the simplifier is the independent reference that both
are checked against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DomainError, GraphError
from .graph import StratifoldGraph, WhiteVertex, BlackVertex, Edge, _tree_labels

GENERATOR_ROLES = ("black", "boundary", "surface", "stable", "period")

DEFAULT_SIMPLIFY_BUDGET = 10_000

# the most surface loops natural_presentation writes, 2g for each
# orientable white of genus g and |g| for each nonorientable one; each loop
# is a generator and a syllable or two of its white's relator, so a genus
# past this cap ends in DomainError instead of in exhausted memory
MAX_SURFACE_LOOPS = 1_000_000


@dataclass(frozen=True)
class Generator:
    name: str
    role: str

    def __post_init__(self):
        if self.role not in GENERATOR_ROLES:
            raise ValueError(f"unknown generator role {self.role!r}")


def _reduce(syllables):
    out: list[tuple[str, int]] = []
    for name, exp in syllables:
        if out and out[-1][0] == name:
            exp += out.pop()[1]
        if exp:
            out.append((name, exp))
    return tuple(out)


def _cyclic(syllables):
    """The cyclic reduction of a reduced syllable tuple: the first and the
    last syllable merge while they hold one name.  An unchanged tuple is
    returned itself."""
    s = syllables
    while len(s) > 1 and s[0][0] == s[-1][0]:
        # the merged syllable lands next to one of another name
        exp = s[0][1] + s[-1][1]
        s = s[1:-1] + ((s[0][0], exp),) if exp else s[1:-1]
    return s


def _inverse(syllables):
    # built from a list at its final size: CPython resizes the tuple of a
    # generator, and keeps the block on a free list until a full collection
    return tuple([(n, -e) for n, e in reversed(syllables)])


def _substitute(syllables, name: str, replacement):
    """The reduced syllables of a word with each ``name^e`` replaced by
    ``replacement^e``; the arguments are reduced syllable tuples."""
    out: list[tuple[str, int]] = []
    for n, e in syllables:
        if n != name:
            out.append((n, e))
        elif len(replacement) == 1:
            out.append((replacement[0][0], replacement[0][1] * e))
        else:
            out.extend((replacement if e > 0 else _inverse(replacement)) * abs(e))
    return _reduce(out)


@dataclass(frozen=True)
class Word:
    """Freely reduced word, stored as (generator name, exponent) syllables.

    >>> Word((("a", 2), ("a", -2), ("b", 1))).syllables
    (('b', 1),)
    """

    syllables: tuple[tuple[str, int], ...]

    def __init__(self, syllables=()):
        object.__setattr__(self, "syllables", _reduce(syllables))

    @property
    def is_empty(self):
        return not self.syllables

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(_inverse(self.syllables))

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)

    def names(self) -> set[str]:
        return {n for n, _ in self.syllables}

    def substitute(self, name: str, replacement: "Word") -> "Word":
        return Word(_substitute(self.syllables, name, replacement.syllables))

    def cyclically_reduced(self) -> "Word":
        s = _cyclic(self.syllables)
        return self if s is self.syllables else Word(s)


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[Generator, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        names = [g.name for g in self.generators]
        declared = set(names)
        if len(declared) != len(names):
            raise ValueError("duplicate generator names")
        for r in self.relators:
            for n, _ in r.syllables:
                if n not in declared:
                    missing = sorted(r.names() - declared)
                    raise ValueError(f"relator uses undeclared generators {missing}")

    def generator_names(self) -> tuple[str, ...]:
        return tuple([g.name for g in self.generators])


@dataclass(frozen=True)
class FSignature:
    """Base surface genus (Neumann convention) plus cone-point periods."""

    genus: int
    periods: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        for m in self.periods:
            if m < 2:
                raise ValueError(f"period {m} < 2")


def _surface_word(prefix: str, genus: int) -> tuple[list, list[str]]:
    """The reduced syllables of the boundary-of-polygon word q and the
    surface generator names, ``<prefix>1``, ``<prefix>2``, ..."""
    if genus >= 0:
        names = [f"{prefix}{j}" for j in range(1, 2 * genus + 1)]
        sylls = []
        for i in range(genus):
            a, b = names[2 * i], names[2 * i + 1]
            sylls += [(a, 1), (b, 1), (a, -1), (b, -1)]
        return sylls, names
    names = [f"{prefix}{j}" for j in range(1, -genus + 1)]
    return [(n, 2) for n in names], names


def natural_presentation(graph: StratifoldGraph) -> GroupPresentation:
    """Presentation of the fundamental group over the BFS spanning tree.

    Generators (in this order): ``b.<black>`` per black vertex;
    ``y.<white>.<j>`` per surface loop, grouped by white vertex;
    ``t.<edge>`` per non-tree edge.

    Relators: one per white vertex, the surface relation s_1...s_p q = 1
    with q the genus word and s_i its boundary circles in edge-id order.
    A boundary circle glued with label m to the branch circle b is b^m
    when its edge is in the tree and t b^m t^-1 (t its stable letter)
    when it is not.  This is the presentation with one generator s per
    boundary circle, defined by the gluing relator s^-1 b^m or
    t^-1 s t b^-m, after the Tietze moves that substitute each definition
    into the white's relator and delete s with its relator.

    The graph is presented as given: the labels m are those that
    :func:`stratifold.graph.normalize` gives, read off the tree's own walk.
    Requires a connected graph with no label 0 on a tree edge, and at most
    :data:`MAX_SURFACE_LOOPS` surface loops in all, checked before any
    word is built; more raise DomainError.
    """
    loops = sum(2 * w.genus if w.genus >= 0 else -w.genus for w in graph.whites)
    if loops > MAX_SURFACE_LOOPS:
        raise DomainError(f"the surfaces have {loops} loops, more than the"
                          f" {MAX_SURFACE_LOOPS} a presentation may write")
    tree, labels = _tree_labels(graph)
    for eid in sorted(tree):
        if not labels[eid]:
            raise GraphError(f"tree edge {eid} has label 0")
    gens = [Generator(f"b.{b.id}", "black") for b in graph.blacks]
    relators: list[Word] = []
    for w in graph.whites:
        sylls = []
        for eid in graph.edges_at_white(w.id):
            circle = (f"b.{graph.edge(eid).black}", labels[eid])
            sylls += [circle] if eid in tree else [(f"t.{eid}", 1), circle, (f"t.{eid}", -1)]
        q, names = _surface_word(f"y.{w.id}.", w.genus)
        gens += [Generator(n, "surface") for n in names]
        relators.append(Word(sylls + q))
    gens += [Generator(f"t.{e.id}", "stable") for e in graph.edges if e.id not in tree]
    return GroupPresentation(tuple(gens), tuple(relators))


def fgroup_presentation(sig: FSignature) -> GroupPresentation:
    """The one-relator-per-period presentation of the F-group of ``sig``:

    < c_1..c_p, y_1..y_n | c_i^{m_i}, c_1...c_p q >   with q the genus word.
    """
    p = len(sig.periods)
    gens = [Generator(f"c{i}", "period") for i in range(1, p + 1)]
    q, names = _surface_word("y", sig.genus)
    gens += [Generator(n, "surface") for n in names]
    relators = [Word(((f"c{i}", sig.periods[i - 1]),)) for i in range(1, p + 1)]
    relators.append(Word([(f"c{i}", 1) for i in range(1, p + 1)] + q))
    return GroupPresentation(tuple(gens), tuple(relators))


def fgroup_graph(sig: FSignature) -> StratifoldGraph:
    """The tree-shaped stratifold graph realizing the F-group of ``sig``.

    A central white vertex of the signature's genus has one label-1 edge
    to each of p black vertices, and each black vertex has one further
    edge, labeled by its period, to its own disk (genus-0) white vertex.
    Every branch circle then has d = m_i + 1 >= 3 sheets.
    """
    p = len(sig.periods)
    whites = [WhiteVertex("w0", sig.genus)]
    blacks = []
    edges = []
    for i, m in enumerate(sig.periods, start=1):
        blacks.append(BlackVertex(f"b{i}"))
        whites.append(WhiteVertex(f"d{i}", 0))
        edges.append(Edge(f"e{i}", "w0", f"b{i}", 1))
        edges.append(Edge(f"f{i}", f"d{i}", f"b{i}", m))
    return StratifoldGraph(whites, blacks, edges)


@dataclass(frozen=True)
class SimplifyResult:
    presentation: GroupPresentation
    eliminations: tuple[tuple[str, Word], ...]
    exhausted: bool
    steps: int


ELIMINABLE_ROLES = frozenset({"boundary", "stable"})


def _first_eliminable(r: tuple, keep: frozenset[str]) -> int | None:
    """Index of the first syllable of ``r`` that eliminates a generator.

    A generator can be eliminated from a relator in which it occurs in
    exactly one syllable, with exponent +-1; the relator then defines it
    in terms of the others.  Generators in ``keep`` are exempt unless the
    relator is that single syllable (the generator is provably trivial).
    """
    counts: dict[str, int] = {}
    for n, _ in r:
        counts[n] = counts.get(n, 0) + 1
    for si, (n, e) in enumerate(r):
        if abs(e) != 1 or counts[n] != 1:
            continue
        if n in keep and len(r) > 1:
            continue
        return si
    return None


def simplify(pres: GroupPresentation,
             budget: int = DEFAULT_SIMPLIFY_BUDGET) -> SimplifyResult:
    """Bounded Tietze simplification: generator eliminations only.

    Repeatedly eliminates a generator defined by a relator (see
    :func:`_first_eliminable`), substituting its definition everywhere and
    dropping empty relators.  No relator search or insertion is performed,
    so every step is a Tietze transformation and the result presents an
    isomorphic group with at most as many generators.  The substitution
    list is returned so words can be rewritten later (:func:`rewrite_through`).

    Each step uses the first relator in list order that defines a
    generator and rewrites only the relators that contain the eliminated
    generator.

    Only boundary and stable-letter generators are eliminated freely; the
    structural generators (black, surface, period) are removed only when
    a relator proves them trivial, so power relators like b^m stay
    visible.
    """
    keep = frozenset(g.name for g in pres.generators
                     if g.role not in ELIMINABLE_ROLES)
    # relators and definitions are reduced syllable tuples until the end
    relators = [r.syllables for r in pres.relators if r.syllables]
    picks = [_first_eliminable(r, keep) for r in relators]
    # name -> indices of the relators that may contain it (a superset)
    occurs: dict[str, set[int]] = {}
    for i, r in enumerate(relators):
        for n, _ in r:
            occurs.setdefault(n, set()).add(i)
    # indices whose relator may have an eligible syllable; sorted, so a heap
    ready = [i for i, si in enumerate(picks) if si is not None]
    eliminations: list[tuple[str, tuple]] = []
    exhausted = False
    while ready:
        ri = heapq.heappop(ready)
        si = picks[ri]
        if si is None:  # stale: that relator was rewritten or used
            continue
        if len(eliminations) >= budget:
            exhausted = True
            break
        r = relators[ri]
        name, exp = r[si]
        # before * name^exp * after = 1, so name^-exp = after * before
        definition = _reduce(r[si + 1:] + r[:si])
        if exp == 1:
            definition = _inverse(definition)
        relators[ri], picks[ri] = (), None
        for n, _ in r:
            occurs[n].discard(ri)
        added = {n for n, _ in definition}
        for i in occurs.pop(name):
            relators[i] = _substitute(relators[i], name, definition)
            for n in added:
                occurs[n].add(i)
            picks[i] = _first_eliminable(relators[i], keep)
            if picks[i] is not None:
                heapq.heappush(ready, i)
        eliminations.append((name, definition))
    gone = {name for name, _ in eliminations}
    return SimplifyResult(
        GroupPresentation(tuple([g for g in pres.generators if g.name not in gone]),
                          tuple([Word(r) for r in relators if r])),
        tuple([(name, Word(d)) for name, d in eliminations]), exhausted, len(eliminations))


def rewrite_through(word: Word, eliminations: tuple[tuple[str, Word], ...]) -> Word:
    """Rewrite a word through a simplifier's substitution list, in order."""
    names = word.names()
    for name, definition in eliminations:
        if name in names:
            word = word.substitute(name, definition)
            names = word.names()
    return word


def killed_words(graph: StratifoldGraph, blacks, holes) -> tuple[Word, ...]:
    """The generators the Q-surgery kills, one single-generator word each:
    ``b.<id>`` of each black vertex in ``blacks`` (those of finite order,
    order 1 included), then the surface generators of each white hole in
    ``holes``; both come in id order."""
    words = [Word(((f"b.{bid}", 1),)) for bid in blacks]
    for wid in holes:
        _, names = _surface_word(f"y.{wid}.", graph.white(wid).genus)
        words += [Word(((n, 1),)) for n in names]
    return tuple(words)
