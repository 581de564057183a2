"""Spine graphs of the closed 3-manifolds in the classification.

The primitives are the lens spaces, the two S2-bundles over S1, and
P2 x S1; connected sum at the spine level is the delta-sum, which wedges
two spines and thickens the wedge point into a disk, creating one new
branch circle where three sheets meet.  ``synth`` builds the canonical
spine of a sum expression and ``recognize`` inverts it on that image.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, NoSpineError
from .graph import (BlackVertex, Edge, StratifoldGraph, WhiteVertex,
                    are_isomorphic, components, is_disk)
from .verdicts import Sentinel

SUMMAND_KINDS = ("lens", "p2xs1", "s2xs1", "s2~xs1", "s3")

_KIND_NAMES = {"s2xs1": "S2xS1", "s2~xs1": "S2~xS1", "p2xs1": "P2xS1", "s3": "S3"}


@dataclass(frozen=True, order=True)
class Summand:
    """One prime summand: Lens(q), an S2-bundle over S1, or P2 x S1.

    S3 is representable so the expression grammar stays total, but it has
    no spine; synth rejects it.
    """

    kind: str
    q: int = 0

    def __post_init__(self):
        if self.kind not in SUMMAND_KINDS:
            raise DomainError(f"unknown summand kind {self.kind!r}")
        if self.kind == "lens":
            if self.q < 2:
                raise DomainError(f"lens parameter must be >= 2, got {self.q}")
        elif self.q:
            raise DomainError(f"{self.kind} takes no parameter")

    def __str__(self):
        if self.kind == "lens":
            return f"L({self.q})"
        return _KIND_NAMES[self.kind]


@dataclass(frozen=True)
class ManifoldExpr:
    """A nonempty multiset of summands, kept sorted for canonical form."""

    summands: tuple[Summand, ...]

    def __init__(self, summands):
        summands = tuple(sorted(summands))
        if not summands:
            raise DomainError("expression needs at least one summand")
        object.__setattr__(self, "summands", summands)

    def __str__(self):
        return " # ".join(str(s) for s in self.summands)


# the graph is not in the synth image as far as the recognizer can tell
NOT_CANONICAL = Sentinel("NOT_CANONICAL")


def lens_spine(q: int) -> StratifoldGraph:
    """Spine of the lens space with cyclic fundamental group of order q.

    For q >= 3 this is a disk attached to a branch circle with degree q.
    The same picture with q = 2 would leave only two sheets on the branch
    circle, so the q = 2 spine is the projective plane itself: a single
    white vertex of genus -1 (RP3 minus a ball collapses onto it).
    """
    if q < 2:
        raise DomainError(f"lens parameter must be >= 2, got {q}")
    if q == 2:
        return StratifoldGraph([WhiteVertex("w", -1)], [], [])
    return StratifoldGraph([WhiteVertex("w", 0)], [BlackVertex("b")],
                           [Edge("e", "w", "b", q)])


def s2xs1_spine() -> StratifoldGraph:
    """Torus with a disk attached along a (1,0)-curve: spine of S2 x S1.

    Cutting the torus along the attaching circle leaves an annulus whose
    two boundary circles map with degree 1 each.
    """
    return StratifoldGraph(
        [WhiteVertex("wa", 0), WhiteVertex("wd", 0)], [BlackVertex("b")],
        [Edge("e1", "wa", "b", 1), Edge("e2", "wa", "b", 1),
         Edge("e3", "wd", "b", 1)])


def s2xs1_twisted_spine() -> StratifoldGraph:
    """Klein bottle with a disk attached: spine of the twisted bundle.

    Same shape as the torus spine, but the orientation-reversing
    monodromy flips one annulus boundary, so the labels are 1 and -1.
    """
    return StratifoldGraph(
        [WhiteVertex("wa", 0), WhiteVertex("wd", 0)], [BlackVertex("b")],
        [Edge("e1", "wa", "b", 1), Edge("e2", "wa", "b", -1),
         Edge("e3", "wd", "b", 1)])


def p2xs1_spine() -> StratifoldGraph:
    """Spine of P2 x S1: a projective plane union a torus over its
    one-sided curve c.

    The branch circle is c x {t0}.  P2 cut along c is a disk
    double-covering c (label 2); the torus c x S1 cut along the branch
    circle is an annulus with two degree-1 boundaries.  Partition (2,1,1).
    """
    return StratifoldGraph(
        [WhiteVertex("wa", 0), WhiteVertex("wp", 0)], [BlackVertex("b")],
        [Edge("e1", "wp", "b", 2), Edge("e2", "wa", "b", 1),
         Edge("e3", "wa", "b", 1)])


def _wedge(parts, junctions) -> StratifoldGraph:
    """The (prefix, graph) parts with prefixed ids, plus per (j, a, b) a
    junction: black j, disk jd, degree-1 edges ja, jb, jc from a, b, jd."""
    whites, blacks, edges = [], [], []
    for prefix, g in parts:
        whites += [WhiteVertex(prefix + w.id, w.genus) for w in g.whites]
        blacks += [BlackVertex(prefix + b.id) for b in g.blacks]
        edges += [Edge(prefix + e.id, prefix + e.white, prefix + e.black, e.label)
                  for e in g.edges]
    for j, a, b in junctions:
        whites.append(WhiteVertex(j + "d", 0))
        blacks.append(BlackVertex(j))
        edges += [Edge(j + "a", a, j, 1), Edge(j + "b", b, j, 1),
                  Edge(j + "c", j + "d", j, 1)]
    return StratifoldGraph(whites, blacks, edges)


def delta_sum(g1: StratifoldGraph, w1: str, g2: StratifoldGraph,
              w2: str) -> StratifoldGraph:
    """Connected sum of spines: wedge at w1/w2 with the wedge point
    thickened to a disk.

    The result is the disjoint union (ids prefixed l. and r.) plus one
    new branch circle of partition (1,1,1): one sheet into each chosen
    white piece, one from the new disk.  chi drops by exactly 1 and the
    first homologies add.
    """
    g1.white(w1)
    g2.white(w2)
    return _wedge([("l.", g1), ("r.", g2)], [("j", "l." + w1, "r." + w2)])


def attachment_white(graph: StratifoldGraph) -> str:
    """Deterministic white vertex for the next delta-sum: the smallest-id
    white piece that is not a disk, or the smallest-id white overall when
    the graph is all disks (a bare lens spine)."""
    for w in graph.whites:
        if not is_disk(graph, w.id):
            return w.id
    return graph.whites[0].id


# the summands without a parameter that have a spine, and their spines,
# built once: synth shares them (graphs are immutable) and recognize
# compares against them
_PRIMITIVE_SPINES = {"s2xs1": s2xs1_spine(), "s2~xs1": s2xs1_twisted_spine(),
                     "p2xs1": p2xs1_spine()}


def _spine(s: Summand) -> StratifoldGraph:
    if s.kind == "s3":
        raise NoSpineError("S3 has no 2-stratifold spine:"
                           " no 2-stratifold is contractible")
    if s.kind == "lens":
        return lens_spine(s.q)
    return _PRIMITIVE_SPINES[s.kind]


def synth(expr: ManifoldExpr) -> StratifoldGraph:
    """Canonical spine of a connected-sum expression, built in one pass.

    One summand gives its primitive spine.  Otherwise summand i (sorted)
    gets ids prefixed ``s<i>.``, and junction i >= 1 (black ``j<i>``, disk
    ``j<i>d``, edges ``j<i>a/b/c``) joins summand 0's attachment_white, the
    hub, to summand i's: a star.  That is the left fold of delta_sum at
    attachment_white with flat ids for its nested ``l.``/``r.`` ones, so
    the text is linear in the summands.  Rejects any expression with S3.

    >>> from stratifold import parse_expr, serialize_graph
    >>> print(serialize_graph(synth(parse_expr("L(3) # S2xS1"))), end="")
    black j1
    black s0.b
    black s1.b
    edge j1a s0.w j1 1
    edge j1b s1.wa j1 1
    edge j1c j1d j1 1
    edge s0.e s0.w s0.b 3
    edge s1.e1 s1.wa s1.b 1
    edge s1.e2 s1.wa s1.b 1
    edge s1.e3 s1.wd s1.b 1
    white j1d genus 0
    white s0.w genus 0
    white s1.wa genus 0
    white s1.wd genus 0
    """
    graphs = [_spine(s) for s in expr.summands]
    if len(graphs) == 1:
        return graphs[0]
    hub = "s0." + attachment_white(graphs[0])
    return _wedge([(f"s{i}.", g) for i, g in enumerate(graphs)],
                  [(f"j{i}", hub, f"s{i}." + attachment_white(g))
                   for i, g in enumerate(graphs) if i])


def _junction_blacks(graph: StratifoldGraph) -> list[tuple[str, str]]:
    """(black id, disk white id) for every delta-sum junction: a black
    vertex with exactly three degree-1 edges, exactly one of them to a
    disk, the other two to distinct non-disk whites."""
    out = []
    for b in graph.blacks:
        eids = graph.edges_at_black(b.id)
        if len(eids) != 3:
            continue
        edges = [graph.edge(eid) for eid in eids]
        if any(abs(e.label) != 1 for e in edges):
            continue
        disks = [e.white for e in edges if is_disk(graph, e.white)]
        others = [e.white for e in edges if not is_disk(graph, e.white)]
        if len(disks) == 1 and len(set(others)) == 2:
            out.append((b.id, disks[0]))
    return out


def _match_piece(piece: StratifoldGraph) -> Summand | None:
    if len(piece.blacks) == 0:
        if are_isomorphic(piece, lens_spine(2)):
            return Summand("lens", 2)
        return None
    if len(piece.blacks) == 1 and len(piece.whites) == 1 and len(piece.edges) == 1:
        q = abs(piece.edges[0].label)
        if q >= 3 and are_isomorphic(piece, lens_spine(q)):
            return Summand("lens", q)
        return None
    for kind, spine in _PRIMITIVE_SPINES.items():
        if are_isomorphic(piece, spine):
            return Summand(kind)
    return None


def recognize(graph: StratifoldGraph) -> ManifoldExpr | Sentinel:
    """Invert synth on its image.

    Removes every delta-sum junction (black vertex, its three edges, and
    its disk) simultaneously, splits the rest into connected pieces, and
    matches each piece against the primitive spines up to move-class
    isomorphism.  Any unmatched piece, or a graph with no pieces, yields
    NOT_CANONICAL; the verdict is about this recognizer's image, not a
    homeomorphism claim.
    """
    junctions = _junction_blacks(graph)
    pieces = components(graph, {d for _, d in junctions}, {b for b, _ in junctions})
    if not pieces or not all(piece.whites for piece in pieces):
        return NOT_CANONICAL
    summands = []
    for piece in pieces:
        matched = _match_piece(piece)
        if matched is None:
            return NOT_CANONICAL
        summands.append(matched)
    return ManifoldExpr(summands)
