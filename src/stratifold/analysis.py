"""Finite F-group classification and the one-sided obstruction checker.

The pipeline: certify the order of each branch-circle generator, find the
white holes, perform the Q-surgery (delete the open stars of finite-order
black vertices and the white holes), and test the quotient against
properties every closed-3-manifold group in the classification must have.
Every rejection is certified; an empty obstruction list means only "no
obstruction found", never "realizable".  Budget exhaustion surfaces as
INDETERMINATE rather than a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .algebra import (DEFAULT_COSET_BUDGET, AbelianInvariants, IntMatrix,
                      OrderOracle, smith_normal_form)
from .graph import (StratifoldGraph, _tree_labels, are_isomorphic, components,
                    is_disk)
from .presentation import (FSignature, GroupPresentation, Word, fgroup_graph,
                           killed_words, natural_presentation)
from .verdicts import (INDETERMINATE, FiniteOrder, InfiniteOrder,
                       OrderVerdict, Sentinel, UnknownOrder)

FCLASS_KINDS = ("finite-cyclic", "finite-noncyclic", "infinite")


@dataclass(frozen=True)
class FClass:
    """Classification of an F-group: finite cyclic, one of the four known
    finite non-cyclic families, or infinite (with the surface-group flag).
    """

    kind: str
    order: int | None = None
    name: str | None = None
    surface: bool | None = None

    def __post_init__(self):
        if self.kind not in FCLASS_KINDS:
            raise ValueError(f"unknown classification kind {self.kind!r}")

    def __str__(self):
        if self.kind == "finite-cyclic":
            return f"cyclic of order {self.order}"
        if self.kind == "finite-noncyclic":
            return f"{self.name} of order {self.order}"
        return "infinite surface group" if self.surface else "infinite, not a surface group"


def classify_fgroup(sig: FSignature) -> FClass:
    """Classify the F-group of a signature.

    Spherical base: trivial for p <= 1, cyclic of order gcd(m1, m2) for
    p = 2, and for p = 3 the triples (2,2,m), (2,3,3), (2,3,4), (2,3,5)
    give the dihedral group of order 2m and the tetrahedral, octahedral,
    dodecahedral groups.  A projective base (genus -1) gives Z_2 for
    p = 0 and Z_{2m} for p = 1.  Everything else is infinite, and is a
    surface group exactly when there are no cone points.
    """
    periods = tuple(sorted(sig.periods))
    p = len(periods)
    if sig.genus == 0:
        if p == 0 or p == 1:
            return FClass("finite-cyclic", 1)
        if p == 2:
            return FClass("finite-cyclic", gcd(periods[0], periods[1]))
        if p == 3:
            if periods[0] == 2 and periods[1] == 2:
                return FClass("finite-noncyclic", 2 * periods[2],
                              f"dihedral({periods[2]})")
            if periods[:2] == (2, 3) and periods[2] in (3, 4, 5):
                name, order = {3: ("tetrahedral", 12), 4: ("octahedral", 24),
                               5: ("dodecahedral", 60)}[periods[2]]
                return FClass("finite-noncyclic", order, name)
        return FClass("infinite", surface=False)
    if sig.genus == -1:
        if p == 0:
            return FClass("finite-cyclic", 2)
        if p == 1:
            return FClass("finite-cyclic", 2 * periods[0])
        return FClass("infinite", surface=False)
    return FClass("infinite", surface=(p == 0))


@lru_cache(maxsize=1)
def analyze(graph: StratifoldGraph) -> OrderOracle:
    """The order oracle of the natural presentation of ``graph`` as given
    (its labels normalized on the presentation's own walk), reused while
    successive calls ask about graphs equal to it (same vertices, genera,
    edges and labels, however the input text was ordered).  Only the
    latest graph's oracle is kept; a different graph replaces it, and
    ``analyze.cache_clear()`` drops it.  The oracle deletes the generators
    its relators prove trivial on first need (that reduced presentation
    is what ``pi1 --simplify`` prints, and ``abelianization(oracle)`` is
    its H1) and keeps its verdicts and coset table for the latest budget.
    """
    return OrderOracle(natural_presentation(graph))


# the witness of every branch circle in a graph whose edge maps all inject
_EMBEDDED = InfiniteOrder("no white is a disk, so every vertex group embeds")


def _census(graph: StratifoldGraph, budget: int) -> dict[str, OrderVerdict]:
    # every edge map injective: no disk white and no label 0 (see
    # black_orders); the walk raises GraphError on an empty or disconnected
    # graph, as natural_presentation does, and is kept for the surgery
    if (not any(is_disk(graph, w.id) for w in graph.whites)
            and all(_tree_labels(graph)[1].values())):
        return dict.fromkeys([b.id for b in graph.blacks], _EMBEDDED)
    oracle = analyze(graph)
    return {b.id: oracle.order(Word(((f"b.{b.id}", 1),)), budget)
            for b in graph.blacks}


def black_orders(graph: StratifoldGraph,
                 budget: int = DEFAULT_COSET_BUDGET) -> dict[str, OrderVerdict]:
    """Certified order of every branch-circle generator b.<id>.

    Orders are taken in the fundamental group of the graph as given.
    When no white is a disk (and no label is 0), every branch circle has
    infinite order, read off the graph alone: the group is the
    fundamental group of a graph of groups over the graph (van Kampen),
    with the surface group of each white, Z = <b> at each black, and an
    edge group Z = <s> that maps to b^m at the black and to the boundary
    circle s at the white.  b -> b^m is injective for m != 0, and a
    boundary circle of a compact surface other than the disk is a
    nontrivial element of its free fundamental group, so it has infinite
    order.  With every edge map injective, every vertex group embeds
    (Serre, *Trees*, 1980, section I.5), and so does each <b>.

    A graph with a disk white goes to the graph's order oracle
    (:func:`analyze`), which presents it with its labels normalized on
    the presentation's own walk; one oracle serves the census, so the
    reduction and any coset table are computed once.  Unknown verdicts
    are honest abstentions carried by the budget.  Calling again on an
    equal graph with the same budget reads the oracle's kept verdicts;
    each call returns a census of its own.
    """
    return _census(graph, budget)


def white_holes(graph: StratifoldGraph,
                orders: dict[str, OrderVerdict]) -> frozenset[str] | Sentinel:
    """White vertices of genus -1 all of whose black neighbors have finite
    order, at most one of order > 1 (order 1 counts as finite).

    Per-vertex logic is maximally definite: an infinite-order neighbor or
    two certified orders > 1 settle "not a hole" even when other verdicts
    are Unknown; only a genuinely undecidable vertex makes the whole
    answer INDETERMINATE.
    """
    undecided = False
    holes = set()
    for w in graph.whites:
        if w.genus != -1:
            continue
        neighbors = {graph.edge(eid).black for eid in graph.edges_at_white(w.id)}
        for b in neighbors:
            if b not in orders:
                raise ValueError(f"no order verdict for black vertex {b}")
        verdicts = [orders[b] for b in sorted(neighbors)]
        if any(isinstance(v, InfiniteOrder) for v in verdicts):
            continue
        big = sum(1 for v in verdicts
                  if isinstance(v, FiniteOrder) and v.order > 1)
        if big >= 2:
            continue
        if any(isinstance(v, UnknownOrder) for v in verdicts):
            undecided = True
            continue
        holes.add(w.id)
    if undecided:
        return INDETERMINATE
    return frozenset(holes)


@dataclass(frozen=True)
class QComponent:
    """One connected piece of the surgered graph.

    ``capped`` lists the ids of original edges whose branch circle was
    deleted; each is a boundary circle of this piece now capped by a
    disk.  A single white vertex with all boundaries capped is a closed
    surface, reported through ``closed_surface_genus``.
    """

    graph: StratifoldGraph
    capped: tuple[str, ...]
    closed_surface_genus: int | None


@dataclass(frozen=True)
class QResult:
    """Outcome of the Q-surgery on a graph with fully certified orders:
    what it deleted, what survives, and the quotient group with its H1."""

    deleted_blacks: tuple[str, ...]
    white_holes: tuple[str, ...]
    components: tuple[QComponent, ...]
    presentation: GroupPresentation
    abelianization: AbelianInvariants


def _quotient_h1(graph: StratifoldGraph, dead_blacks,
                 holes) -> AbelianInvariants:
    """H1 of the torsion quotient, read from the graph as Z^f + coker M.

    Abelianize :func:`natural_presentation`.  A white's relator is
    s_1...s_p q, and each boundary circle s is b^m on a tree edge or
    t b^m t^-1 on a non-tree edge, so either way it abelianizes to m*b,
    and the relator to the sum of m*b over the white's edges plus the
    image of q.  A stable letter t then occurs in no abelianized relator
    and is free, and so are the 2g loops of an orientable white, whose q
    abelianizes to 0.  A nonorientable white's q = y_1^2...y_h^2 reads
    2(y_1 + ... + y_h); the unimodular change of basis y_1' = y_1 + ... +
    y_h leaves one column holding a 2 in that white's row and h - 1 free
    letters.  The surgery adds b = 1 for each dead black and y = 1 for
    each loop of a hole, which deletes those columns; a hole has genus
    -1, so it loses its 2 and no free letter.

    So M has one row per white, one column per surviving black holding
    the sum of the signed labels of each (white, black) pair, and one
    column holding a 2 per nonorientable white that is not a hole; f is
    the number of non-tree edges plus 2g per orientable white plus
    |g| - 1 per nonorientable white that is not a hole.  The genus enters
    only as a number, and M is diagonalized by :func:`smith_normal_form`.
    """
    tree, labels = _tree_labels(graph)
    col = {b.id: j for j, b in enumerate(b for b in graph.blacks
                                         if b.id not in dead_blacks)}
    twos = [w for w in graph.whites if w.genus < 0 and w.id not in holes]
    ncols = len(col) + len(twos)
    row = {w.id: i for i, w in enumerate(graph.whites)}
    entries = [0] * (len(row) * ncols)
    for e in graph.edges:
        if e.black in col:
            entries[row[e.white] * ncols + col[e.black]] += labels[e.id]
    for j, w in enumerate(twos, len(col)):
        entries[row[w.id] * ncols + j] = 2
    free = (len(graph.edges) - len(tree)
            + sum(2 * w.genus for w in graph.whites if w.genus > 0)
            + sum(-w.genus - 1 for w in twos))
    inv, _ = smith_normal_form(IntMatrix(len(row), ncols, tuple(entries)))
    return AbelianInvariants(free + inv.free_rank, inv.torsion)


def _surgery(graph: StratifoldGraph, budget: int):
    """The Q-surgery without the quotient presentation: ``(deleted_blacks,
    white_holes, components, abelianization)`` as :class:`QResult` holds
    them, or INDETERMINATE when an order verdict is Unknown."""
    orders = _census(graph, budget)
    if any(isinstance(v, UnknownOrder) for v in orders.values()):
        return INDETERMINATE
    holes = tuple(sorted(white_holes(graph, orders)))
    deleted = tuple(sorted(b for b, v in orders.items() if isinstance(v, FiniteOrder)))
    dead_blacks = frozenset(deleted)

    # the capped edges of each white, found in one pass over the edges
    capped_at: dict[str, list[str]] = {}
    for e in graph.edges:
        if e.black in dead_blacks:
            capped_at.setdefault(e.white, []).append(e.id)
    pieces = []
    for sub in components(graph, holes, dead_blacks):
        capped = tuple(sorted(eid for w in sub.whites
                              for eid in capped_at.get(w.id, ())))
        closed = sub.whites[0].genus if (len(sub.whites) == 1
                                         and not sub.blacks) else None
        pieces.append(QComponent(sub, capped, closed))
    return deleted, holes, tuple(pieces), _quotient_h1(graph, dead_blacks, holes)


def q_graph(graph: StratifoldGraph,
            budget: int = DEFAULT_COSET_BUDGET) -> QResult | Sentinel:
    """Delete the open stars of finite-order black vertices and the white
    holes; split what survives into components.

    The orders are the census :func:`black_orders` returns for this graph
    and budget.  Returns INDETERMINATE when any order verdict is Unknown.
    Surviving singleton white vertices are closed surfaces (all their
    boundaries are capped).  The result's presentation is the graph
    presentation plus one relator per killed generator (see
    :func:`killed_words`): it presents the quotient of the fundamental
    group by the subgroup generated by all torsion.  Its H1 is read from
    the graph, not from that presentation (see :func:`_quotient_h1`).
    """
    surgery = _surgery(graph, budget)
    if surgery is INDETERMINATE:
        return INDETERMINATE
    deleted, holes, pieces, ab = surgery
    base = analyze(graph).pres
    return QResult(deleted, holes, pieces,
                   GroupPresentation(base.generators,
                                     base.relators + killed_words(graph, deleted, holes)),
                   ab)


def fgroup_signature_of(graph: StratifoldGraph) -> FSignature | None:
    """Recover the signature when the graph has the standard F-group shape.

    That shape is a tree: one central white vertex with p edges of degree
    1, one to each black vertex, and each black vertex tied by one edge of
    degree m_i >= 2 to its own otherwise-isolated disk vertex.  A single
    white vertex with no edges is the p = 0 member.  The signature is read
    off the labels: the center is the white end of a degree-1 edge (the
    first white when there is none), the periods are the |labels| >= 2.
    It is returned exactly when the graph is move-isomorphic to its
    :func:`fgroup_graph`; on a tree every sign pattern is reachable by
    the moves, so signs never matter.  Returns None for any other graph.
    """
    if (len(graph.whites) != len(graph.blacks) + 1
            or len(graph.edges) != 2 * len(graph.blacks)):
        return None
    center = next((e.white for e in graph.edges if abs(e.label) == 1),
                  graph.whites[0].id)
    sig = FSignature(graph.white(center).genus,
                     tuple(sorted(abs(e.label) for e in graph.edges if abs(e.label) >= 2)))
    return sig if are_isomorphic(graph, fgroup_graph(sig)) else None


@dataclass(frozen=True)
class Obstruction:
    """A certified reason the graph's group is not a closed-3-manifold
    group; kind is one of QTorsion, NonFreeSurfaceComponent,
    InfiniteNonSurfaceFGroup."""

    kind: str
    witness: str


def obstructions(graph: StratifoldGraph,
                 budget: int = DEFAULT_COSET_BUDGET) -> tuple[Obstruction, ...] | Sentinel:
    """Sound, one-sided rejection suite for closed-3-manifold groups.

    QTorsion: the quotient by all torsion must be torsion free (it is in
    fact free for every group in the classification), so torsion in its
    abelianization, or a surviving projective-plane component, rejects.
    NonFreeSurfaceComponent: a closed-surface component of genus >= 1 or
    <= -2 has a non-free surface group, which cannot be a free factor of
    the quotient.  InfiniteNonSurfaceFGroup: a graph in the standard
    F-group family whose group is infinite with cone points violates
    "cyclic or a surface group".

    The structural test needs no order census, so a certified rejection
    is returned even when the census is INDETERMINATE; the answer is
    INDETERMINATE only when the census abstains and nothing else rejects.
    The suite runs the surgery of :func:`q_graph` but builds no
    presentation: the quotient's H1 comes from the graph, and a graph with
    no disk white needs no order oracle either, so its genus enters only
    as a number.
    """
    structural = []
    sig = fgroup_signature_of(graph)
    if sig is not None and sig.periods:
        fc = classify_fgroup(sig)
        if fc.kind == "infinite" and not fc.surface:
            structural.append(Obstruction(
                "InfiniteNonSurfaceFGroup",
                f"F-group of genus {sig.genus} with periods {sig.periods}"
                " is infinite and not a surface group"))

    surgery = _surgery(graph, budget)
    if surgery is INDETERMINATE:
        return tuple(structural) if structural else INDETERMINATE

    found = []
    _, _, pieces, ab = surgery
    if ab.torsion:
        found.append(Obstruction(
            "QTorsion",
            f"abelianization of the torsion quotient has torsion {ab.torsion}"))
    for c in pieces:
        if c.closed_surface_genus == -1:
            wid = c.graph.whites[0].id
            found.append(Obstruction(
                "QTorsion",
                f"component {wid} survives as a closed projective plane"))
    for c in pieces:
        g = c.closed_surface_genus
        if g is not None and (g >= 1 or g <= -2):
            wid = c.graph.whites[0].id
            found.append(Obstruction(
                "NonFreeSurfaceComponent",
                f"component {wid} is a closed surface of genus {g},"
                " whose group is not free"))
    return tuple(found) + tuple(structural)
