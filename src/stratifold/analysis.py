"""Finite F-group classification and the one-sided obstruction checker.

The pipeline: certify the order of each branch-circle generator, find the
white holes, perform the Q-surgery (delete the open stars of finite-order
black vertices and the white holes), and test the quotient against
properties every closed-3-manifold group in the classification must have.
Every order is exact and read off the graph, with no budget; every
rejection is certified, and an empty obstruction list means only "no
obstruction found", never "realizable".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .algebra import AbelianInvariants, IntMatrix, OrderOracle, smith_normal_form
from .graph import StratifoldGraph, _tree_labels, are_isomorphic, components
from .presentation import (FSignature, GroupPresentation, fgroup_graph,
                           killed_words, natural_presentation)
from .verdicts import FiniteOrder, InfiniteOrder, OrderVerdict

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
    its relators prove trivial on first need: that reduced presentation
    is what ``pi1 --simplify`` prints, and ``abelianization(oracle)`` is
    its H1.  The order census does not use it (see :func:`black_orders`).
    """
    return OrderOracle(natural_presentation(graph))


# the witness of every branch circle the fold leaves of infinite order
_EMBEDDED = InfiniteOrder("the folded graph of groups has injective edge maps,"
                          " so every vertex group embeds")


class _Folded(NamedTuple):
    """The fold of one graph: each black's verdict, as :func:`black_orders`
    gives it, and what the Q-surgery deletes, the blacks of finite order
    and the white holes, as frozensets of ids."""

    orders: dict[str, OrderVerdict]
    dead_blacks: frozenset[str]
    holes: frozenset[str]


@lru_cache(maxsize=1)
def _fold(graph: StratifoldGraph) -> _Folded:
    """The census of :func:`black_orders` with the surgery's deletions,
    kept for the latest graph; the caller must not change ``orders``."""
    _, labels = _tree_labels(graph)
    n = dict.fromkeys([b.id for b in graph.blacks], 0)
    steps: dict[str, list[str]] = {}
    # while every n_b is 0, a rule applies only at a genus-0 white with at
    # most one edge of nonzero label: a disk, in a valid graph
    work = deque([w.id for w in graph.whites if w.genus == 0 and
                  sum(1 for eid in graph.edges_at_white(w.id) if labels[eid]) <= 1])
    queued = set(work)
    while work:
        wid = work.popleft()
        queued.discard(wid)
        bounds, cones = [], []  # (black, |m|, k_e) of each edge not capped
        for eid in graph.edges_at_white(wid):
            b, m = graph.edge(eid).black, abs(labels[eid])
            k = n[b] // gcd(n[b], m) if m else 1
            if k != 1:
                (cones if k else bounds).append((b, m, k))
        c = [k for _, _, k in cones]
        if not 0 < len(bounds) + len(c) <= 2 or len(bounds) > 1:
            continue
        # b^(m * factor) = 1 for each (b, m) in edges
        if bounds:
            edges, factor, shape = bounds, c[0] if c else 1, f"D({c[0]})" if c else "disk"
        elif len(c) == 2:  # a spindle, or S^2(p, p), where nothing drops
            edges, factor, shape = cones, gcd(*c), f"spindle({c[0]}, {c[1]})"
        else:
            edges, factor, shape = cones, 1, f"teardrop({c[0]})"
        for b, m, _ in edges:
            lowered = gcd(n[b], m * factor)
            if lowered == n[b]:
                continue
            n[b] = lowered
            steps.setdefault(b, []).append(f"{shape} {wid} with label {m}")
            for eid in graph.edges_at_black(b):
                w = graph.edge(eid).white
                if w not in queued and graph.white(w).genus == 0:
                    queued.add(w)
                    work.append(w)
    # a hole: a genus -1 white whose blacks are all finite, at most one of
    # order > 1
    holes = []
    for w in graph.whites:
        if w.genus == -1:
            ks = [n[b] for b in {graph.edge(eid).black for eid in graph.edges_at_white(w.id)}]
            if all(ks) and sum(k > 1 for k in ks) <= 1:
                holes.append(w.id)
    # the blacks with steps are those whose n_b left 0: the finite ones
    return _Folded({b: FiniteOrder(k, ", then ".join(steps[b])) if k else _EMBEDDED
                    for b, k in n.items()}, frozenset(steps), frozenset(holes))


def black_orders(graph: StratifoldGraph) -> dict[str, OrderVerdict]:
    """Exact order of every branch-circle generator b.<id>, read off the
    graph by folding its graph of groups; no verdict is ``UnknownOrder``.

    Orders are taken in the fundamental group of the graph as given.  By
    van Kampen it is that of a graph of groups over the graph: the
    surface group at each white, Z = <b> at each black, and at each edge
    Z = <s>, mapped to b^m at the black and to the boundary circle s at
    the white.  The labels' walk raises GraphError on an empty or
    disconnected graph, as :func:`natural_presentation` does.

    The fold keeps an n_b with b^(n_b) = 1 for each black, 0 meaning none
    is known; each starts at 0.  An edge with label m at b then has k_e =
    n_b / gcd(n_b, m), the order of b^m in Z/n_b (0, infinite, when n_b
    = 0; 1 when m = 0).  As s is conjugate to b^m, s^(k_e) = 1 holds at
    the white: the boundary circle is capped when k_e = 1 and becomes a
    cone point of order k_e when k_e >= 2, so each white is a 2-orbifold.
    Its cone points have exactly their orders and its boundary circles
    infinite order, except in three genus-0 cases, each of which proves
    some b^j = 1 and sets n_b := gcd(n_b, j):

    * a teardrop (no boundary, one cone point): its group is trivial, so
      j = m on the cone point's edge;
    * a spindle (no boundary, cone points p != q): its group is
      Z/gcd(p, q), so j = m gcd(p, q) on each cone point's edge;
    * D(c) (one boundary circle and at most one cone point, of order c;
      a disk when c = 1): its group is Z/c, generated by the boundary
      circle, so j = m c on the boundary edge.

    Any other orbifold with boundary has a free product of cyclic groups
    as its group, with the cone points as free factors and no boundary
    circle of finite order; any other closed one is good, a quotient of
    S^2, E^2 or H^2, where a cone point has exactly its order (Scott,
    "The geometries of 3-manifolds", Bull. LMS 15, 1983, section 2).
    Each n_b only moves down in the divisibility order, so the fold ends,
    with no rule left to apply.  The group is then that of the graph of
    groups with Z/n_b at each black, the orbifold group at each white and
    Z/k_e at each edge, whose edge maps all inject; so every vertex group
    embeds (Serre, *Trees*, 1980, section I.5), and b has order exactly
    n_b, or infinite order when n_b = 0.

    The worklist starts from the whites with one boundary circle while
    every n_b is 0, and takes a genus-0 white again only when an n_b next
    to it drops.  A finite verdict's witness lists the steps that lowered
    its n_b.  The fold of the latest graph is kept, with the blacks and
    white holes the Q-surgery deletes, so ``obstructions`` after
    ``black_orders`` on an equal graph folds it once; each call returns a
    census of its own.
    """
    return dict(_fold(graph).orders)


def white_holes(graph: StratifoldGraph) -> frozenset[str]:
    """White vertices of genus -1 all of whose black neighbors have finite
    order, at most one of order > 1 (order 1 counts as finite), by the
    census of :func:`black_orders`; found in the same fold."""
    return _fold(graph).holes


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
    rows: dict[str, dict[int, int]] = {w.id: {} for w in graph.whites}
    for e in graph.edges:
        if e.black in col:
            row, j = rows[e.white], col[e.black]
            row[j] = row.get(j, 0) + labels[e.id]
    for j, w in enumerate(twos, len(col)):
        rows[w.id][j] = 2
    free = (len(graph.edges) - len(tree)
            + sum(2 * w.genus for w in graph.whites if w.genus > 0)
            + sum(-w.genus - 1 for w in twos))
    inv, _ = smith_normal_form(IntMatrix(len(rows), len(col) + len(twos), tuple(
        [{j: v for j, v in r.items() if v} for r in rows.values()])))
    return AbelianInvariants(free + inv.free_rank, inv.torsion)


def q_graph(graph: StratifoldGraph) -> QResult:
    """Delete the open stars of finite-order black vertices and the white
    holes; split what survives into components.

    The deleted blacks and the holes are those the kept fold of the
    graph found with its census (see :func:`black_orders` and
    :func:`white_holes`).  Surviving singleton white vertices are closed
    surfaces (all their boundaries are capped).  A surgery that deletes
    nothing hands on the graph itself as its one piece: the graph is
    connected, or :func:`_tree_labels` raised.  The result's presentation
    is the graph presentation plus one relator per killed generator (see
    :func:`killed_words`): it presents the quotient of the fundamental
    group by the subgroup generated by all torsion.  Its H1 is read from
    the graph, not from that presentation (see :func:`_quotient_h1`);
    :func:`obstructions` reads the same fold, H1 and closed surfaces
    without building the pieces.
    """
    fold = _fold(graph)
    deleted, holes = tuple(sorted(fold.dead_blacks)), tuple(sorted(fold.holes))
    # the capped edges of each white, found in one pass over the edges
    capped_at: dict[str, list[str]] = {}
    for e in graph.edges:
        if e.black in fold.dead_blacks:
            capped_at.setdefault(e.white, []).append(e.id)
    pieces = []
    for sub in (components(graph, holes, fold.dead_blacks) if deleted or holes
                else [graph]):
        capped = tuple(sorted(eid for w in sub.whites
                              for eid in capped_at.get(w.id, ())))
        closed = sub.whites[0].genus if (len(sub.whites) == 1
                                         and not sub.blacks) else None
        pieces.append(QComponent(sub, capped, closed))
    base = analyze(graph).pres
    return QResult(deleted, holes, tuple(pieces),
                   GroupPresentation(base.generators,
                                     base.relators + killed_words(graph, deleted, holes)),
                   _quotient_h1(graph, fold.dead_blacks, fold.holes))


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


def obstructions(graph: StratifoldGraph) -> tuple[Obstruction, ...]:
    """Sound, one-sided rejection suite for closed-3-manifold groups.

    QTorsion: the quotient by all torsion must be torsion free (it is in
    fact free for every group in the classification), so torsion in its
    abelianization, or a surviving projective-plane component, rejects.
    NonFreeSurfaceComponent: a closed-surface component of genus >= 1 or
    <= -2 has a non-free surface group, which cannot be a free factor of
    the quotient.  InfiniteNonSurfaceFGroup: a graph in the standard
    F-group family whose group is infinite with cone points violates
    "cyclic or a surface group".

    The suite reads the surgery of :func:`q_graph` off the kept fold of
    the graph, which holds the census of :func:`black_orders`, the
    deleted blacks and the holes, and builds no presentation, no order
    oracle and no piece graph: the quotient's H1 comes from the graph's
    matrix (see :func:`_quotient_h1`), so a genus enters only as a
    number.  The closed surfaces that survive are the whites that are not
    holes and whose every edge ends at a deleted black.  For whites meet only
    through blacks, so a piece of the surgered graph with no black is one
    white, and its boundary circles are all capped exactly when every
    edge at it ends at a deleted black; a white with an edge to a
    surviving black shares its piece with that black.  So these whites
    are the pieces :func:`q_graph` reports as closed surfaces, and they
    are taken in id order, the order of ``graph.whites``, which is how
    :func:`components` sorts pieces of a single white.
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

    found = []
    fold = _fold(graph)
    ab = _quotient_h1(graph, fold.dead_blacks, fold.holes)
    if ab.torsion:
        found.append(Obstruction(
            "QTorsion",
            f"abelianization of the torsion quotient has torsion {ab.torsion}"))
    # the whites that keep an edge share a piece with a surviving black
    kept = {e.white for e in graph.edges if e.black not in fold.dead_blacks}
    closed = [w for w in graph.whites if w.id not in kept and w.id not in fold.holes]
    for w in closed:
        if w.genus == -1:
            found.append(Obstruction(
                "QTorsion",
                f"component {w.id} survives as a closed projective plane"))
    for w in closed:
        if w.genus >= 1 or w.genus <= -2:
            found.append(Obstruction(
                "NonFreeSurfaceComponent",
                f"component {w.id} is a closed surface of genus {w.genus},"
                " whose group is not free"))
    return tuple(found) + tuple(structural)
