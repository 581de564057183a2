"""Bicolored labeled graphs encoding 2-stratifolds.

A 2-stratifold is a compact connected 2-complex whose singular set is a
disjoint union of circles (the branch circles), each with a neighborhood
homeomorphic to a mapping cylinder of d >= 3 sheets.  Such a space is
encoded by a bipartite multigraph:

  * a white vertex is a compact surface piece W; its ``genus`` follows the
    usual convention that g >= 0 means orientable of genus g and g < 0
    means nonorientable with |g| crosscaps;
  * a black vertex is a branch circle;
  * an edge joins a white vertex to a black vertex and records one boundary
    circle of W glued to the branch circle by a covering of (signed)
    degree ``label`` != 0.

The sign of a label depends on chosen orientations of the branch circle
and of the boundary circle, so two labelings that differ by the
re-orientation moves implemented in :func:`normalize` and
:func:`are_isomorphic` describe the same space.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import GraphError


@dataclass(frozen=True)
class WhiteVertex:
    id: str
    genus: int


@dataclass(frozen=True)
class BlackVertex:
    id: str


@dataclass(frozen=True)
class Edge:
    id: str
    white: str
    black: str
    label: int


@dataclass(frozen=True)
class Violation:
    """One failed graph invariant.  ``rule`` is a stable token."""

    rule: str
    subject: str
    detail: str


# Vertices are addressed by ("w", id) / ("b", id) pairs internally, since the
# two color classes have independent id namespaces.
_WHITE = "w"
_BLACK = "b"


class StratifoldGraph:
    """Immutable bicolored multigraph.

    Construction checks only structural well-formedness (unique ids, edge
    endpoints that exist and have the right colors).  Semantic invariants,
    like the branch condition, are reported by :func:`validate` so that
    broken graphs can be represented and diagnosed.
    """

    __slots__ = ("whites", "blacks", "edges", "_white_by_id", "_black_by_id",
                 "_edge_by_id", "_star", "_hash")

    def __init__(self, whites: Iterable[WhiteVertex],
                 blacks: Iterable[BlackVertex],
                 edges: Iterable[Edge]):
        ws = tuple(sorted(whites, key=lambda v: v.id))
        bs = tuple(sorted(blacks, key=lambda v: v.id))
        es = tuple(sorted(edges, key=lambda e: e.id))
        self_set = super().__setattr__
        self_set("whites", ws)
        self_set("blacks", bs)
        self_set("edges", es)

        white_by_id = {}
        for v in ws:
            if v.id in white_by_id:
                raise GraphError(f"duplicate white vertex id {v.id!r}")
            white_by_id[v.id] = v
        black_by_id = {}
        for v in bs:
            if v.id in black_by_id:
                raise GraphError(f"duplicate black vertex id {v.id!r}")
            black_by_id[v.id] = v
        edge_by_id = {}
        star: dict[tuple[str, str], list[str]] = {}
        for key in [(_WHITE, w) for w in white_by_id] + [(_BLACK, b) for b in black_by_id]:
            star[key] = []
        for e in es:
            if e.id in edge_by_id:
                raise GraphError(f"duplicate edge id {e.id!r}")
            if e.white not in white_by_id:
                raise GraphError(f"edge {e.id!r}: dangling white endpoint {e.white!r}")
            if e.black not in black_by_id:
                raise GraphError(f"edge {e.id!r}: dangling black endpoint {e.black!r}")
            edge_by_id[e.id] = e
            star[(_WHITE, e.white)].append(e.id)
            star[(_BLACK, e.black)].append(e.id)
        # edges are already id-sorted, so each star list is id-sorted too
        self_set("_white_by_id", white_by_id)
        self_set("_black_by_id", black_by_id)
        self_set("_edge_by_id", edge_by_id)
        self_set("_star", star)

    def __setattr__(self, name, value):
        raise AttributeError("StratifoldGraph is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not slot by slot
        return StratifoldGraph, (self.whites, self.blacks, self.edges)

    # -- lookups ---------------------------------------------------------

    def white(self, wid: str) -> WhiteVertex:
        try:
            return self._white_by_id[wid]
        except KeyError:
            raise GraphError(f"no white vertex {wid!r}") from None

    def black(self, bid: str) -> BlackVertex:
        try:
            return self._black_by_id[bid]
        except KeyError:
            raise GraphError(f"no black vertex {bid!r}") from None

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise GraphError(f"no edge {eid!r}") from None

    def edges_at_white(self, wid: str) -> tuple[str, ...]:
        """Ids of edges incident to a white vertex, in id order."""
        self.white(wid)
        return tuple(self._star[(_WHITE, wid)])

    def edges_at_black(self, bid: str) -> tuple[str, ...]:
        self.black(bid)
        return tuple(self._star[(_BLACK, bid)])

    def _root(self) -> tuple[str, str]:
        """The vertex with the smallest id, black before white on a tie."""
        if self.blacks and (not self.whites or self.blacks[0].id <= self.whites[0].id):
            return (_BLACK, self.blacks[0].id)
        return (_WHITE, self.whites[0].id)

    # -- equality --------------------------------------------------------

    def _key(self):
        return (self.whites, self.blacks, self.edges)

    def __eq__(self, other):
        if not isinstance(other, StratifoldGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # kept on first use, since one-entry caches hash their key on every
        # call; a copy or pickle is rebuilt through __init__ (__reduce__),
        # so it never carries a hash salted by another process
        try:
            return self._hash
        except AttributeError:
            super().__setattr__("_hash", hash(self._key()))
            return self._hash

    def __repr__(self):
        return (f"StratifoldGraph({len(self.whites)} white, "
                f"{len(self.blacks)} black, {len(self.edges)} edges)")


def validate(graph: StratifoldGraph) -> list[Violation]:
    """Check the semantic invariants; an empty list means the graph is valid.

    Rules reported:

    * ``ZeroLabel`` - an edge labeled 0,
    * ``BranchTooSmall`` - a black vertex whose incident absolute labels sum
      to d < 3 (fewer than three sheets meet the branch circle),
    * ``IsolatedBlack`` - a black vertex with no incident edge,
    * ``IsolatedWhite`` - a white vertex with no incident edge in a graph
      with more than one vertex (a lone closed-surface vertex is allowed),
    * ``Disconnected`` - the graph is empty or not connected.
    """
    out: list[Violation] = []
    star, edge_by_id = graph._star, graph._edge_by_id
    for e in graph.edges:
        if e.label == 0:
            out.append(Violation("ZeroLabel", e.id, f"edge {e.id} has label 0"))
    for b in graph.blacks:
        eids = star[(_BLACK, b.id)]
        if not eids:
            out.append(Violation("IsolatedBlack", b.id,
                                 f"black vertex {b.id} has no incident edge"))
            continue
        d = sum([abs(edge_by_id[eid].label) for eid in eids])
        if d < 3:
            out.append(Violation("BranchTooSmall", b.id,
                                 f"black vertex {b.id} has d={d} < 3"))
    nverts = len(graph.whites) + len(graph.blacks)
    if nverts > 1:
        for w in graph.whites:
            if not star[(_WHITE, w.id)]:
                out.append(Violation("IsolatedWhite", w.id,
                                     f"white vertex {w.id} has no incident edge"))
    if nverts == 0:
        out.append(Violation("Disconnected", "", "empty graph"))
    elif len(_bfs(graph, graph._root(), set())) + 1 != nverts:
        out.append(Violation("Disconnected", "", "graph is not connected"))
    return out


def _bfs(graph: StratifoldGraph, start: tuple[str, str],
         seen: set[tuple[str, str]]) -> list[tuple[tuple[str, str], str]]:
    """(vertex, discovering edge id) pairs in breadth-first order, root omitted.

    Each vertex's incident edges are scanned in edge-id order, so the
    order is deterministic.  Vertices already in ``seen`` are not entered;
    ``seen`` is updated with the root and every vertex reached.
    """
    seen.add(start)
    order: list[tuple[tuple[str, str], str]] = []
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for eid in graph._star[v]:
            e = graph._edge_by_id[eid]
            other = (_BLACK, e.black) if v[0] == _WHITE else (_WHITE, e.white)
            if other not in seen:
                seen.add(other)
                order.append((other, eid))
                queue.append(other)
    return order


def components(graph: StratifoldGraph, dead_whites,
               dead_blacks) -> list[StratifoldGraph]:
    """Connected pieces left after deleting some vertices and their edges.

    A piece is named by its smallest (color, id) vertex key, black before
    white: its smallest black id, or its smallest white id when it has no
    black.  Pieces are sorted by that id; on a tie the piece whose
    smallest white id is smaller comes first, and pieces without a white
    come last.
    """
    dead = {(_WHITE, w) for w in dead_whites} | {(_BLACK, b) for b in dead_blacks}
    seen = set(dead)
    pieces = []
    for start in ([(_WHITE, w.id) for w in graph.whites]
                  + [(_BLACK, b.id) for b in graph.blacks]):
        if start in seen:
            continue
        keys = [start] + [v for v, _ in _bfs(graph, start, seen)]
        whites = [graph.white(vid) for kind, vid in keys if kind == _WHITE]
        blacks = [graph.black(vid) for kind, vid in keys if kind == _BLACK]
        edges = [e for w in whites for e in map(graph.edge, graph._star[(_WHITE, w.id)])
                 if (_BLACK, e.black) not in dead]
        pieces.append((min(keys)[1], StratifoldGraph(whites, blacks, edges)))
    pieces.sort(key=lambda piece: piece[0])
    return [piece for _, piece in pieces]


def is_disk(graph: StratifoldGraph, wid: str) -> bool:
    """A white vertex of genus 0 with exactly one boundary circle."""
    return (graph.white(wid).genus == 0
            and len(graph.edges_at_white(wid)) == 1)


def _surface_loop_count(genus: int) -> int:
    # rank of the standard one-vertex cell structure: 2g loops when
    # orientable, |g| loops when nonorientable
    return 2 * genus if genus >= 0 else -genus


def euler_characteristic(graph: StratifoldGraph) -> int:
    """Euler characteristic of the 2-complex, summed piecewise.

    Each black circle contributes 0, and a white piece of genus g with p
    boundary circles contributes 2 - 2g - p (orientable) or 2 - |g| - p
    (nonorientable).
    """
    total = 0
    for w in graph.whites:
        p = len(graph.edges_at_white(w.id))
        total += 2 - _surface_loop_count(w.genus) - p
    return total


def cw_euler(graph: StratifoldGraph) -> int:
    """Euler characteristic by explicit cell count (independent route).

    Builds an actual cell structure: each black circle gets one vertex and
    one edge; each white piece gets a base vertex, its surface loops, one
    2-cell, and for every boundary circle of degree |m| a cellular model
    with |m| vertices, |m| edges and a tether edge to the base vertex.
    Boundary cells are then identified with the black circle cells along
    the degree-|m| covering (union-find), and V - E + F is counted.
    """
    parent: dict[tuple, tuple] = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    vertex_cells: list[tuple] = []
    edge_cells: list[tuple] = []
    faces = 0

    def add(kind, cell):
        parent[cell] = cell
        (vertex_cells if kind == "v" else edge_cells).append(cell)

    for b in graph.blacks:
        add("v", ("bv", b.id))
        add("e", ("be", b.id))
    for w in graph.whites:
        add("v", ("wv", w.id))
        for i in range(_surface_loop_count(w.genus)):
            add("e", ("wl", w.id, i))
        faces += 1
    for e in graph.edges:
        k = abs(e.label)
        if k == 0:
            raise GraphError(f"edge {e.id} has label 0; cw_euler needs a valid graph")
        for i in range(k):
            add("v", ("sv", e.id, i))
            add("e", ("se", e.id, i))
        add("e", ("wt", e.id))
        # glue the boundary circle onto the branch circle, degree k
        for i in range(k):
            union(("sv", e.id, i), ("bv", e.black))
            union(("se", e.id, i), ("be", e.black))

    nv = len({find(c) for c in vertex_cells})
    ne = len({find(c) for c in edge_cells})
    return nv - ne + faces


def spanning_tree(graph: StratifoldGraph) -> frozenset[str]:
    """Edge ids of the breadth-first spanning tree.

    The search starts at the lexicographically smallest vertex id (black
    before white on an id tie) and scans each vertex's incident edges in
    edge-id order, so the result is deterministic.
    """
    return _tree_labels(graph)[0]


@lru_cache(maxsize=1)
def _tree_labels(graph: StratifoldGraph) -> tuple[frozenset[str], dict[str, int]]:
    """The :func:`spanning_tree` of a connected graph and every edge's
    :func:`normalize`d label (edge id -> label), from one walk.

    The latest graph's walk is kept, so the natural presentation and the
    analysis layer's graph matrix of one graph share it; callers only
    read the returned dict."""
    nverts = len(graph.whites) + len(graph.blacks)
    if nverts == 0:
        raise GraphError("empty graph has no spanning tree")
    order = _bfs(graph, graph._root(), set())
    if len(order) + 1 != nverts:
        raise GraphError("graph is not connected")
    labels = {e.id: e.label for e in graph.edges}
    for (kind, vid), eid in order:
        if labels[eid] > 0:
            continue
        if kind == _BLACK:
            for other in graph.edges_at_black(vid):
                labels[other] = -labels[other]
        elif graph.white(vid).genus >= 0:
            for other in graph.edges_at_white(vid):
                labels[other] = -labels[other]
        else:
            labels[eid] = -labels[eid]
    return frozenset([eid for _, eid in order]), labels


def normalize(graph: StratifoldGraph) -> StratifoldGraph:
    """Make every spanning-tree label positive using re-orientation moves.

    The moves, each of which re-orients part of the stratifold and so
    fixes its homeomorphism type, are:

      M1  negate all labels at one black vertex (re-orient the circle),
      M2  negate all labels at one orientable white vertex,
      M3  negate a single label at a nonorientable white vertex.

    Walking the BFS tree from the root, a negative tree label is repaired
    by a move at its far (child) endpoint, which cannot disturb tree edges
    already fixed.  Idempotent, and the result is move-isomorphic to the
    input by construction.
    """
    _, labels = _tree_labels(graph)
    return StratifoldGraph(
        graph.whites, graph.blacks,
        [Edge(e.id, e.white, e.black, labels[e.id]) for e in graph.edges])


# -- move-class isomorphism ----------------------------------------------


def _classes(graph):
    """Parallel classes of edges: vertex -> neighbour -> {|label|: [count,
    positives]}, one dict per white-black pair, seen from both ends."""
    hoods = {v: {} for v in graph._star}
    for e in graph.edges:
        w, b = (_WHITE, e.white), (_BLACK, e.black)
        cell = hoods[w].setdefault(b, {}).setdefault(abs(e.label), [0, 0])
        hoods[b][w] = hoods[w][b]
        cell[0] += 1
        cell[1] += e.label > 0
    return hoods


def _signatures(graph):
    """Colour, genus (0 for a black) and sorted |labels| of every vertex."""
    edge = graph._edge_by_id
    return {v: (v[0], graph._white_by_id[v[1]].genus if v[0] == _WHITE else 0,
                tuple(sorted([abs(edge[eid].label) for eid in eids])))
            for v, eids in graph._star.items()}


def _signs_compatible(g1, h1, h2, vmap):
    """Decide whether edge signs agree up to the moves M1-M3.

    Every move negates either all edges at one vertex or one edge at a
    nonorientable white vertex, so sign patterns are compared per parallel
    class.  A class at an orientable white vertex can only be flipped as a
    block, giving a parity constraint y_black xor y_white = c; classes at
    nonorientable whites are unconstrained (single-edge moves).  The
    constraints are solved by two-colouring, which fails exactly on a
    cycle of odd parity.  ``h1`` and ``h2`` are the parallel classes of
    the two graphs, from :func:`_classes`, and ``vmap`` maps every vertex
    of ``g1`` to one of ``g2``; the caller has matched each class to one
    of equal size whose positive count is either equal or complementary.
    """
    ties: dict[tuple[str, str], list] = {}
    for w in g1.whites:
        if w.genus < 0:
            continue  # any sign pattern reachable via M3
        v = (_WHITE, w.id)
        for u, cls in h1[v].items():
            other = h2[vmap[v]][vmap[u]]
            for m, (k, pos) in cls.items():
                if 2 * pos != k:  # a half-positive class fits either way
                    flip = pos != other[m][1]
                    ties.setdefault(v, []).append((u, flip))
                    ties.setdefault(u, []).append((v, flip))
    side: dict[tuple[str, str], bool] = {}
    for start in ties:
        if start in side:
            continue
        side[start] = False
        todo = [start]
        while todo:
            x = todo.pop()
            for y, flip in ties[x]:
                if y not in side:
                    side[y] = side[x] ^ flip
                    todo.append(y)
                elif side[y] != side[x] ^ flip:
                    return False
    return True


def are_isomorphic(g1: StratifoldGraph, g2: StratifoldGraph) -> bool:
    """Isomorphism of bicolored labeled graphs up to the moves M1-M3.

    A color- and genus-preserving vertex bijection must match every
    parallel class of edges by absolute label, and the sign patterns must
    differ by re-orientation moves only.  One backtracking search, kept on
    an explicit stack, visits g1's vertices depth-first from a vertex of
    rarest signature (colour, genus, sorted |labels|).  Each vertex maps
    to an unused vertex of its signature, a neighbour of its parent's
    image, whose parallel classes to the vertices already mapped match
    its own in size and, at orientable whites, in a sign split some move
    reaches; unless the parallel classes form a forest, a complete map
    must also pass :func:`_signs_compatible`.  The search has no budget:
    graphs with many automorphisms can take exponential time.  Whether
    M1-M3 generate all label equivalences realized by homeomorphisms is
    not claimed; this predicate is exactly move-class isomorphism.
    """
    sig1, sig2 = _signatures(g1), _signatures(g2)
    if sorted(sig1.values()) != sorted(sig2.values()):  # also counts edges
        return False
    by_sig: dict[tuple, list] = {}
    for v, s in sig2.items():
        by_sig.setdefault(s, []).append(v)
    h1, h2 = _classes(g1), _classes(g2)

    # g1's vertices in visiting order, each after its parent.  When the
    # classes form a forest (one per tree edge), no cycle of parity
    # constraints exists, so every sign split that fits admits is reachable
    order: list[tuple] = []
    parent: dict[tuple, tuple | None] = {}
    forest = True
    for root in sorted(sig1, key=lambda v: len(by_sig[sig1[v]])):
        if root in parent:
            continue
        parent[root] = None
        todo = [root]
        while todo:
            v = todo.pop()
            order.append(v)
            for u, cls in h1[v].items():
                if u not in parent:
                    parent[u] = v
                    todo.append(u)
                forest = (forest and len(cls) == 1
                          and (parent[u] == v or parent[v] == u))

    vmap: dict[tuple, tuple] = {}
    used: set[tuple] = set()

    def fits(v, c):
        # v's classes to mapped vertices against c's; that c has no more
        # mapped neighbours than v only prunes, as the edge counts agree
        mapped = 0
        for u, cls in h1[v].items():
            if u not in vmap:
                continue
            other = h2[c].get(vmap[u])
            if other is None or len(other) != len(cls):
                return False
            free = sig1[v][1] < 0 or sig1[u][1] < 0  # nonorientable white end
            for m, (k, pos) in cls.items():
                k2, pos2 = other.get(m, (0, 0))
                if k2 != k or not (free or pos == pos2 or pos == k - pos2):
                    return False
            mapped += 1
        return mapped == len(used.intersection(h2[c]))

    # frame i iterates the untried candidates of order[i]
    frames = [iter(by_sig[sig1[order[0]]])] if order else []
    while frames:
        v = order[len(frames) - 1]
        if v in vmap:
            used.remove(vmap.pop(v))
        for c in frames[-1]:
            if c not in used and sig2[c] == sig1[v] and fits(v, c):
                break
        else:
            frames.pop()
            continue
        if len(frames) == len(order):
            if forest or _signs_compatible(g1, h1, h2, {**vmap, v: c}):
                return True
            continue
        vmap[v] = c
        used.add(c)
        u = order[len(frames)]
        pool = by_sig[sig1[u]] if parent[u] is None else h2[vmap[parent[u]]]
        frames.append(iter(pool))
    return not order
