"""Shared randomized generators for the test suite.

Everything takes an explicit random.Random so individual tests stay
reproducible; no module-level state.  Also three references: the dense
Smith normal form that the sparse diagonalization replaced, the graph
presentation with one generator per boundary circle that the substituted
natural presentation replaced, and the stack-driven reduction that the
order oracle's worklist replaced.  And a search for homomorphisms to
small symmetric groups, which bound element orders from below.
"""

import functools
import itertools
from math import gcd

from stratifold import (DEFAULT_COSET_BUDGET, AbelianInvariants, BlackVertex,
                        Edge, Generator, GroupPresentation, IntMatrix,
                        ManifoldExpr, OrderOracle, StratifoldGraph, Summand,
                        WhiteVertex, Word, apply_transforms, attachment_white,
                        delta_sum, normalize, spanning_tree, synth)


def random_valid_graph(rng, max_whites=4, max_blacks=3, max_extra=3):
    """Connected bicolored graph meeting every invariant.

    Grown as a random spanning tree (each new vertex attaches to an
    opposite-color vertex already present), plus a few extra edges, plus a
    final pass that bumps labels until every black vertex has d >= 3.
    """
    if rng.random() < 0.1:
        # closed-surface degenerate case
        return StratifoldGraph([WhiteVertex("w0", rng.randint(-2, 2))], [], [])
    nw = rng.randint(1, max_whites)
    nb = rng.randint(1, max_blacks)
    whites = [WhiteVertex(f"w{i}", rng.randint(-2, 2)) for i in range(nw)]
    blacks = [BlackVertex(f"b{i}") for i in range(nb)]

    def label():
        m = rng.randint(1, 3)
        return m if rng.random() < 0.5 else -m

    order = [("b", b.id) for b in blacks[1:]] + [("w", w.id) for w in whites[1:]]
    rng.shuffle(order)
    order.insert(0, ("b", blacks[0].id))  # a black must arrive first

    edges = []
    tree_w = [whites[0].id]
    tree_b = []
    for kind, vid in order:
        if kind == "b":
            edges.append(Edge(f"e{len(edges)}", rng.choice(tree_w), vid, label()))
            tree_b.append(vid)
        else:
            edges.append(Edge(f"e{len(edges)}", vid, rng.choice(tree_b), label()))
            tree_w.append(vid)
    for _ in range(rng.randint(0, max_extra)):
        edges.append(Edge(f"e{len(edges)}", rng.choice(whites).id,
                          rng.choice(blacks).id, label()))

    # enforce the branch condition d >= 3 by inflating one incident label
    for b in blacks:
        incident = [i for i, e in enumerate(edges) if e.black == b.id]
        d = sum(abs(edges[i].label) for i in incident)
        if d < 3:
            i = incident[0]
            e = edges[i]
            bump = 3 - d
            new = e.label + bump if e.label > 0 else e.label - bump
            edges[i] = Edge(e.id, e.white, e.black, new)
    return StratifoldGraph(whites, blacks, edges)


def boundary_presentation(graph):
    """The graph presentation before its boundary circles are substituted.

    Generators: ``b.<black>``; per white, ``s.<edge>`` (role boundary) for
    each of its edges, then its surface loops ``y.<white>.<j>``;
    ``t.<edge>`` per non-tree edge.  Relators: per white s_1...s_p q with
    q the genus word; per tree edge, in id order, the gluing relator
    s^-1 b^m; per non-tree edge t^-1 s t b^-m.  The labels m are
    normalize's.  natural_presentation is this after the Tietze moves
    that substitute each s by its gluing relator and delete both.
    """
    tree = spanning_tree(graph)
    label = {e.id: e.label for e in normalize(graph).edges}
    gens = [Generator(f"b.{b.id}", "black") for b in graph.blacks]
    relators = []
    for w in graph.whites:
        edges = graph.edges_at_white(w.id)
        gens += [Generator(f"s.{eid}", "boundary") for eid in edges]
        if w.genus >= 0:
            loops = [f"y.{w.id}.{j}" for j in range(1, 2 * w.genus + 1)]
            q = [syl for a, b in zip(loops[::2], loops[1::2])
                 for syl in ((a, 1), (b, 1), (a, -1), (b, -1))]
        else:
            loops = [f"y.{w.id}.{j}" for j in range(1, 1 - w.genus)]
            q = [(n, 2) for n in loops]
        gens += [Generator(n, "surface") for n in loops]
        relators.append(Word([(f"s.{eid}", 1) for eid in edges] + q))
    nontree = [e for e in graph.edges if e.id not in tree]
    gens += [Generator(f"t.{e.id}", "stable") for e in nontree]
    for eid in sorted(tree):
        relators.append(Word(((f"s.{eid}", -1),
                              (f"b.{graph.edge(eid).black}", label[eid]))))
    for e in nontree:
        t = f"t.{e.id}"
        relators.append(Word(((t, -1), (f"s.{e.id}", 1), (t, 1),
                              (f"b.{e.black}", -label[e.id]))))
    return GroupPresentation(tuple(gens), tuple(relators))


def abstaining_graph():
    """A graph whose natural presentation the order oracle honestly
    abstains on: its branch circle b has b^2 = 1 from the disk d, so its
    order is 1 or 2, but b is trivial in H1 (the torus w makes it a
    commutator) and H1 = Z^3 is infinite, so no abelian certificate and
    no coset table can decide it.  The fold decides it: the sphere a is
    left with two cone points of order 2, a good orbifold, so b has order
    2.  Not in the F-group family, so no structural obstruction answers
    for it."""
    return StratifoldGraph(
        [WhiteVertex("w", 1), WhiteVertex("a", 0), WhiteVertex("d", 0)],
        [BlackVertex("b")],
        [Edge("e1", "w", "b", 1), Edge("e2", "a", "b", 1),
         Edge("e3", "a", "b", 1), Edge("e4", "d", "b", 2)])


def zero_label_mutation(graph, rng):
    """Zero one edge label; always invalid afterwards."""
    victim = rng.choice(graph.edges).id
    return StratifoldGraph(
        graph.whites, graph.blacks,
        [Edge(e.id, e.white, e.black, 0 if e.id == victim else e.label)
         for e in graph.edges])


def starve_black_mutation(graph, rng):
    """Drop edges at one black vertex until its label sum is below 3."""
    black = rng.choice(graph.blacks).id
    keep = list(graph.edges)
    incident = [e for e in keep if e.black == black]
    rng.shuffle(incident)
    while sum(abs(e.label) for e in keep if e.black == black) >= 3 and incident:
        keep.remove(incident.pop())
    return StratifoldGraph(graph.whites, graph.blacks, keep)


def isolate_mutation(graph):
    """Add an isolated white vertex, breaking connectivity."""
    return StratifoldGraph(list(graph.whites) + [WhiteVertex("zz_alone", 0)],
                           graph.blacks, graph.edges)


def relabeled(graph, prefix):
    """Same graph with every id prefixed (an isomorphic copy)."""
    return StratifoldGraph(
        [WhiteVertex(prefix + w.id, w.genus) for w in graph.whites],
        [BlackVertex(prefix + b.id) for b in graph.blacks],
        [Edge(prefix + e.id, prefix + e.white, prefix + e.black, e.label)
         for e in graph.edges])


def disguised(g, rng):
    """Move-isomorphic copy: shuffled fresh ids and random moves M1-M3."""
    names = [f"v{i}" for i in range(len(g.whites) + len(g.blacks))]
    rng.shuffle(names)
    wid = {w.id: names.pop() for w in g.whites}
    bid = {b.id: names.pop() for b in g.blacks}
    sign = {v: rng.choice((1, -1)) for v in [*wid.values(), *bid.values()]}
    eids = [f"x{i}" for i in range(len(g.edges))]
    rng.shuffle(eids)
    genus = {w.id: w.genus for w in g.whites}

    def label(e):
        if genus[e.white] < 0:
            return e.label * sign[bid[e.black]] * rng.choice((1, -1))
        return e.label * sign[bid[e.black]] * sign[wid[e.white]]
    return StratifoldGraph(
        [WhiteVertex(wid[w.id], w.genus) for w in g.whites],
        [BlackVertex(bid[b.id]) for b in g.blacks],
        [Edge(x, wid[e.white], bid[e.black], label(e)) for x, e in zip(eids, g.edges)])


def fold_synth(expr):
    """Left fold of delta_sum over the sorted summands, attaching at
    attachment_white on both sides: synth's graph, but with delta_sum's
    nested l./r. ids."""
    graphs = [synth(ManifoldExpr([s])) for s in expr.summands]
    acc = graphs[0]
    for g in graphs[1:]:
        acc = delta_sum(acc, attachment_white(acc), g, attachment_white(g))
    return acc


def cycle_rank(graph):
    return len(graph.edges) - len(graph.whites) - len(graph.blacks) + 1


def diagonal(entries, cols=None):
    """Matrix with ``entries`` down the diagonal, square unless ``cols``
    adds zero columns."""
    cols = len(entries) if cols is None else cols
    return IntMatrix.from_rows([[d if i == j else 0 for j in range(cols)]
                                for i, d in enumerate(entries)])


def word_order(pres, word, budget=DEFAULT_COSET_BUDGET):
    """Certified order of ``word`` by a fresh oracle of ``pres``."""
    return OrderOracle(pres).order(word, budget)


def random_int_matrix(rng, max_dim=4, max_entry=6):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-max_entry, max_entry) for _ in range(cols)]
         for _ in range(rows)])


def random_unimodular_ops(rng, rows, cols, count=8):
    """Elementary operations (each invertible over Z) for a rows x cols matrix."""
    ops = []
    for _ in range(count):
        side = rng.random() < 0.5 and rows > 1
        if not side and cols <= 1:
            side = rows > 1
            if not side:
                break
        n = rows if side else cols
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.randint(0, 2)
        if kind == 0 and i != j:
            ops.append(("swap_rows" if side else "swap_cols", i, j))
        elif kind == 1:
            ops.append(("negate_row" if side else "negate_col", i))
        elif i != j:
            ops.append(("add_row" if side else "add_col",
                        i, j, rng.randint(-3, 3)))
    return tuple(ops)


def random_sparse_matrix(rng, max_dim=6, max_entry=9):
    """Rectangular and possibly empty (no rows or no columns), with zero
    rows and columns, negative entries and a random share of zeros."""
    rows, cols = rng.randint(0, max_dim), rng.randint(0, max_dim)
    fill = rng.random()
    dense = [[rng.randint(-max_entry, max_entry) if rng.random() < fill else 0
              for _ in range(cols)] for _ in range(rows)]
    return IntMatrix(rows, cols, tuple({j: v for j, v in enumerate(r) if v}
                                       for r in dense))


def apply_dense(a, op):
    """One recorded elementary operation on a list of row lists."""
    kind = op[0]
    if kind == "swap_rows":
        _, i, j = op
        a[i], a[j] = a[j], a[i]
    elif kind == "swap_cols":
        _, i, j = op
        for row in a:
            row[i], row[j] = row[j], row[i]
    elif kind == "negate_row":
        _, i = op
        a[i] = [-x for x in a[i]]
    elif kind == "negate_col":
        _, i = op
        for row in a:
            row[i] = -row[i]
    elif kind == "add_row":  # row_i += k * row_j
        _, i, j, k = op
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
    elif kind == "add_col":  # col_i += k * col_j
        _, i, j, k = op
        for row in a:
            row[i] += k * row[j]
    else:
        raise ValueError(f"unknown transform {kind!r}")


def snf_inplace(a, rows, cols):
    """Diagonalize with unimodular row/column moves; returns the op list.

    The dense reference: each pivot rescans the whole remaining
    submatrix for the nonzero entry of smallest absolute value, ties
    broken by (row, col).  The divisibility fix-up folds offending rows
    into the pivot row, so the final diagonal is the invariant-factor
    chain.
    """
    ops = []

    def record(op):
        ops.append(op)
        apply_dense(a, op)

    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            record(("swap_rows", t, pi))
        if pj != t:
            record(("swap_cols", t, pj))
        if a[t][t] < 0:
            record(("negate_row", t))
        pivot = a[t][t]
        dirty = False
        for i in range(rows):
            if i != t and a[i][t]:
                q = a[i][t] // pivot
                if q:
                    record(("add_row", i, t, -q))
                if a[i][t]:
                    dirty = True
        if dirty:
            continue  # a smaller remainder appeared; re-pick the pivot
        for j in range(cols):
            if j != t and a[t][j]:
                q = a[t][j] // pivot
                if q:
                    record(("add_col", j, t, -q))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            record(("add_row", t, offender, 1))
            continue
        t += 1
    return ops


def reference_invariants(m):
    """Abelian invariants read off the dense reference's chain."""
    a = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    snf_inplace(a, m.rows, m.cols)
    nonzero = [a[i][i] for i in range(min(m.rows, m.cols)) if a[i][i]]
    return AbelianInvariants(m.cols - len(nonzero),
                             tuple(d for d in nonzero if d >= 2))


def lifo_power_index(relators):
    """``(powers, trivial)`` by the stack-driven reduction the worklist
    replaced: a relator is pushed again for every one of its generators
    that turns trivial, however many pushes of it are still unread."""
    holding = {}
    for i, r in enumerate(relators):
        for name in r.names():
            holding.setdefault(name, []).append(i)
    powers, trivial = {}, set()
    work = list(range(len(relators)))
    while work:
        r = relators[work.pop()]
        rc = Word([s for s in r.syllables if s[0] not in trivial]).cyclically_reduced()
        if len(rc.syllables) == 1:
            name, exp = rc.syllables[0]
            powers[name] = gcd(powers.get(name, 0), exp)
            if powers[name] == 1:
                trivial.add(name)
                work += holding[name]
    return powers, frozenset(trivial)


def prime_power_chain(orders):
    """Invariant factors (each >= 2, ascending) of the sum of Z/d over
    positive ``orders``: the k-th largest power of each prime, multiplied
    across primes, is the k-th factor from the top."""
    powers = {}
    for d in orders:
        p = 2
        while p * p <= d:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
        if d > 1:
            powers.setdefault(d, []).append(d)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = [1] * depth
    for qs in powers.values():
        for k, q in enumerate(sorted(qs, reverse=True)):
            chain[k] *= q
    return tuple(reversed(chain))


def transformed(matrix, rng, count=8):
    """The matrix hit by random unimodular row/column operations."""
    return apply_transforms(
        matrix, random_unimodular_ops(rng, matrix.rows, matrix.cols, count))


PRIMITIVE_SUMMANDS = (
    Summand("lens", 2), Summand("lens", 3), Summand("lens", 5),
    Summand("lens", 7), Summand("lens", 9),
    Summand("s2xs1"), Summand("s2~xs1"), Summand("p2xs1"),
)


# one summand of each spine shape: the bare P2, lens disks of two labels,
# and the three bundle spines
SPINE_KINDS = (Summand("lens", 2), Summand("lens", 3), Summand("lens", 4),
               Summand("s2xs1"), Summand("s2~xs1"), Summand("p2xs1"))


def random_expr_summands(rng, max_summands=5):
    k = rng.randint(1, max_summands)
    out = []
    for _ in range(k):
        if rng.random() < 0.5:
            out.append(Summand("lens", rng.randint(2, 9)))
        else:
            out.append(rng.choice((Summand("s2xs1"), Summand("s2~xs1"),
                                   Summand("p2xs1"))))
    return tuple(out)


# -- homomorphisms to symmetric groups ---------------------------------------
# A permutation of range(n) is the tuple of its images.  If a hom sends b to
# a permutation of order k, then k divides the order of b in the group.


def perm_mul(p, q):
    """p, then q."""
    return tuple(map(q.__getitem__, p))


@functools.lru_cache(maxsize=None)
def perm_pow(p, e):
    if e < 0:
        inv = [0] * len(p)
        for i, j in enumerate(p):
            inv[j] = i
        p, e = tuple(inv), -e
    out = tuple(range(len(p)))
    while e:
        if e & 1:
            out = perm_mul(out, p)
        p, e = perm_mul(p, p), e >> 1
    return out


def perm_order(p):
    one, q, k = tuple(range(len(p))), p, 1
    while q != one:
        q, k = perm_mul(q, p), k + 1
    return k


def cycle_type_permutations(degree):
    """One permutation of each cycle type on ``degree`` points.  Up to
    conjugacy, every homomorphism sends a given generator to one of them."""
    def partitions(n, top):
        if n == 0:
            yield ()
        for i in range(min(n, top), 0, -1):
            for rest in partitions(n - i, i):
                yield (i,) + rest
    for part in partitions(degree, degree):
        p, start = [], 0
        for c in part:
            p += [start + (i + 1) % c for i in range(c)]
            start += c
        yield tuple(p)


class SearchSpent(Exception):
    """The homomorphism search tried its budget of candidates."""


def symmetric_image(pres, fixed, degree, budget, rng):
    """A homomorphism from ``pres`` to the symmetric group on ``degree``
    points sending each generator named in ``fixed`` to its permutation:
    a dict of generator name -> permutation, or None when there is none.

    Depth first: the relator with the fewest generators left is completed
    next, and a relator is checked as soon as its last generator is set.
    The candidates are tried in an order shuffled by ``rng``, so a search
    that raises SearchSpent after ``budget`` candidates can be retried.
    """
    relators = [r.syllables for r in pres.relators if r.syllables]
    order, done = list(fixed), set(fixed)
    while True:
        left = [[n for n in dict.fromkeys(n for n, _ in r) if n not in done]
                for r in relators]
        left = [names for names in left if names]
        if not left:
            break
        for n in min(left, key=len):
            order.append(n)
            done.add(n)
    order += [g.name for g in pres.generators if g.name not in done]
    depth = {n: i for i, n in enumerate(order)}
    closing = [[] for _ in order]
    for r in relators:
        closing[max(depth[n] for n, _ in r)].append(r)
    one = tuple(range(degree))
    elements = list(itertools.permutations(range(degree)))
    rng.shuffle(elements)
    image = dict(fixed)
    spent = 0

    def holds(d):
        for r in closing[d]:
            v = one
            for n, e in r:
                v = perm_mul(v, perm_pow(image[n], e))
            if v != one:
                return False
        return True

    def extend(d):
        nonlocal spent
        if d == len(order):
            return True
        name = order[d]
        candidates = [fixed[name]] if name in fixed else elements
        for p in candidates:
            spent += 1
            if spent > budget:
                raise SearchSpent
            image[name] = p
            if holds(d) and extend(d + 1):
                return True
        return False

    return dict(image) if extend(0) else None
