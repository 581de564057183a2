"""Shared randomized generators for the test suite.

Everything takes an explicit random.Random so individual tests stay
reproducible; no module-level state.  Also the dense Smith normal form
that the sparse diagonalization replaced, kept as a reference.
"""

from stratifold import (DEFAULT_COSET_BUDGET, AbelianInvariants, BlackVertex,
                        Edge, IntMatrix, ManifoldExpr, OrderOracle,
                        StratifoldGraph, Summand, WhiteVertex,
                        apply_transforms, attachment_white, delta_sum, synth)


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
    return IntMatrix(rows, cols, tuple(
        [rng.randint(-max_entry, max_entry) if rng.random() < fill else 0
         for _ in range(rows * cols)]))


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
