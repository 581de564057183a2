"""Shared randomized generators for the test suite.

Everything takes an explicit random.Random so individual tests stay
reproducible; no module-level state.
"""

from stratifold import (BlackVertex, Edge, IntMatrix, ManifoldExpr,
                        StratifoldGraph, Summand, WhiteVertex, apply_transforms,
                        attachment_white, delta_sum, synth)


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
