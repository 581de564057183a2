"""Independent routes to the same answer must agree.

The order oracle deletes the generators its relators prove trivial and
reads the abelian invariants and the order certificates on what is
left; here they are checked against the full relation matrix, against
the route through the Tietze simplifier, and against a reduction that
rescans every relator until nothing changes.  The sparse Smith form is
checked against the dense one with the divisibility fix-up that it
replaced.  H1 of the torsion quotient, read from a matrix of the graph,
is checked against a quotient presentation built here and against the
natural presentation with random generators killed; the order census,
folded from the graph, is checked against the presentation oracle and
against coset tables, and each finite order it gives is reached from
below by the image in H1 and by homomorphisms to small symmetric groups.
The reduction's worklist is checked against the stack-driven reduction
it replaced, and its reads are counted.
The order oracle skips coset enumeration when H1 is infinite; the
premise of that skip is checked directly.  The occurrence-aware
simplifier is checked against a reference copy of the rescanning loop it
replaced, and the closed-form substitution against its
syllable-by-syllable definition.  The
Q-surgery's capped edges are checked against a scan per piece, and the
obstruction suite, which reads the surgery off the fold, against the
pieces and the H1 that q_graph reports.
The one-pass canonical spine is checked against the left fold of
delta_sum it replaced, and the natural presentation against the
presentation with one generator per boundary circle that it substitutes.
The key that recognize looks pieces up by is checked against move-class
isomorphism on graphs with one black vertex.
"""

import json
import random
import sys
from dataclasses import replace
from itertools import combinations_with_replacement
from math import gcd, lcm, prod
from pathlib import Path

import pytest

import stratifold.algebra
import stratifold.analysis
from helpers import (SPINE_KINDS, SearchSpent, apply_dense,
                     boundary_presentation, cycle_type_permutations,
                     disguised, fold_synth, lifo_power_index, perm_order,
                     prime_power_chain, random_sparse_matrix,
                     random_unimodular_ops, random_valid_graph,
                     reference_invariants, symmetric_image)
from stratifold import (GENERATOR_ROLES, AbelianInvariants, BlackVertex,
                        CosetTable, Edge, Exhausted, FiniteOrder, FSignature,
                        Generator, GroupPresentation, InfiniteOrder, IntMatrix,
                        ManifoldExpr, Obstruction, OrderOracle, ParseError,
                        SimplifyResult, StratifoldGraph, UnknownOrder,
                        WhiteVertex, Word, abelianization, apply_transforms,
                        are_isomorphic, black_orders, fgroup_graph,
                        fgroup_presentation, natural_presentation, normalize,
                        obstructions, parse_expr, parse_graph, q_graph,
                        relation_matrix, rewrite_through, simplify,
                        smith_normal_form, synth, todd_coxeter, validate)
from stratifold.algebra import (_chain, _column_matrix, _power_index,
                                _power_relator_bound)
from stratifold.analysis import _quotient_h1
from stratifold.presentation import DEFAULT_SIMPLIFY_BUDGET, ELIMINABLE_ROLES
from stratifold.spine import _piece_key

NAMES = ("a", "b", "c", "d", "e")


def random_word(rng, names, max_syllables=6, max_exp=3):
    return Word(tuple((rng.choice(names), rng.choice(
        [e for e in range(-max_exp, max_exp + 1) if e]))
        for _ in range(rng.randint(0, max_syllables))))


def random_presentation(rng):
    names = NAMES[:rng.randint(1, len(NAMES))]
    gens = tuple(Generator(n, rng.choice(GENERATOR_ROLES)) for n in names)
    rels = []
    for _ in range(rng.randint(0, 5)):
        if rng.random() < 0.3:
            rels.append(Word(((rng.choice(names), rng.randint(-6, 6)),)))
        else:
            rels.append(random_word(rng, names))
    return GroupPresentation(gens, tuple(rels))


def graph_presentations(rng, count):
    for _ in range(count):
        g = normalize(random_valid_graph(rng, max_whites=5, max_blacks=4,
                                         max_extra=4))
        yield g, natural_presentation(g)


def black_words(graph):
    return [Word(((f"b.{b.id}", 1),)) for b in graph.blacks]


# -- the unsimplified route ---------------------------------------------------


def full_matrix_order(pres, word):
    """Order of the word's image in H1 from the full relation matrix, with
    the diagonal replayed from the recorded operations; None if infinite."""
    names = pres.generator_names()
    m = relation_matrix(pres)
    n = m.cols
    if m.rows == 0:
        diag, v = [0] * n, _column_matrix((), n)
    else:
        _, ops = smith_normal_form(m)
        d = apply_transforms(m, ops)
        diag = [d[i, i] if i < d.rows else 0 for i in range(n)]
        v = _column_matrix(ops, n)
    x = [sum(e for n, e in word.syllables if n == name) for name in names]
    y = [sum(x[i] * v[i].get(j, 0) for i in range(n)) for j in range(n)]
    order = 1
    for d, c in zip(diag, y):
        if d == 0 and c:
            return None
        if d >= 2 and c % d:
            k = d // gcd(d, c % d)
            order = order * k // gcd(order, k)
    return order


def simplify_route_bound(pres, word):
    """The power-relator bound of the word rewritten into the simplified
    presentation."""
    sr = simplify(pres)
    return reference_power_bound(sr.presentation.relators,
                                 rewrite_through(word, sr.eliminations))


def full_matrix_verdict(pres, word, budget, bound=simplify_route_bound):
    """(kind, order) of the order certificate with the abelian step taken
    on the full matrix instead of the reduced one, and the upper bound
    from ``bound(pres, word)``, by default through the simplifier.  It
    tries a coset table whether or not H1 is finite, so it also checks
    the oracle's skip of tables that cannot close."""
    if word.is_empty:
        return "finite", 1
    lower = full_matrix_order(pres, word)
    if lower is None:
        return "infinite", None
    upper = bound(pres, word)
    if upper in (0, 1):
        return "finite", 1
    if upper == lower:
        return "finite", upper
    table = todd_coxeter(pres, budget=budget)
    if isinstance(table, CosetTable):
        return "finite", table.permutation_order(word)
    return "unknown", None


def reference_power_bound(relators, image):
    """The power-relator bound by a scan of every cyclically reduced
    relator: the gcd of the k with a relator a rotation of image^k or of
    its inverse^k, and of m/gcd(m, e) over the relators x^m when the image
    is x^e; None when there is no bound, 0 when the image is trivial."""
    w = image.cyclically_reduced()
    if w.is_empty:
        return 0
    g = 0
    cyclic = [rc for rc in (r.cyclically_reduced() for r in relators) if not rc.is_empty]
    if len(w.syllables) == 1:
        name, exp = w.syllables[0]
        m = 0
        for rc in cyclic:
            if len(rc.syllables) == 1 and rc.syllables[0][0] == name:
                m = gcd(m, abs(rc.syllables[0][1]))
        if m:
            g = m // gcd(m, abs(exp))
    wlen = w.length()
    for rc in cyclic:
        if rc.length() % wlen:
            continue
        k = rc.length() // wlen
        for v in (w, w.inverse()):
            p = naive_power(v, k).syllables
            if any(rc.syllables == p[i:] + p[:i] for i in range(len(p))):
                g = gcd(g, k)
                break
    return g or None


def rescan_reduction(relators):
    """``(powers, trivial, scans)``: the generators the relators prove
    trivial, the power gcds of the others, and the number of scans.  Each
    scan reads every relator with the trivial generators deleted and
    cyclically reduced; a generator whose single powers have gcd 1 is
    trivial, and the scans go on until none is found."""
    trivial, scans = set(), 0
    while True:
        scans += 1
        powers = {}
        for r in relators:
            rc = Word([s for s in r.syllables if s[0] not in trivial]).cyclically_reduced()
            if len(rc.syllables) == 1:
                name, exp = rc.syllables[0]
                powers[name] = gcd(powers.get(name, 0), abs(exp))
        more = {name for name, m in powers.items() if m == 1}
        if not more:
            return powers, trivial, scans
        trivial |= more


def rescan_power_bound(pres, word):
    """The power bound of the word's image under :func:`rescan_reduction`:
    0 when it is trivial, m/gcd(m, e) when it is conjugate to x^e with
    power gcd m, else None."""
    powers, trivial, _ = rescan_reduction(pres.relators)
    w = Word([s for s in word.syllables if s[0] not in trivial]).cyclically_reduced()
    if w.is_empty:
        return 0
    if len(w.syllables) > 1:
        return None
    name, exp = w.syllables[0]
    m = powers.get(name, 0)
    return m // gcd(m, abs(exp)) if m else None


def census_graphs():
    """The benchmark's fixed census of graphs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [g for g, _ in workloads.census_graphs()]


def verdict_key(v):
    if isinstance(v, FiniteOrder):
        return "finite", v.order
    if isinstance(v, InfiniteOrder):
        return "infinite", None
    assert isinstance(v, UnknownOrder)
    return "unknown", None


# -- the rescanning simplifier ---------------------------------------------


def reference_find_elimination(relators, keep):
    for ri, r in enumerate(relators):
        counts = {}
        for n, _ in r.syllables:
            counts[n] = counts.get(n, 0) + 1
        for si, (n, e) in enumerate(r.syllables):
            if abs(e) != 1 or counts[n] != 1:
                continue
            if n in keep and len(r.syllables) > 1:
                continue
            return ri, si
    return None


def reference_simplify(pres, budget=DEFAULT_SIMPLIFY_BUDGET, tracked=()):
    """The simplifier's result, and the ``tracked`` words carried through
    every substitution as it is made."""
    keep = frozenset(g.name for g in pres.generators
                     if g.role not in ELIMINABLE_ROLES)
    gens = list(pres.generators)
    relators = [r for r in pres.relators if not r.is_empty]
    tracked = list(tracked)
    eliminations = []
    steps = 0
    exhausted = False
    while True:
        pick = reference_find_elimination(tuple(relators), keep)
        if pick is None:
            break
        if steps >= budget:
            exhausted = True
            break
        ri, si = pick
        r = relators[ri]
        name, exp = r.syllables[si]
        before = Word(r.syllables[:si])
        after = Word(r.syllables[si + 1:])
        if exp == 1:
            definition = before.inverse() * after.inverse()
        else:
            definition = after * before
        del relators[ri]
        relators = [naive_substitute(s, name, definition) for s in relators]
        relators = [s for s in relators if not s.is_empty]
        tracked = [naive_substitute(t, name, definition) for t in tracked]
        gens = [g for g in gens if g.name != name]
        eliminations.append((name, definition))
        steps += 1
    return (SimplifyResult(GroupPresentation(tuple(gens), tuple(relators)),
                           tuple(eliminations), exhausted, steps),
            tuple(tracked))


def naive_power(word, k):
    base = word if k > 0 else word.inverse()
    out = Word()
    for _ in range(abs(k)):
        out = out * base
    return out


def naive_substitute(word, name, replacement):
    out = Word()
    for n, e in word.syllables:
        out = out * (naive_power(replacement, e) if n == name else Word(((n, e),)))
    return out


# -- tests -------------------------------------------------------------------


def test_abelianization_matches_full_matrix_snf():
    rng = random.Random(1707)
    cases = [p for _, p in graph_presentations(rng, 60)]
    cases += [random_presentation(rng) for _ in range(200)]
    cases += [natural_presentation(g) for g in golden_graphs()]
    cases += [natural_presentation(synth(ManifoldExpr(kinds))) for k in (1, 2, 3)
              for kinds in combinations_with_replacement(SPINE_KINDS, k)]
    for p in cases:
        full, _ = smith_normal_form(relation_matrix(p))
        # H1 through the Tietze simplifier, kept as a reference route
        simplified, _ = smith_normal_form(relation_matrix(simplify(p).presentation))
        assert abelianization(p) == full == simplified


def test_sparse_smith_form_matches_the_dense_reference():
    rng = random.Random(1711)
    for _ in range(400):
        m = random_sparse_matrix(rng)
        inv, ops = smith_normal_form(m)
        assert inv == reference_invariants(m)
        d = apply_transforms(m, ops)
        assert (d.rows, d.cols) == (m.rows, m.cols)
        assert all(d[i, j] == 0 for i in range(d.rows) for j in range(d.cols)
                   if i != j)
        nonzero = [d[i, i] for i in range(min(d.rows, d.cols)) if d[i, i]]
        assert all(x > 0 for x in nonzero)
        assert inv.free_rank == m.cols - len(nonzero)
        assert _chain(nonzero) == inv.torsion == prime_power_chain(nonzero)


def test_sparse_column_matrix_matches_a_dense_replay():
    rng = random.Random(1712)
    for _ in range(200):
        m = random_sparse_matrix(rng)
        _, ops = smith_normal_form(m)
        ops += random_unimodular_ops(rng, m.rows, m.cols)
        n = m.cols
        dense = [[int(i == j) for j in range(n)] for i in range(n)]
        for op in ops:
            if op[0] in ("swap_cols", "negate_col", "add_col"):
                apply_dense(dense, op)
        sparse = _column_matrix(ops, n)
        assert [[row.get(j, 0) for j in range(n)] for row in sparse] == dense
        assert all(v for row in sparse for v in row.values())


def test_oracle_matches_full_matrix_oracle_on_graphs():
    rng = random.Random(1709)
    for g, p in graph_presentations(rng, 60):
        oracle = OrderOracle(p)
        for w in black_words(g):
            assert verdict_key(oracle.order(w, 300)) == full_matrix_verdict(p, w, 300)


def reduction_graphs():
    """The census graphs, then 500 random valid graphs."""
    rng = random.Random(1721)
    yield from census_graphs()
    for _ in range(500):
        yield random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)


def test_reduction_contains_the_simplifier_on_graphs():
    equal = smaller = 0
    for g in reduction_graphs():
        p = natural_presentation(g)
        sr = simplify(p)
        oracle = OrderOracle(p)
        trivial = oracle._index[1]
        eliminated = {name for name, _ in sr.eliminations}
        assert eliminated <= trivial
        # on a graph presentation every elimination is of a trivial generator
        assert all(d.is_empty for _, d in sr.eliminations)
        if eliminated == trivial:
            assert oracle.reduced == sr.presentation
            equal += 1
        else:
            smaller += 1
        assert abelianization(oracle) == reference_invariants(relation_matrix(p))
    assert equal > 640 and smaller >= 1 and equal + smaller == 651


def test_oracle_decides_where_the_simplify_route_decides_on_graphs():
    decided = 0
    for g in reduction_graphs():
        p = natural_presentation(g)
        oracle = OrderOracle(p)
        for w in black_words(g):
            want = full_matrix_verdict(p, w, 300)
            got = verdict_key(oracle.order(w, 300))
            if want[0] != "unknown":
                assert got == want
                decided += 1
            else:
                # the reduction's gcd and cyclic cases may decide more
                assert got[0] in ("unknown", "finite")
    assert decided > 950


def test_oracle_matches_full_matrix_oracle_on_random_words():
    rng = random.Random(1710)
    reduced = 0
    for _ in range(150):
        p = random_presentation(rng)
        oracle = OrderOracle(p)
        names = p.generator_names()
        _, trivial, _ = rescan_reduction(p.relators)
        for _ in range(4):
            w = random_word(rng, names, max_syllables=3)
            want = full_matrix_verdict(p, w, 200, bound=rescan_power_bound)
            assert verdict_key(oracle.order(w, 200)) == want
            # the image of such a word is the word less its trivial letters
            reduced += not trivial.isdisjoint(w.names())
    assert reduced >= 70


def test_indexed_power_bound_matches_full_scan():
    rng = random.Random(1718)
    found = trivial_found = cascades = 0
    for _ in range(400):
        p = random_presentation(rng)
        names = p.generator_names()
        # powers of random words, rotated and possibly inverted: a relator
        # of several syllables bounds a power once the deletions leave one
        roots = [random_word(rng, names, max_syllables=3) for _ in range(2)]
        extra = []
        for root in roots:
            q = naive_power(root, rng.randint(1, 4)).syllables
            i = rng.randrange(len(q) + 1)
            extra.append(naive_power(Word(q[i:] + q[:i]), rng.choice((1, -1))))
        relators = p.relators + tuple(extra)
        powers, trivial, scans = rescan_reduction(relators)
        index = _power_index(relators)
        assert index[1] == trivial, relators
        assert {n: m for n, m in index[0].items() if n not in trivial} == powers
        for w in roots + [random_word(rng, names) for _ in range(4)]:
            image = Word([s for s in w.syllables if s[0] not in trivial])
            got = _power_relator_bound(index, image)
            assert got == rescan_power_bound(GroupPresentation(p.generators, relators), w)
            found += bool(got)
        trivial_found += bool(trivial)
        cascades += scans > 2
    assert found > 400 and trivial_found > 140 and cascades > 20


def golden_graphs():
    """The valid graphs among the golden corpus's inputs."""
    path = Path(__file__).resolve().parent / "golden" / "cli_reports.json"
    graphs = []
    for text in json.loads(path.read_text(encoding="utf-8"))["inputs"].values():
        try:
            g = parse_graph(text)
        except ParseError:
            continue  # a presentation, an expression or a bad graph text
        if not validate(g):
            graphs.append(g)
    return graphs


def test_worklist_reduction_matches_the_lifo_reference():
    golden = golden_graphs()
    assert len(golden) >= 15
    spines = [synth(ManifoldExpr(kinds)) for k in range(1, 5)
              for kinds in combinations_with_replacement(SPINE_KINDS, k)]
    rng = random.Random(29)
    randoms = [random_valid_graph(rng) for _ in range(2000)]
    trivial = 0
    for g in golden + spines + randoms:
        relators = natural_presentation(g).relators
        want = lifo_power_index(relators)
        assert _power_index(relators) == want, g
        trivial += bool(want[1])
    assert trivial > 300


@pytest.mark.parametrize("expr", ["L(3) # " + " # ".join(["S2xS1"] * 40), "L(3)"])
def test_worklist_reads_each_relator_at_most_twice(monkeypatch, expr):
    # every read reduces one relator through _cyclic_core
    reads = []
    real = stratifold.algebra._cyclic_core

    def counting(syllables, names):
        reads.append(syllables)
        return real(syllables, names)

    monkeypatch.setattr(stratifold.algebra, "_cyclic_core", counting)
    relators = natural_presentation(synth(parse_expr(expr))).relators
    powers, trivial = _power_index(relators)
    assert len(relators) <= len(reads) <= 2 * len(relators)
    assert (powers, trivial) == lifo_power_index(relators)
    # the hub white's relator holds a junction black of every summand
    assert len(trivial) > len(relators) // 2 or len(relators) == 1


def test_simplify_matches_rescanning_loop():
    rng = random.Random(1711)
    cases = [p for _, p in graph_presentations(rng, 80)]
    cases += [random_presentation(rng) for _ in range(300)]
    for p in cases:
        names = p.generator_names()
        tracked = tuple(random_word(rng, names) for _ in range(rng.randint(0, 3))
                        if names)
        budget = rng.choice((0, 1, 2, 5, DEFAULT_SIMPLIFY_BUDGET))
        got = simplify(p, budget)
        want, carried = reference_simplify(p, budget, tracked)
        assert got == want
        # words rewritten later match words carried along the way
        assert tuple(rewrite_through(w, got.eliminations) for w in tracked) == carried


def test_power_and_substitute_match_syllable_definitions():
    rng = random.Random(1712)
    for _ in range(500):
        w = random_word(rng, NAMES[:3])
        r = random_word(rng, NAMES[:3], max_syllables=3)
        name = rng.choice(NAMES[:3])
        assert w.substitute(name, r) == naive_substitute(w, name, r)


def test_free_abelianization_never_closes():
    # the premise of the oracle's skip: an infinite group has no finite
    # coset table over the trivial subgroup, whatever the budget
    rng = random.Random(1713)
    cases = [p for _, p in graph_presentations(rng, 40)]
    cases += [random_presentation(rng) for _ in range(120)]
    free = [p for p in cases if abelianization(p).free_rank]
    assert len(free) >= 80
    for p in free:
        assert isinstance(todd_coxeter(p, budget=2000), Exhausted)


def test_census_skips_enumeration_when_abelianization_is_free(monkeypatch):
    calls = []
    enumerate_ = stratifold.algebra.todd_coxeter

    def counting(*args, **kwargs):
        calls.append(args[0])
        return enumerate_(*args, **kwargs)

    monkeypatch.setattr(stratifold.algebra, "todd_coxeter", counting)
    rng = random.Random(1714)
    free = 0
    for g, p in graph_presentations(rng, 150):
        black_orders(g)  # the census enumerates nothing on any graph
        if abelianization(p).free_rank:
            free += 1
            oracle = OrderOracle(p)
            for w in black_words(g):
                oracle.order(w, 300)
    assert free >= 100
    assert calls == []
    # the counter sees the enumeration a finite H1 still needs: the
    # (2,3,7) triangle group has trivial H1, and b^7 = 1 does not pin the
    # order, so the oracle tries a table for each question
    oracle = OrderOracle(natural_presentation(fgroup_graph(FSignature(0, (2, 3, 7)))))
    verdicts = [oracle.order(w, 300) for w in (Word((("b.b1", 1),)), Word((("b.b3", 1),)))]
    assert len(calls) == 2
    assert verdicts == [UnknownOrder(300)] * 2


def test_q_abelianization_matches_quotient_presentation():
    rng = random.Random(1715)
    for _ in range(200):
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        q = q_graph(g)
        base = natural_presentation(normalize(g))
        killed = [Word(((f"b.{b}", 1),)) for b in q.deleted_blacks]
        for wid in q.white_holes:
            killed += [Word(((gen.name, 1),)) for gen in base.generators
                       if gen.name.startswith(f"y.{wid}.")]
        pres = GroupPresentation(base.generators, base.relators + tuple(killed))
        assert pres == q.presentation
        assert q.abelianization == abelianization(pres)
        assert q.abelianization == smith_normal_form(relation_matrix(pres))[0]


def test_natural_presentation_matches_boundary_generators():
    # H1 by the dense reference Smith form, and every branch circle's
    # permutation order where both coset tables close at budget 2000
    rng = random.Random(1720)
    closed = 0
    for _ in range(1000):
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        pres = natural_presentation(g), boundary_presentation(g)
        h1 = [reference_invariants(relation_matrix(p)) for p in pres]
        assert h1[0] == h1[1]
        if h1[0].free_rank:
            continue  # an infinite group has no finite coset table
        tables = [todd_coxeter(p, budget=2000) for p in pres]
        if all(isinstance(t, CosetTable) for t in tables):
            closed += 1
            assert tables[0].cosets == tables[1].cosets
            for w in black_words(g):
                assert tables[0].permutation_order(w) == tables[1].permutation_order(w)
    assert closed >= 25


def test_one_oracle_answers_each_budget_as_a_fresh_one():
    # the kept coset table must not answer for another budget: a table
    # that exhausted at 50 would make 2000 abstain, and one that closed
    # at 2000 would decide at 50
    p = fgroup_presentation(FSignature(0, (2, 3, 5)))
    w = Word((("c1", 1), ("c2", 1)))
    shared = OrderOracle(p)
    for budget in (50, 2000, 50, 2000):
        v = shared.order(w, budget)
        assert v == OrderOracle(p).order(w, budget)
        if budget == 50:
            assert v == UnknownOrder(50)
        else:
            assert v == FiniteOrder(5, "coset enumeration closed with 60 cosets")


def test_graph_quotient_h1_matches_the_presentation():
    # random sets of dead blacks and genus -1 holes, not only those a
    # census gives: the natural presentation's relation matrix with the
    # killed generators' columns deleted, by the dense reference
    rng = random.Random(1716)
    killed_some = holes_some = 0
    for _ in range(600):
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        dead = frozenset(b.id for b in g.blacks if rng.random() < 0.4)
        holes = frozenset(w.id for w in g.whites
                          if w.genus == -1 and rng.random() < 0.5)
        killed = {f"b.{b}" for b in dead} | {f"y.{w}.1" for w in holes}
        pres = natural_presentation(g)
        m = relation_matrix(pres)
        keep = {j: k for k, j in enumerate(
            j for j, n in enumerate(pres.generator_names()) if n not in killed)}
        rest = IntMatrix(m.rows, len(keep), tuple(
            {keep[j]: v for j, v in row.items() if j in keep} for row in m.nonzero))
        assert _quotient_h1(g, dead, holes) == reference_invariants(rest)
        killed_some += bool(killed)
        holes_some += bool(holes)
    assert killed_some > 300 and holes_some > 100


def test_graph_quotient_h1_drops_labels_that_cancel(monkeypatch):
    # w meets b by labels 2 and -2, which cancel, so w's row of M stores
    # nothing (IntMatrix rejects a stored 0)
    g = StratifoldGraph(
        [WhiteVertex("w", 0), WhiteVertex("v", -1)], [BlackVertex("b")],
        [Edge("e1", "w", "b", 2), Edge("e2", "w", "b", -2), Edge("e3", "v", "b", 3)])
    seen = []
    real = stratifold.analysis.smith_normal_form
    monkeypatch.setattr(stratifold.analysis, "smith_normal_form",
                        lambda m: seen.append(m) or real(m))
    h1 = _quotient_h1(g, frozenset(), frozenset())
    assert [m.nonzero for m in seen] == [({0: 3, 1: 2}, {})]  # rows v, w
    assert h1 == reference_invariants(relation_matrix(natural_presentation(g)))
    assert h1 == AbelianInvariants(2, ())


def test_census_from_the_graph_matches_the_presentation_oracle():
    # labels widened by factors 1, 2, 3 and 5, so cone points of several
    # orders meet.  The fold is exact: it equals the presentation oracle
    # wherever the oracle decides, and the permutation order wherever a
    # coset table of the whole group closes (only when H1 is finite)
    rng = random.Random(1722)
    decided = closed = new = 0
    for _ in range(2000):
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        g = StratifoldGraph(g.whites, g.blacks, [
            replace(e, label=e.label * rng.choice((1, 2, 3, 5))) for e in g.edges])
        census = black_orders(g)
        assert not any(isinstance(v, UnknownOrder) for v in census.values())
        fold = {b: getattr(v, "order", 0) for b, v in census.items()}
        oracle = OrderOracle(natural_presentation(g))
        for b, w in zip(g.blacks, black_words(g)):
            v = oracle.order(w, 2000)
            if isinstance(v, UnknownOrder):
                new += 1
                continue
            assert fold[b.id] == getattr(v, "order", 0), (b.id, v, census[b.id])
            decided += 1
        if abelianization(oracle).free_rank:
            continue  # an infinite group has no finite coset table
        table = todd_coxeter(oracle.pres, 20_000)
        if isinstance(table, CosetTable):
            closed += 1
            assert fold == {b.id: table.permutation_order(w)
                            for b, w in zip(g.blacks, black_words(g))}
    # at seed 1722: 3,015 oracle verdicts agree, the fold decides 1,482
    # abstentions, and 82 tables close
    assert decided > 2500 and new > 1200 and closed > 70


def h1_image_order(pres, word):
    """Order of the word's image in H1, 0 when infinite, by the dense
    reference Smith form of the presentation with and without the word."""
    full = reference_invariants(relation_matrix(pres))
    cut = reference_invariants(relation_matrix(
        GroupPresentation(pres.generators, pres.relators + (word,))))
    if cut.free_rank != full.free_rank:
        return 0
    return prod(full.torsion) // prod(cut.torsion)


def reach_from_below(pres, name, n, reached, finite, rng, rounds=10):
    """The lcm of ``reached`` and the orders of the generator's images
    under homomorphisms to S_2 .. S_6 that the search finds, until it
    comes to ``n``.  Each homomorphism found must send every black b of
    ``finite`` to a permutation whose order divides n_b."""
    missing = set()  # cycle types that no homomorphism sends the generator to
    for _ in range(rounds):
        for degree in range(2, 7):
            for p in cycle_type_permutations(degree):
                k = perm_order(p)
                if reached == n:
                    return reached
                if n % k or reached % k == 0 or p in missing:
                    continue
                try:
                    image = symmetric_image(pres, {name: p}, degree, 1000, rng)
                except SearchSpent:
                    continue
                if image is None:
                    missing.add(p)
                    continue
                for b, m in finite.items():
                    assert m % perm_order(image[f"b.{b}"]) == 0, (b, m, image)
                reached = lcm(reached, k)
    return reached


def test_finite_orders_are_reached_from_below():
    # the fold proves b^(n_b) = 1; here n_b is reached from below by
    # routes that share nothing with the fold or the oracle.  The orders
    # of b's images in H1 and in symmetric groups each divide the order
    # of b, so their lcm must come to n_b.  The graphs have the shape of
    # the benchmark's census, where many finite orders are trivial in H1,
    # mostly in infinite groups, so that neither H1 nor a coset table
    # checks them.  A graph with an order above 6 is skipped, as S_6 has
    # no element of that order
    rng, search = random.Random(1723), random.Random(1724)
    finite_total = above_one = trivial_in_h1 = skipped = 0
    for _ in range(2000):
        g = random_valid_graph(rng, max_whites=3, max_blacks=3, max_extra=3)
        census = black_orders(g)
        finite = {b: v.order for b, v in census.items() if isinstance(v, FiniteOrder)}
        if max(finite.values(), default=1) > 6:
            skipped += 1
            continue
        pres = natural_presentation(g)
        for b, n in finite.items():
            name = f"b.{b}"
            reached = h1_image_order(pres, Word(((name, 1),)))
            assert reached and n % reached == 0, (b, census[b], reached)
            trivial_in_h1 += reached == 1 < n
            reached = reach_from_below(pres, name, n, reached, finite, search)
            assert reached == n, (b, census[b], reached, g)
        finite_total += len(finite)
        above_one += sum(n > 1 for n in finite.values())
    # at seed 1723: 206 finite orders, 139 of them above 1 and 40 of those
    # trivial in H1; 3 graphs skipped
    assert finite_total > 180 and above_one > 120 and trivial_in_h1 > 30
    assert skipped < 10


def test_capped_edges_match_a_scan_per_piece():
    rng = random.Random(1719)
    pieces = capped = 0
    for _ in range(300):
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        q = q_graph(g)
        dead = set(q.deleted_blacks)
        for c in q.components:
            wids = {w.id for w in c.graph.whites}
            assert c.capped == tuple(sorted(e.id for e in g.edges
                                            if e.white in wids and e.black in dead))
            pieces += 1
            capped += bool(c.capped)
    assert pieces > 150 and capped > 40


def flat_ids(fold, n):
    """The fold's spine of n >= 2 summands with synth's ids: summand 0
    sits under n - 1 ``l.`` prefixes; summand i >= 1 (``r.``) and its
    junction (``j``) under n - 1 - i."""
    def flat(old):
        depth = 0
        while depth < n - 1 and old.startswith("l.", 2 * depth):
            depth += 1
        rest = old[2 * depth:]
        if depth == n - 1:
            return "s0." + rest
        if rest.startswith("r."):
            return f"s{n - 1 - depth}." + rest[2:]
        assert rest.startswith("j"), old
        return f"j{n - 1 - depth}" + rest[1:]

    return StratifoldGraph(
        [replace(w, id=flat(w.id)) for w in fold.whites],
        [replace(b, id=flat(b.id)) for b in fold.blacks],
        [replace(e, id=flat(e.id), white=flat(e.white), black=flat(e.black))
         for e in fold.edges])


def test_synth_is_the_fold_of_delta_sum_with_flat_ids():
    checked = 0
    for n in range(1, 7):
        for summands in combinations_with_replacement(SPINE_KINDS, n):
            e = ManifoldExpr(summands)
            got, fold = synth(e), fold_synth(e)
            assert got == (fold if n == 1 else flat_ids(fold, n)), str(e)
            assert are_isomorphic(got, fold), str(e)
            checked += 1
    assert checked == 923


def test_repeated_summands_are_isomorphic_without_trying_every_bijection():
    # three equal summands: a search over all bijections of equal
    # signature takes tens of seconds here
    e = parse_expr("S2xS1 # S2xS1 # S2xS1 # S2~xS1")
    assert are_isomorphic(synth(e), fold_synth(e))


def one_black_graph(rng):
    """1-3 whites of genus -2..2 on one black, each with 1-3 parallel
    edges labelled +-1..3."""
    whites = [WhiteVertex(f"w{i}", rng.randint(-2, 2))
              for i in range(rng.randint(1, 3))]
    return StratifoldGraph(whites, [BlackVertex("b")], [
        Edge(f"e{i}.{j}", w.id, "b", rng.choice((1, -1)) * rng.randint(1, 3))
        for i, w in enumerate(whites) for j in range(rng.randint(1, 3))])


def test_piece_key_is_move_class_isomorphism_on_one_black_graphs():
    def key(g):
        return _piece_key(g, [w.id for w in g.whites], len(g.blacks))

    rng = random.Random(7)
    isomorphic = 0
    for i in range(600):
        g = one_black_graph(rng)
        if i % 2 == 0:      # relabelled, re-oriented copy
            h = disguised(g, rng)
        elif i % 4 == 1:    # the same with one label negated
            h = disguised(g, rng)
            flip = rng.choice(h.edges)
            h = StratifoldGraph(h.whites, h.blacks, [
                replace(e, label=-e.label) if e == flip else e for e in h.edges])
        else:               # independent
            h = one_black_graph(rng)
        want = are_isomorphic(g, h)
        assert (key(g) == key(h)) == want, (g.edges, h.edges)
        isomorphic += want
    assert 380 <= isomorphic <= 450  # 396 of 600 at seed 7


def q_route_obstructions(q):
    """The obstructions that the pieces and the abelianization of the
    q_graph result ``q`` give, in the order obstructions lists them."""
    found = []
    if q.abelianization.torsion:
        found.append(Obstruction(
            "QTorsion", "abelianization of the torsion quotient has torsion"
            f" {q.abelianization.torsion}"))
    surfaces = [(c.graph.whites[0].id, c.closed_surface_genus)
                for c in q.components if c.closed_surface_genus is not None]
    found += [Obstruction("QTorsion", f"component {wid} survives as a closed"
                          " projective plane") for wid, g in surfaces if g == -1]
    found += [Obstruction("NonFreeSurfaceComponent", f"component {wid} is a"
                          f" closed surface of genus {g}, whose group is not free")
              for wid, g in surfaces if g >= 1 or g <= -2]
    return found


def test_obstructions_match_the_q_route():
    graphs = census_graphs()
    for seed in (5, 17):
        rng = random.Random(seed)
        graphs += [random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
                   for _ in range(1500)]
    capped_surfaces = rejected = 0
    for g in graphs:
        got, q = obstructions(g), q_graph(g)
        structural = [o for o in got if o.kind == "InfiniteNonSurfaceFGroup"]
        assert list(got) == q_route_obstructions(q) + structural, g
        capped_surfaces += sum(c.closed_surface_genus is not None and bool(c.capped)
                               for c in q.components)
        rejected += any(o.kind != "InfiniteNonSurfaceFGroup" for o in got)
    # 151 census graphs and 3,000 random ones: 1,371 closed surfaces with
    # capped edges, and 2,206 graphs the surgery rejects
    assert capped_surfaces > 1200 and rejected > 2000, (capped_surfaces, rejected)


def test_obstructions_build_no_piece_graph(monkeypatch):
    g = synth(parse_expr("L(3) # P2xS1 # S2xS1"))
    assert q_graph(g).deleted_blacks

    class PieceGraphBuilt(Exception):
        pass

    def refuse(*args):
        raise PieceGraphBuilt

    monkeypatch.setattr(stratifold.analysis, "components", refuse)
    assert obstructions(g) == ()
    with pytest.raises(PieceGraphBuilt):
        q_graph(g)
