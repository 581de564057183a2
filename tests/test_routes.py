"""Independent routes to the same answer must agree.

The abelian invariants and the order certificates are taken on the
Tietze-simplified presentation; here they are checked against the full,
unsimplified relation matrix, and the sparse Smith form against the
dense one with the divisibility fix-up that it replaced.  H1 of the
torsion quotient, read from the order oracle, is checked against a
quotient presentation built here.  The order oracle skips coset
enumeration when H1 is infinite; the premise of that skip is checked
directly.  The occurrence-aware simplifier is checked against a
reference copy of the rescanning loop it replaced, and the closed-form
word operations against their syllable-by-syllable definitions.  The
oracle's indexed power bound is checked against a scan of every
relator, and the Q-surgery's capped edges against a scan per piece.
The one-pass canonical spine is checked against the left fold of
delta_sum it replaced.
"""

import random
from dataclasses import replace
from itertools import combinations_with_replacement
from math import gcd

import stratifold.algebra
from helpers import (SPINE_KINDS, apply_dense, fold_synth, prime_power_chain,
                     random_sparse_matrix, random_unimodular_ops,
                     random_valid_graph, reference_invariants)
from stratifold import (GENERATOR_ROLES, INDETERMINATE, CosetTable, Exhausted,
                        FiniteOrder, FSignature, Generator, GroupPresentation,
                        InfiniteOrder, ManifoldExpr, OrderOracle,
                        SimplifyResult, StratifoldGraph, UnknownOrder,
                        Word, abelianization, apply_transforms,
                        are_isomorphic, black_orders, fgroup_graph,
                        fgroup_presentation, natural_presentation, normalize,
                        parse_expr, q_graph, relation_matrix, rewrite_through,
                        simplify, smith_normal_form, synth, todd_coxeter)
from stratifold.algebra import (_AbelianImage, _chain, _column_matrix,
                                _power_index, _power_relator_bound)
from stratifold.presentation import DEFAULT_SIMPLIFY_BUDGET, ELIMINABLE_ROLES

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


def full_matrix_verdict(pres, word, budget):
    """(kind, order) of the order certificate with the abelian step taken
    on the full matrix instead of the simplified one.  It tries a coset
    table whether or not H1 is finite, so it also checks the oracle's skip
    of tables that cannot close."""
    if word.is_empty:
        return "finite", 1
    lower = full_matrix_order(pres, word)
    if lower is None:
        return "infinite", None
    sr = simplify(pres)
    upper = reference_power_bound(sr.presentation.relators,
                                  rewrite_through(word, sr.eliminations))
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
    for p in cases:
        full, _ = smith_normal_form(relation_matrix(p))
        assert abelianization(p) == full


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


def test_diagonal_from_invariants_matches_replay():
    rng = random.Random(1708)
    for _ in range(200):
        p = random_presentation(rng)
        m = relation_matrix(p)
        if m.rows == 0:
            continue
        _, ops = smith_normal_form(m)
        d = apply_transforms(m, ops)
        replayed = [d[i, i] if i < d.rows else 0 for i in range(m.cols)]
        # no eliminations: the image is built on the full matrix itself
        assert _AbelianImage(simplify(p, budget=0)).diag == replayed


def test_oracle_matches_full_matrix_oracle_on_graphs():
    rng = random.Random(1709)
    for g, p in graph_presentations(rng, 60):
        oracle = OrderOracle(p)
        for w in black_words(g):
            assert verdict_key(oracle.order(w, 300)) == full_matrix_verdict(p, w, 300)


def test_oracle_matches_full_matrix_oracle_on_random_words():
    rng = random.Random(1710)
    rewritten = 0
    for _ in range(150):
        p = random_presentation(rng)
        oracle = OrderOracle(p)
        names = p.generator_names()
        for _ in range(4):
            w = random_word(rng, names, max_syllables=3)
            assert verdict_key(oracle.order(w, 200)) == full_matrix_verdict(p, w, 200)
            # the image of such a word is a rewrite, not the word itself
            rewritten += any(name in w.names() and not d.is_empty
                             for name, d in oracle.simplified.eliminations)
    assert rewritten >= 30


def test_indexed_power_bound_matches_full_scan():
    rng = random.Random(1718)
    multi = found = 0
    for _ in range(400):
        p = random_presentation(rng)
        names = p.generator_names()
        # powers of random words, rotated and possibly inverted, so that
        # images of several syllables meet relators they are roots of
        roots = [random_word(rng, names, max_syllables=3) for _ in range(2)]
        extra = []
        for root in roots:
            q = root.power(rng.randint(1, 4)).syllables
            i = rng.randrange(len(q) + 1)
            extra.append(Word(q[i:] + q[:i]).power(rng.choice((1, -1))))
        relators = p.relators + tuple(extra)
        index = _power_index(relators)
        for w in roots + [random_word(rng, names) for _ in range(4)]:
            got = _power_relator_bound(index, w)
            assert got == reference_power_bound(relators, w), (relators, w)
            multi += len(w.cyclically_reduced().syllables) > 1
            found += len(w.cyclically_reduced().syllables) > 1 and bool(got)
    assert multi > 800 and found > 200


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
        k = rng.randint(-5, 5)
        assert w.power(k) == naive_power(w, k)
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
        if abelianization(p).free_rank:
            free += 1
            black_orders(g, budget=300)
    assert free >= 100
    assert calls == []
    # the counter sees the one enumeration a finite H1 still needs: the
    # (2,3,7) triangle group has trivial H1, and b^7 = 1 does not pin the
    # order, so the census tries (and shares) one table; the kept analysis
    # is dropped first, so no earlier census of this graph is reused
    stratifold.analysis.analyze.cache_clear()
    orders = black_orders(fgroup_graph(FSignature(0, (2, 3, 7))), budget=300)
    assert len(calls) == 1
    assert all(isinstance(v, UnknownOrder) for v in orders.values())


def test_q_abelianization_matches_quotient_presentation():
    rng = random.Random(1715)
    decided = 0
    while decided < 200:
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        q = q_graph(g, budget=300)
        if q is INDETERMINATE:
            continue
        decided += 1
        base = natural_presentation(normalize(g))
        killed = [Word(((f"b.{b}", 1),)) for b in q.deleted_blacks]
        for wid in q.white_holes:
            killed += [Word(((gen.name, 1),)) for gen in base.generators
                       if gen.name.startswith(f"y.{wid}.")]
        pres = GroupPresentation(base.generators, base.relators + tuple(killed))
        assert pres == q.presentation
        assert q.abelianization == abelianization(pres)
        assert q.abelianization == smith_normal_form(relation_matrix(pres))[0]


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


def test_quotient_invariants_match_added_relators():
    rng = random.Random(1716)
    for _ in range(300):
        p = random_presentation(rng)
        names = p.generator_names()
        words = [random_word(rng, names, max_syllables=3)
                 for _ in range(rng.randint(0, 3))]
        words += [Word(((n, rng.choice((1, -1, 2))),)) for n in names
                  if rng.random() < 0.4]
        rng.shuffle(words)
        oracle = OrderOracle(p)
        added = GroupPresentation(p.generators, p.relators + tuple(words))
        want, _ = smith_normal_form(relation_matrix(added))
        assert oracle.quotient_invariants(tuple(words)) == want


def test_capped_edges_match_a_scan_per_piece():
    rng = random.Random(1719)
    pieces = capped = 0
    for _ in range(300):
        g = random_valid_graph(rng, max_whites=5, max_blacks=4, max_extra=4)
        q = q_graph(g, 300)
        if q is INDETERMINATE:
            continue
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
