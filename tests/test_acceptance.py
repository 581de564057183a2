"""Acceptance gate: eleven oracle-checked criteria, one test each.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts, so the suite stays honest: a red criterion fails the run.
"""

import random
import time

from helpers import (PRIMITIVE_SUMMANDS, cycle_rank, diagonal,
                     random_expr_summands, random_int_matrix,
                     random_valid_graph, transformed, word_order)
from stratifold import (AbelianInvariants, CosetTable, FiniteOrder, FSignature,
                        ManifoldExpr, NoSpineError, StratifoldGraph, Summand,
                        WhiteVertex, Word, abelianization, are_isomorphic,
                        attachment_white, classify_fgroup, cw_euler, delta_sum,
                        euler_characteristic, fgroup_graph,
                        fgroup_presentation, natural_presentation, normalize,
                        obstructions, p2xs1_spine, q_graph, recognize,
                        s2xs1_spine, s2xs1_twisted_spine, smith_normal_form,
                        synth, todd_coxeter)


def _verdict(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_finite_fgroup_table():
    cases = [((2, 2, m), 2 * m) for m in range(2, 9)]
    cases += [((2, 3, 3), 12), ((2, 3, 4), 24), ((2, 3, 5), 60)]
    failures = []
    worst = 0.0
    for periods, want in cases:
        sig = FSignature(0, periods)
        t0 = time.perf_counter()
        table = todd_coxeter(fgroup_presentation(sig))
        fc = classify_fgroup(sig)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if not isinstance(table, CosetTable) or table.cosets != want:
            failures.append(f"{periods}: enumerated {table!r}, want {want}")
        elif fc.order != want:
            failures.append(f"{periods}: classified {fc}, want order {want}")
        elif dt >= 1.0:
            failures.append(f"{periods}: took {dt:.2f}s")
    _verdict(1, not failures,
             failures or f"{len(cases)} group orders match enumeration,"
             f" slowest {worst * 1000:.0f} ms")


def test_criterion_02_lens_spines():
    failures = []
    for q in range(2, 10):
        t0 = time.perf_counter()
        g = synth(ManifoldExpr([Summand("lens", q)]))
        pres = natural_presentation(normalize(g))
        ab = abelianization(pres)
        # q = 2 is the bare projective plane: the torsion generator is the
        # surface loop, every other spine exposes the branch generator
        if g.blacks:
            word = Word(((f"b.{g.blacks[0].id}", 1),))
        else:
            word = Word(((f"y.{g.whites[0].id}.1", 1),))
        v = word_order(pres, word)
        dt = time.perf_counter() - t0
        if (ab.free_rank, ab.torsion) != (0, (q,)):
            failures.append(f"L({q}): H1 {(ab.free_rank, ab.torsion)}")
        elif not isinstance(v, FiniteOrder) or v.order != q:
            failures.append(f"L({q}): order verdict {v!r}")
        elif dt >= 1.0:
            failures.append(f"L({q}): took {dt:.2f}s")
    _verdict(2, not failures,
             failures or "q = 2..9: H1 torsion (q) and certified order q")


def test_criterion_03_projective_q_quotient():
    period_sets = [(2, 2), (2, 3), (3, 3),
                   (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]
    failures = []
    for periods in period_sets:
        q = q_graph(fgroup_graph(FSignature(-1, periods)))
        if not q:
            failures.append(f"{periods}: census abstained")
            continue
        ab = abelianization(q.presentation)
        if q.white_holes != ():
            failures.append(f"{periods}: holes {q.white_holes}")
        elif (ab.free_rank, ab.torsion) != (0, (2,)):
            failures.append(f"{periods}: Q ab {(ab.free_rank, ab.torsion)}")
    _verdict(3, not failures,
             failures or f"{len(period_sets)} signatures: Q abelianization"
             " Z/2, no white holes")


def test_criterion_04_bundle_primitives():
    failures = []
    for make in (s2xs1_spine, s2xs1_twisted_spine):
        ab = abelianization(natural_presentation(normalize(make())))
        if (ab.free_rank, ab.torsion) != (1, ()):
            failures.append(f"{make.__name__}: H1 {(ab.free_rank, ab.torsion)}")
    pres = natural_presentation(normalize(p2xs1_spine()))
    ab = abelianization(pres)
    if (ab.free_rank, ab.torsion) != (1, (2,)):
        failures.append(f"p2xs1: H1 {(ab.free_rank, ab.torsion)}")
    v = word_order(pres, Word((("b.b", 1),)))
    if not isinstance(v, FiniteOrder) or v.order != 2:
        failures.append(f"p2xs1 branch generator: {v!r}")
    if are_isomorphic(s2xs1_spine(), s2xs1_twisted_spine()):
        failures.append("bundle spines wrongly isomorphic")
    _verdict(4, not failures,
             failures or "bundle homologies, branch order 2, spines distinct")


def test_criterion_05_delta_sum_laws():
    rng = random.Random(50001)
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        sa, sb = rng.choice(PRIMITIVE_SUMMANDS), rng.choice(PRIMITIVE_SUMMANDS)
        a = synth(ManifoldExpr([sa]))
        b = synth(ManifoldExpr([sb]))
        d = delta_sum(a, attachment_white(a), b, attachment_white(b))
        ha = abelianization(natural_presentation(normalize(a)))
        hb = abelianization(natural_presentation(normalize(b)))
        hd = abelianization(natural_presentation(normalize(d)))
        chain, _ = smith_normal_form(diagonal(ha.torsion + hb.torsion))
        if hd != AbelianInvariants(ha.free_rank + hb.free_rank, chain.torsion):
            failures.append(f"pair {i} ({sa}, {sb}): H1 {hd} != {ha} + {hb}")
        if euler_characteristic(d) != (euler_characteristic(a)
                                       + euler_characteristic(b) - 1):
            failures.append(f"pair {i} ({sa}, {sb}): chi law broken")
    total = time.perf_counter() - t0
    if total >= 10.0:
        failures.append(f"took {total:.1f}s")
    _verdict(5, not failures,
             failures or f"100 pairs: H1 additive, chi drops by one"
             f" ({total:.2f}s)")


def test_criterion_06_round_trip():
    rng = random.Random(60001)
    failures = []
    for i in range(50):
        e = ManifoldExpr(random_expr_summands(rng, max_summands=5))
        got = recognize(synth(e))
        if got != e:
            failures.append(f"case {i}: {e} -> {got!r}")
    _verdict(6, not failures, failures or "50 expressions recognized back")


def test_criterion_07_obstruction_soundness():
    rng = random.Random(70001)
    failures = []
    for i in range(50):
        e = ManifoldExpr(random_expr_summands(rng, max_summands=4))
        got = obstructions(synth(e))
        if got != ():
            failures.append(f"false positive on {e}: {got!r}")
    positives = [
        fgroup_graph(FSignature(0, (2, 3, 7))),
        fgroup_graph(FSignature(-1, (2, 2))),
        StratifoldGraph([WhiteVertex("w", 2)], [], []),
    ]
    for j, g in enumerate(positives):
        got = obstructions(g)
        if not got:
            failures.append(f"missed rejection on positive case {j}: {got!r}")
    _verdict(7, not failures,
             failures or "50 sums pass, all three bad graphs rejected")


def test_criterion_08_euler_cross_check():
    rng = random.Random(80001)
    failures = []
    for i in range(200):
        g = random_valid_graph(rng)
        a, b = euler_characteristic(g), cw_euler(g)
        if a != b:
            failures.append(f"graph {i}: formula {a}, cell count {b}")
    _verdict(8, not failures, failures or "200 graphs: formula = cell count")


def test_criterion_09_retract_bound():
    rng = random.Random(90001)
    failures = []
    for i in range(200):
        g = normalize(random_valid_graph(rng))
        rank = abelianization(natural_presentation(g)).free_rank
        if rank < cycle_rank(g):
            failures.append(f"graph {i}: free rank {rank}"
                            f" < cycle rank {cycle_rank(g)}")
    _verdict(9, not failures,
             failures or "200 graphs: H1 free rank >= graph cycle rank")


def test_criterion_10_snf_stability():
    rng = random.Random(100001)
    failures = []
    for i in range(50):
        m = random_int_matrix(rng)
        inv, _ = smith_normal_form(m)
        inv2, _ = smith_normal_form(transformed(m, rng))
        if inv != inv2:
            failures.append(f"matrix {i}: {inv} became {inv2}")
    _verdict(10, not failures,
             failures or "50 unimodular transformations preserve invariants")


def test_criterion_11_s3_rejection():
    try:
        synth(ManifoldExpr([Summand("s3")]))
    except NoSpineError as exc:
        _verdict(11, True, f"synth(S3) raised NoSpineError: {exc}")
        return
    except Exception as exc:  # noqa: BLE001 - report the wrong type honestly
        _verdict(11, False, f"wrong error type {type(exc).__name__}")
        return
    _verdict(11, False, "synth(S3) returned a graph")
