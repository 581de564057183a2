"""Integer matrices, Smith form, coset enumeration, order certificates."""

import os
import random
import subprocess
import sys
from math import prod

import pytest

import stratifold

from helpers import (diagonal, random_int_matrix, random_unimodular_ops,
                     random_valid_graph, transformed, word_order)
from stratifold import (AbelianInvariants, CosetTable, Exhausted, FiniteOrder,
                        FSignature, Generator, GroupPresentation, IntMatrix,
                        InfiniteOrder, OrderOracle, UnknownOrder, Word,
                        abelianization, apply_transforms, fgroup_presentation, lens_spine, natural_presentation,
                        normalize, relation_matrix, s2xs1_spine,
                        smith_normal_form, todd_coxeter)
from stratifold.algebra import _chain, _power_index, _power_relator_bound


def pres(gens, rels):
    """Presentation from name->role pairs and syllable lists."""
    return GroupPresentation(
        tuple(Generator(n, r) for n, r in gens),
        tuple(Word(tuple(s)) for s in rels))


KLEIN = pres([("a", "black"), ("b", "black")],
             [[("a", -1), ("b", 1), ("a", 1), ("b", 1)]])


class TestIntMatrix:
    def test_from_rows_and_indexing(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m[0, 1] == 2
        assert m[1, 0] == 3
        assert m.entries == (1, 2, 3, 4)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])

    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # diag(2, 3) is already diagonal, so nothing is recorded; its
        # chain is diag(1, 6), so H1 = Z/6
        inv, ops = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert inv == AbelianInvariants(0, (6,))
        assert ops == ()
        d = apply_transforms(IntMatrix.from_rows([[2, 0], [0, 3]]), ops)
        assert d == IntMatrix.from_rows([[2, 0], [0, 3]])
        assert _chain([2, 3]) == (6,)

    def test_zero_matrix_is_free(self):
        inv, _ = smith_normal_form(diagonal([0, 0], cols=3))
        assert inv == AbelianInvariants(3, ())

    def test_identity_is_trivial(self):
        inv, _ = smith_normal_form(diagonal([1, 1, 1]))
        assert inv == AbelianInvariants(0, ())

    def test_unit_factors_dropped(self):
        inv, _ = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 5]]))
        assert inv == AbelianInvariants(0, (5,))

    def test_negative_entry(self):
        inv, _ = smith_normal_form(IntMatrix.from_rows([[-4]]))
        assert inv == AbelianInvariants(0, (4,))

    def test_replay_reaches_a_diagonal_whose_chain_is_the_invariants(self):
        rng = random.Random(808)
        for _ in range(60):
            m = random_int_matrix(rng)
            inv, ops = smith_normal_form(m)
            d = apply_transforms(m, ops)
            diag = [d[i, i] for i in range(min(d.rows, d.cols))]
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d[i, j] == 0
            assert all(x >= 0 for x in diag)
            nonzero = [x for x in diag if x]
            assert inv.free_rank == m.cols - len(nonzero)
            chain = _chain(nonzero)
            assert inv.torsion == chain
            assert all(x >= 2 for x in chain)
            for a, b in zip(chain, chain[1:]):
                assert b % a == 0
            assert prod(chain) == prod(nonzero)

    def test_chain_merges_coprime_parts_and_drops_units(self):
        assert _chain([]) == ()
        assert _chain([1, 1]) == ()
        assert _chain([4, 6]) == (2, 12)
        assert _chain([3, 2, 2]) == (2, 6)
        assert _chain([9, 1, 3, 2]) == (3, 18)

    def test_invariants_stable_under_unimodular_changes(self):
        rng = random.Random(809)
        for _ in range(40):
            m = random_int_matrix(rng)
            inv, _ = smith_normal_form(m)
            inv2, _ = smith_normal_form(transformed(m, rng))
            assert inv2 == inv


class TestAbelianInvariants:
    def test_chain_enforced(self):
        with pytest.raises(ValueError):
            AbelianInvariants(0, (2, 3))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))

    def test_direct_sum_merges_chains(self):
        # Z/2 + Z/3 = Z/6, and Z + Z/2 + Z/2 + Z/4 is already a chain
        inv, _ = smith_normal_form(diagonal([2, 3]))
        assert inv == AbelianInvariants(0, (6,))
        inv, _ = smith_normal_form(diagonal([2, 2, 4], cols=4))
        assert inv == AbelianInvariants(1, (2, 2, 4))
        inv, _ = smith_normal_form(diagonal([4, 2, 2], cols=4))
        assert inv == AbelianInvariants(1, (2, 2, 4))


class TestAbelianization:
    def test_cyclic(self):
        p = pres([("b", "black")], [[("b", 5)]])
        assert abelianization(p) == AbelianInvariants(0, (5,))

    def test_no_relators_is_free(self):
        p = pres([("a", "black"), ("b", "black")], [])
        assert relation_matrix(p).rows == 0
        assert abelianization(p) == AbelianInvariants(2, ())

    def test_relation_matrix_sums_exponents(self):
        p = pres([("a", "black"), ("b", "black")],
                 [[("a", 1), ("b", 1), ("a", -1), ("b", -1)], [("a", 2), ("b", 3)]])
        assert relation_matrix(p) == IntMatrix.from_rows([[0, 0], [2, 3]])

    def test_torus_graph(self):
        from stratifold import StratifoldGraph, WhiteVertex
        g = StratifoldGraph([WhiteVertex("w", 1)], [], [])
        assert abelianization(natural_presentation(g)) == AbelianInvariants(2, ())

    def test_circle_bundle_over_projective_plane(self):
        from stratifold import p2xs1_spine
        ab = abelianization(natural_presentation(normalize(p2xs1_spine())))
        assert ab == AbelianInvariants(1, (2,))

    def test_lens_family(self):
        for q in range(2, 10):
            g = normalize(lens_spine(q))
            ab = abelianization(natural_presentation(g))
            assert ab == AbelianInvariants(0, (q,))


class TestToddCoxeter:
    def test_dihedral_six(self):
        # triangle group (2,2,3) has order 2*3 = 6
        t = todd_coxeter(fgroup_presentation(FSignature(0, (2, 2, 3))))
        assert isinstance(t, CosetTable)
        assert t.cosets == 6

    def test_single_relator_cyclic(self):
        t = todd_coxeter(pres([("a", "black")], [[("a", 1)]]))
        assert t.cosets == 1

    def test_icosahedral_sixty(self):
        # triangle group (2,3,5) has order 60
        t = todd_coxeter(fgroup_presentation(FSignature(0, (2, 3, 5))))
        assert t.cosets == 60

    def test_deterministic(self):
        p = fgroup_presentation(FSignature(0, (2, 3, 4)))
        t1 = todd_coxeter(p)
        t2 = todd_coxeter(p)
        assert t1.action == t2.action

    def test_exhaustion_reports_budget(self):
        out = todd_coxeter(KLEIN, budget=8)
        assert isinstance(out, Exhausted)
        assert out.budget == 8
        assert out.defined >= 8

    @pytest.mark.parametrize("p, budget, cosets", [
        (fgroup_presentation(FSignature(0, (2, 3, 5))), 157, 60),
        (fgroup_presentation(FSignature(0, (2, 3, 4))), 58, 24),
        (fgroup_presentation(FSignature(0, (2, 2, 7))), 35, 14),
        # the Klein four-group
        (pres([("a", "black"), ("b", "black")],
              [[("a", 2)], [("b", 2)], [("a", 1), ("b", 1)] * 2]), 4, 4),
    ])
    def test_smallest_budget_that_closes(self, p, budget, cosets):
        # pins the sequence of definitions: any change to it moves the
        # budget at which the table first closes
        t = todd_coxeter(p, budget)
        assert isinstance(t, CosetTable) and t.cosets == cosets
        assert todd_coxeter(p, budget - 1) == Exhausted(budget - 1, budget - 1)
        assert todd_coxeter(p, 0) == Exhausted(0, 1)

    def test_permutation_orders(self):
        t = todd_coxeter(fgroup_presentation(FSignature(0, (2, 2, 3))))
        assert t.permutation_order(Word((("c1", 1),))) == 2
        assert t.permutation_order(Word((("c3", 1),))) == 3
        # c1 c2 = c3^-1 from the product relator
        assert t.permutation_order(Word((("c1", 1), ("c2", 1)))) == 3

    def test_relators_act_trivially(self):
        p = fgroup_presentation(FSignature(0, (2, 3, 4)))
        t = todd_coxeter(p)
        for r in p.relators:
            assert t.permutation_order(r) == 1
            assert t.permutation_order(r.inverse()) == 1

    @pytest.mark.parametrize("periods", [(2, 3, 4), (2, 3, 5), (2, 2, 7)])
    def test_permutation_order_matches_composed_action(self, periods):
        # the reference composes each word from the generators' own
        # permutations by nonnegative powers only, p^-1 = p^(ord p - 1), so
        # it shares nothing with the table's inverse permutations
        t = todd_coxeter(fgroup_presentation(FSignature(0, periods)))
        assert isinstance(t, CosetTable)
        identity = tuple(range(t.cosets))

        def order(perm):
            k, q = 1, perm
            while q != identity:
                q = tuple([perm[c] for c in q])
                k += 1
            return k

        def power(perm, k):
            q = identity
            for _ in range(k):
                q = tuple([perm[c] for c in q])
            return q

        def reference(word):
            q = identity
            for name, e in word.syllables:
                p = t.action[name]
                step = power(p if e > 0 else power(p, order(p) - 1), abs(e))
                q = tuple([step[c] for c in q])
            return order(q)

        rng = random.Random(4127)
        names = sorted(t.action)
        words = [Word((("c1", -1), ("c2", 2))), Word((("c3", -7), ("c1", 1)))]
        for _ in range(300):
            words.append(Word(tuple((rng.choice(names),
                                     rng.choice((-1, 1)) * rng.randint(1, 7))
                                    for _ in range(rng.randint(1, 6)))))
        assert sum(any(e < 0 for _, e in w.syllables) for w in words) >= 200
        for w in words:
            assert t.permutation_order(w) == reference(w), w


class TestElementOrder:
    def test_power_relator_certificate(self):
        p = pres([("b", "black")], [[("b", 5)]])
        v = word_order(p, Word((("b", 1),)))
        assert isinstance(v, FiniteOrder)
        assert v.order == 5
        assert "power relator" in v.certificate

    def test_infinite_via_abelianization(self):
        p = natural_presentation(normalize(s2xs1_spine()))
        v = word_order(p, Word((("t.e2", 1),)))
        assert isinstance(v, InfiniteOrder)

    def test_infinite_in_free_abelian(self):
        p = pres([("a", "black"), ("b", "black")],
                 [[("a", 1), ("b", 1), ("a", -1), ("b", -1)]])
        assert isinstance(word_order(p, Word((("b", 1),))), InfiniteOrder)

    def test_identity_reduction(self):
        # in the annulus-plus-disk graph the black curve bounds: order 1
        p = natural_presentation(normalize(s2xs1_spine()))
        v = word_order(p, Word((("b.b", 1),)))
        assert v == FiniteOrder(1, "word reduces to the identity under Tietze moves")

    def test_abstention_within_budget(self):
        # the abelian image of b has order 2 but the group needs
        # enumeration, which cannot close in 2 cosets
        v = word_order(KLEIN, Word((("b", 1),)), budget=2)
        assert v == UnknownOrder(2)

    def test_enumeration_fallback(self):
        # (2,3,3) has order 12; c1 c2 has trivial abelian image there,
        # so only the coset table can settle it
        p = fgroup_presentation(FSignature(0, (2, 3, 3)))
        v = word_order(p, Word((("c2", 1), ("c3", -1))))
        assert isinstance(v, FiniteOrder)
        assert "coset" in v.certificate

    def test_reflection_orders_in_finite_families(self):
        for periods in ((2, 2, 2), (2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5)):
            p = fgroup_presentation(FSignature(0, periods))
            v = word_order(p, Word((("c1", 1),)))
            assert v == FiniteOrder(2, v.certificate)
            assert isinstance(v, FiniteOrder)

    def test_power_bound_builds_no_power_of_the_wrong_shape(self, monkeypatch):
        # a^n b^n has the length of (ab)^n but not its syllable count
        def refuse(word, k):
            raise AssertionError(f"built the power {k}")
        monkeypatch.setattr(Word, "power", refuse)
        n = 10**7
        relators = (Word((("a", n), ("b", n))),)
        assert _power_relator_bound(_power_index(relators),
                                    Word((("a", 1), ("b", 1)))) is None

    def test_power_relator_bound_compares_cyclic_words(self):
        # the group is infinite, so only the power bound can certify: (ba)^3
        # is a rotation of (ab)^3, and (b^-1 a^-1)^-3 = (ab)^3
        p = pres([("a", "black"), ("b", "black")], [[("b", 1), ("a", 1)] * 3])
        for syllables in ([("a", 1), ("b", 1)], [("b", 1), ("a", 1)],
                          [("b", -1), ("a", -1)]):
            v = word_order(p, Word(tuple(syllables)), budget=2000)
            assert isinstance(v, FiniteOrder)
            assert v.order == 3
            assert v.certificate.startswith("power relator bound 3")

    def test_empty_word(self):
        v = word_order(KLEIN, Word())
        assert v == FiniteOrder(1, "empty word")

    def test_undeclared_name_rejected(self):
        with pytest.raises(ValueError):
            word_order(KLEIN, Word((("zz", 1),)))


class TestOrderOracle:
    def test_shared_across_words(self):
        oracle = OrderOracle(fgroup_presentation(FSignature(0, (2, 3, 5))))
        got = {c: oracle.order(Word(((c, 1),))) for c in ("c1", "c2", "c3")}
        assert got["c1"].order == 2
        assert got["c2"].order == 3
        assert got["c3"].order == 5

    def test_budget_abstention(self):
        oracle = OrderOracle(KLEIN)
        assert oracle.order(Word((("b", 1),)), 4) == UnknownOrder(4)

    def test_random_graph_orders_are_verdicts(self):
        rng = random.Random(811)
        for _ in range(15):
            g = normalize(random_valid_graph(rng))
            p = natural_presentation(g)
            oracle = OrderOracle(p)
            for b in g.blacks:
                v = oracle.order(Word(((f"b.{b.id}", 1),)), 500)
                assert isinstance(v, (FiniteOrder, InfiniteOrder, UnknownOrder))
                if isinstance(v, FiniteOrder):
                    assert v.order >= 1


def test_unimodular_ops_generator_sanity():
    rng = random.Random(812)
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    for _ in range(20):
        t = apply_transforms(m, random_unimodular_ops(rng, 2, 2))
        inv, _ = smith_normal_form(t)
        assert inv == AbelianInvariants(0, (6,))


def test_h1_of_a_genus_10000_surface_in_bounded_memory():
    # one child process whose address space is capped at 1 GB: a dense
    # column matrix for the 20000 generators would need 20000^2 entries
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from stratifold.cli import main\n"
            "sys.exit(main(['h1']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratifold.__file__)))
    done = subprocess.run([sys.executable, "-c", code], input="white w genus 10000\n",
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "H1 = Z^20000\n"
