"""Words, graph presentations, Tietze simplification, F-group builders."""

import random

import pytest

from helpers import random_valid_graph
from stratifold import (INDETERMINATE, BlackVertex, Edge, FiniteOrder,
                        FSignature, Generator, GraphError, GroupPresentation,
                        InfiniteOrder, StratifoldGraph, WhiteVertex, Word,
                        abelianization, black_orders, fgroup_graph,
                        fgroup_presentation, format_word, lens_spine,
                        natural_presentation, normalize, parse_graph, q_graph,
                        rewrite_through, s2xs1_spine, simplify, spanning_tree)


def shape(pres):
    return ([(g.name, g.role) for g in pres.generators],
            [format_word(r) for r in pres.relators])


class TestWord:
    def test_free_reduction(self):
        assert Word((("a", 2), ("a", -2), ("b", 1))).syllables == (("b", 1),)

    def test_adjacent_syllables_merge(self):
        assert Word((("a", 2), ("a", 3))).syllables == (("a", 5),)

    def test_multiplication_reduces(self):
        w = Word((("a", 1), ("b", 1))) * Word((("b", -1), ("a", 1)))
        assert w.syllables == (("a", 2),)

    def test_inverse(self):
        w = Word((("a", 2), ("b", -1)))
        assert w.inverse().syllables == (("b", 1), ("a", -2))
        assert (w * w.inverse()).is_empty

    def test_power(self):
        w = Word((("a", 1), ("b", 1)))
        assert w.power(2).syllables == (("a", 1), ("b", 1), ("a", 1), ("b", 1))
        assert w.power(0).is_empty
        assert w.power(-1) == w.inverse()

    def test_length_and_exponent_sum(self):
        w = Word((("a", 2), ("b", -3)))
        assert w.length() == 5
        assert w.names() == {"a", "b"}

    def test_substitute(self):
        w = Word((("a", 2),)).substitute("a", Word((("b", 1), ("c", 1))))
        assert format_word(w) == "b c b c"

    def test_substitute_can_cancel(self):
        # a b with a -> b^-1 collapses to the empty word
        w = Word((("a", 1), ("b", 1))).substitute("a", Word((("b", -1),)))
        assert w.is_empty

    def test_cyclic_reduction(self):
        w = Word((("a", -1), ("b", 2), ("a", 1)))
        assert format_word(w.cyclically_reduced()) == "b^2"


class TestGroupPresentation:
    def test_duplicate_generator_rejected(self):
        with pytest.raises(ValueError):
            GroupPresentation((Generator("a", "black"), Generator("a", "black")), ())

    def test_undeclared_relator_name_rejected(self):
        with pytest.raises(ValueError):
            GroupPresentation((Generator("a", "black"),), (Word((("z", 1),)),))
        # the first relator with an undeclared name is reported, its names sorted
        rels = (Word((("a", 1),)), Word((("z", 1), ("a", 2), ("y", -1), ("z", 1))),
                Word((("x", 1),)))
        with pytest.raises(ValueError, match=r"undeclared generators \['y', 'z'\]$"):
            GroupPresentation((Generator("a", "black"),), rels)

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            Generator("a", "purple")


class TestNaturalPresentation:
    def test_lens_graph(self):
        p = natural_presentation(normalize(lens_spine(5)))
        assert shape(p) == ([("b.b", "black"), ("s.e", "boundary")],
                            ["s.e", "s.e^-1 b.b^5"])

    def test_projective_plane(self):
        # single nonorientable white: one generator, its square
        assert shape(natural_presentation(lens_spine(2))) == \
            ([("y.w.1", "surface")], ["y.w.1^2"])

    def test_genus_two_surface(self):
        g = StratifoldGraph([WhiteVertex("w", 2)], [], [])
        gens, rels = shape(natural_presentation(g))
        assert gens == [(f"y.w.{j}", "surface") for j in (1, 2, 3, 4)]
        assert rels == ["y.w.1 y.w.2 y.w.1^-1 y.w.2^-1 "
                        "y.w.3 y.w.4 y.w.3^-1 y.w.4^-1"]

    def test_stable_letters_on_nontree_edges(self):
        p = natural_presentation(normalize(s2xs1_spine()))
        stable = [g.name for g in p.generators if g.role == "stable"]
        assert stable == ["t.e2"]
        # conjugation relator is stored as t^-1 s t b^-m
        assert "t.e2^-1 s.e2 t.e2 b.b^-1" in [format_word(r) for r in p.relators]

    def test_zero_tree_label_raises(self):
        g = StratifoldGraph([WhiteVertex("w", 0)], [BlackVertex("b")],
                            [Edge("e", "w", "b", 0)])
        with pytest.raises(GraphError, match="tree edge e has label 0"):
            natural_presentation(g)

    def test_any_orientation_presents_as_normalized(self):
        # signed labels and nonorientable whites: the presentation reads
        # normalize's labels off its own tree walk
        rng = random.Random(304)
        negative = 0
        for _ in range(250):
            g = random_valid_graph(rng)
            negative += any(g.edge(eid).label < 0 for eid in spanning_tree(g))
            assert natural_presentation(g) == natural_presentation(normalize(g))
        assert negative >= 100

    def test_counts_on_random_graphs(self):
        rng = random.Random(303)
        for _ in range(40):
            g = normalize(random_valid_graph(rng))
            p = natural_presentation(g)
            tree = spanning_tree(g)
            surface = sum(2 * w.genus if w.genus >= 0 else -w.genus
                          for w in g.whites)
            assert len(p.generators) == (len(g.blacks) + len(g.edges)
                                         + surface
                                         + (len(g.edges) - len(tree)))
            assert len(p.relators) == len(g.whites) + len(g.edges)


class TestSimplify:
    def test_lens_keeps_power_relator(self):
        sr = simplify(natural_presentation(normalize(lens_spine(5))))
        assert shape(sr.presentation) == ([("b.b", "black")], ["b.b^5"])
        assert not sr.exhausted

    def test_boundary_and_stable_only(self):
        sr = simplify(natural_presentation(normalize(s2xs1_spine())))
        # everything cancels except the stable letter: the group is Z
        assert shape(sr.presentation) == ([("t.e2", "stable")], [])
        assert sr.steps == 4

    def test_single_syllable_relator_removes_kept_generator(self):
        # b^1 alone proves b trivial, so even a black generator goes
        p = GroupPresentation((Generator("b", "black"),), (Word((("b", 1),)),))
        sr = simplify(p)
        assert sr.presentation.generators == ()
        assert sr.presentation.relators == ()

    def test_boundary_generator_defined_by_relator_goes(self):
        p = GroupPresentation(
            (Generator("a", "black"), Generator("x", "boundary")),
            (Word((("x", 1), ("a", 2))),))
        free = simplify(p)
        assert free.presentation.generator_names() == ("a",)
        assert free.eliminations == (("x", Word((("a", -2),))),)

    def test_budget_zero_changes_nothing(self):
        p = natural_presentation(normalize(lens_spine(5)))
        sr = simplify(p, budget=0)
        assert sr.exhausted
        assert sr.steps == 0
        assert sr.presentation == p

    def test_idempotent(self):
        rng = random.Random(304)
        for _ in range(25):
            g = normalize(random_valid_graph(rng))
            once = simplify(natural_presentation(g))
            again = simplify(once.presentation)
            assert again.steps == 0
            assert again.presentation == once.presentation

    def test_rewrite_through_follows_substitutions(self):
        p = natural_presentation(normalize(lens_spine(5)))
        sr = simplify(p)
        assert rewrite_through(Word((("s.e", 1),)), sr.eliminations).is_empty
        assert format_word(rewrite_through(Word((("b.b", 1),)), sr.eliminations)) == "b.b"

    def test_rewrite_through_lands_in_the_simplified_presentation(self):
        rng = random.Random(305)
        for _ in range(20):
            g = normalize(random_valid_graph(rng))
            p = natural_presentation(g)
            sr = simplify(p)
            kept = set(sr.presentation.generator_names())
            for name in p.generator_names():
                image = rewrite_through(Word(((name, 1),)), sr.eliminations)
                assert image.names() <= kept
                if name in kept:
                    assert image == Word(((name, 1),))

    def test_abelianization_invariant(self):
        rng = random.Random(306)
        for _ in range(60):
            g = normalize(random_valid_graph(rng))
            p = natural_presentation(g)
            assert abelianization(simplify(p).presentation) == abelianization(p)


def canonical_relator(word):
    """Syllable tuple, minimized over cyclic rotations of the word and its
    inverse, so presentations can be compared relator by relator."""
    best = None
    for w in (word.cyclically_reduced(), word.cyclically_reduced().inverse()):
        s = w.syllables
        for i in range(max(1, len(s))):
            rot = s[i:] + s[:i]
            if best is None or rot < best:
                best = rot
    return best


class TestFGroupBuilders:
    def test_triangle_presentation(self):
        assert shape(fgroup_presentation(FSignature(0, (2, 2, 3)))) == \
            ([("c1", "period"), ("c2", "period"), ("c3", "period")],
             ["c1^2", "c2^2", "c3^3", "c1 c2 c3"])

    def test_projective_presentation(self):
        assert shape(fgroup_presentation(FSignature(-1, ()))) == \
            ([("y1", "surface")], ["y1^2"])

    def test_torus_presentation(self):
        gens, rels = shape(fgroup_presentation(FSignature(1, ())))
        assert gens == [("y1", "surface"), ("y2", "surface")]
        assert rels == ["y1 y2 y1^-1 y2^-1"]

    def test_sphere_presentation_has_empty_relator(self):
        p = fgroup_presentation(FSignature(0, ()))
        assert p.generators == ()
        assert [r.is_empty for r in p.relators] == [True]

    def test_period_below_two_rejected(self):
        with pytest.raises(ValueError):
            FSignature(0, (1,))

    def test_graph_shape(self):
        g = fgroup_graph(FSignature(-1, (2, 2)))
        assert [(w.id, w.genus) for w in g.whites] == \
            [("d1", 0), ("d2", 0), ("w0", -1)]
        assert [(e.id, e.white, e.black, e.label) for e in g.edges] == \
            [("e1", "w0", "b1", 1), ("e2", "w0", "b2", 1),
             ("f1", "d1", "b1", 2), ("f2", "d2", "b2", 2)]

    def test_graph_abelianization(self):
        # relation matrix for (b1, b2, y) is rows {y+b1+b2? no:}
        # relators abelianized: b1 + b2 + 2y = 0, 2b1 = 0, 3b2 = 0 for
        # periods (2,3); here periods (2,2) give [[1,1,2],[2,0,0],[0,2,0]]
        # with SNF diag(1,2,4), hence Z/2 + Z/4
        ab = abelianization(natural_presentation(fgroup_graph(FSignature(-1, (2, 2)))))
        assert (ab.free_rank, ab.torsion) == (0, (2, 4))

    def test_graph_simplifies_to_fgroup_presentation(self):
        rng = random.Random(307)
        picks = []
        for genus in (-2, -1, 0, 1, 2):
            for p in (0, 1, 2, 3):
                picks.append(FSignature(
                    genus, tuple(rng.randint(2, 6) for _ in range(p))))
        for sig in picks:
            got = simplify(natural_presentation(fgroup_graph(sig))).presentation
            # simplify both sides: a spherical signature with one period
            # has a single-syllable product relator that kills c1 outright
            want = simplify(fgroup_presentation(sig)).presentation

            def rename(name):
                if name.startswith("b.b"):
                    return "c" + name[3:]
                assert name.startswith("y.w0.")
                return "y" + name[5:]

            # black generators realize the period generators, in order
            assert [rename(g.name) for g in got.generators] == \
                [g.name for g in want.generators]
            got_rels = sorted(
                canonical_relator(Word(tuple((rename(n), e)
                                             for n, e in r.syllables)))
                for r in got.relators)
            want_rels = sorted(canonical_relator(r) for r in want.relators
                               if not r.is_empty)
            assert got_rels == want_rels


class TestQPresentation:
    """The quotient presentation q_graph builds: the graph presentation
    plus one single-generator relator per killed generator."""

    def test_lens_quotient_is_trivial(self):
        q = q_graph(lens_spine(5))
        ab = abelianization(q.presentation)
        assert (ab.free_rank, ab.torsion) == (0, ())

    def test_adds_single_generator_relators_only(self):
        g = lens_spine(5)
        base = natural_presentation(normalize(g))
        q = q_graph(g)
        assert q.presentation.generators == base.generators
        assert q.presentation.relators[:len(base.relators)] == base.relators
        extra = q.presentation.relators[len(base.relators):]
        assert [format_word(r) for r in extra] == ["b.b"]

    def test_hole_kills_surface_generators(self):
        q = q_graph(fgroup_graph(FSignature(-1, (2,))))
        assert q.white_holes == ("w0",)
        ab = abelianization(q.presentation)
        assert (ab.free_rank, ab.torsion) == (0, ())
        assert format_word(q.presentation.relators[-1]) == "y.w0.1"

    def test_infinite_blacks_add_nothing(self):
        g = parse_graph("black b\nedge e w b 3\nwhite w genus -2\n")
        q = q_graph(g)
        assert isinstance(black_orders(g)["b"], InfiniteOrder)
        assert q.deleted_blacks == ()
        assert q.presentation == natural_presentation(normalize(g))
        # the branch circle of S2xS1 has order 1: killing it adds the
        # relator b.b but leaves H1 as it was
        g = s2xs1_spine()
        q = q_graph(g)
        b = black_orders(g)["b"]
        assert b == FiniteOrder(1, b.certificate)
        assert q.deleted_blacks == ("b",)
        assert q.abelianization == abelianization(natural_presentation(normalize(g)))

    def test_unknown_verdict_abstains(self):
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        assert q_graph(g, budget=50) is INDETERMINATE
