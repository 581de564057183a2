"""Spine constructions, delta-sums, synthesis and recognition."""

import random

import pytest

from helpers import (PRIMITIVE_SUMMANDS, SPINE_KINDS, disguised,
                     random_expr_summands, relabeled, word_order)
from stratifold import (NOT_CANONICAL, BlackVertex, DomainError,
                        Edge, FiniteOrder, GraphError, ManifoldExpr,
                        NoSpineError, Sentinel, StratifoldGraph, Summand,
                        WhiteVertex, Word, abelianization, attachment_white,
                        black_orders, cw_euler, delta_sum,
                        euler_characteristic, lens_spine,
                        natural_presentation, normalize, obstructions,
                        p2xs1_spine, parse_expr, recognize, s2xs1_spine,
                        s2xs1_twisted_spine, serialize_graph, synth, validate)


class TestLensSpine:
    def test_disk_on_branch_circle(self):
        g = lens_spine(5)
        assert [(w.id, w.genus) for w in g.whites] == [("w", 0)]
        assert [(e.id, e.white, e.black, e.label) for e in g.edges] == \
            [("e", "w", "b", 5)]

    def test_q_two_is_projective_plane(self):
        g = lens_spine(2)
        assert [(w.id, w.genus) for w in g.whites] == [("w", -1)]
        assert g.blacks == ()
        assert g.edges == ()

    def test_small_q_rejected(self):
        for q in (1, 0, -3):
            with pytest.raises(DomainError):
                lens_spine(q)

    def test_homology_family(self):
        for q in range(2, 10):
            ab = abelianization(natural_presentation(normalize(lens_spine(q))))
            assert (ab.free_rank, ab.torsion) == (0, (q,))

    def test_cyclic_order_family(self):
        for q in range(3, 10):
            v = black_orders(lens_spine(q))["b"]
            assert isinstance(v, FiniteOrder)
            assert v.order == q
        # q = 2 has no branch circle; the surface loop carries the torsion
        p = natural_presentation(lens_spine(2))
        v = word_order(p, Word((("y.w.1", 1),)))
        assert v == FiniteOrder(2, v.certificate)

    def test_all_validate(self):
        for q in range(2, 8):
            assert validate(lens_spine(q)) == []


class TestBundlePrimitives:
    def test_all_validate(self):
        for make in (s2xs1_spine, s2xs1_twisted_spine, p2xs1_spine):
            assert validate(make()) == []

    def test_partitions(self):
        for make, want in ((s2xs1_spine, [1, 1, 1]),
                           (s2xs1_twisted_spine, [1, 1, 1]),
                           (p2xs1_spine, [1, 1, 2])):
            g = make()
            assert sorted(abs(g.edge(eid).label)
                          for eid in g.edges_at_black("b")) == want

    def test_homology(self):
        for make, want in ((s2xs1_spine, (1, ())),
                           (s2xs1_twisted_spine, (1, ())),
                           (p2xs1_spine, (1, (2,)))):
            ab = abelianization(natural_presentation(normalize(make())))
            assert (ab.free_rank, ab.torsion) == want

    def test_euler_characteristic_is_one(self):
        for make in (s2xs1_spine, s2xs1_twisted_spine, p2xs1_spine):
            assert euler_characteristic(make()) == 1

    def test_none_obstructed(self):
        for make in (s2xs1_spine, s2xs1_twisted_spine, p2xs1_spine):
            assert obstructions(make()) == ()


class TestDeltaSum:
    def test_ids_and_junction(self):
        d = delta_sum(lens_spine(3), "w", lens_spine(4), "w")
        assert {w.id for w in d.whites} == {"l.w", "r.w", "jd"}
        assert {b.id for b in d.blacks} == {"l.b", "r.b", "j"}
        assert sorted(abs(d.edge(eid).label)
                      for eid in d.edges_at_black("j")) == [1, 1, 1]
        assert validate(d) == []

    def test_euler_drops_by_one(self):
        rng = random.Random(202)
        for _ in range(20):
            a = synth(ManifoldExpr([rng.choice(PRIMITIVE_SUMMANDS)]))
            b = synth(ManifoldExpr([rng.choice(PRIMITIVE_SUMMANDS)]))
            d = delta_sum(a, attachment_white(a), b, attachment_white(b))
            assert euler_characteristic(d) == (euler_characteristic(a)
                                               + euler_characteristic(b) - 1)

    def test_homology_adds(self):
        d = delta_sum(lens_spine(2), "w", lens_spine(3), "w")
        ab = abelianization(natural_presentation(normalize(d)))
        assert (ab.free_rank, ab.torsion) == (0, (6,))
        d = delta_sum(lens_spine(4), "w", lens_spine(6), "w")
        ab = abelianization(natural_presentation(normalize(d)))
        assert (ab.free_rank, ab.torsion) == (0, (2, 12))
        d = delta_sum(s2xs1_spine(), "wa", p2xs1_spine(), "wa")
        ab = abelianization(natural_presentation(normalize(d)))
        assert (ab.free_rank, ab.torsion) == (2, (2,))

    def test_unknown_white_rejected(self):
        with pytest.raises(GraphError):
            delta_sum(lens_spine(3), "nope", lens_spine(4), "w")
        with pytest.raises(GraphError):
            delta_sum(lens_spine(3), "b", lens_spine(4), "w")


class TestExpressions:
    def test_summand_validation(self):
        with pytest.raises(DomainError):
            Summand("lens", 1)
        with pytest.raises(DomainError):
            Summand("s2xs1", 3)
        with pytest.raises(DomainError):
            Summand("torus")

    def test_expr_sorts_and_prints(self):
        e = ManifoldExpr([Summand("s2xs1"), Summand("lens", 3)])
        assert str(e) == "L(3) # S2xS1"
        assert str(ManifoldExpr([Summand("s2~xs1"), Summand("p2xs1")])) == \
            "P2xS1 # S2~xS1"

    def test_empty_expr_rejected(self):
        with pytest.raises(DomainError):
            ManifoldExpr([])


class TestAttachmentWhite:
    def test_all_disks_falls_back_to_first(self):
        assert attachment_white(lens_spine(5)) == "w"

    def test_projective_plane(self):
        assert attachment_white(lens_spine(2)) == "w"

    def test_prefers_non_disk(self):
        assert attachment_white(s2xs1_spine()) == "wa"
        assert attachment_white(p2xs1_spine()) == "wa"


class TestSynth:
    def test_single_lens_is_bare_spine(self):
        assert synth(ManifoldExpr([Summand("lens", 5)])) == lens_spine(5)

    def test_summand_order_irrelevant(self):
        a = synth(ManifoldExpr([Summand("s2xs1"), Summand("lens", 3)]))
        b = synth(ManifoldExpr([Summand("lens", 3), Summand("s2xs1")]))
        assert a == b

    def test_deterministic(self):
        e = ManifoldExpr([Summand("lens", 3), Summand("lens", 4),
                          Summand("p2xs1")])
        assert synth(e) == synth(e)

    def test_synth_output_validates(self):
        rng = random.Random(203)
        for _ in range(25):
            g = synth(ManifoldExpr(random_expr_summands(rng)))
            assert validate(g) == []

    def test_size_is_linear_in_the_summands(self):
        e = ManifoldExpr([SPINE_KINDS[i % len(SPINE_KINDS)] for i in range(560)])
        g = synth(e)
        assert max(len(x.id) for x in g.whites + g.blacks + g.edges) <= 10
        assert len(serialize_graph(g).encode()) <= 250 * 560
        assert validate(g) == []
        assert recognize(g) == e
        assert cw_euler(g) == euler_characteristic(g)

    def test_s3_has_no_spine(self):
        with pytest.raises(NoSpineError):
            synth(ManifoldExpr([Summand("s3")]))
        with pytest.raises(NoSpineError):
            synth(ManifoldExpr([Summand("lens", 3), Summand("s3")]))


def flipped(graph, eid):
    """The graph with the label of edge eid negated."""
    return StratifoldGraph(graph.whites, graph.blacks, [
        Edge(e.id, e.white, e.black, -e.label) if e.id == eid else e
        for e in graph.edges])


class TestRecognize:
    def test_primitives(self):
        for q in range(2, 8):
            assert str(recognize(lens_spine(q))) == f"L({q})"
        assert str(recognize(s2xs1_spine())) == "S2xS1"
        assert str(recognize(s2xs1_twisted_spine())) == "S2~xS1"
        assert str(recognize(p2xs1_spine())) == "P2xS1"

    def test_round_trip(self):
        rng = random.Random(204)
        for _ in range(40):
            e = ManifoldExpr(random_expr_summands(rng))
            assert recognize(synth(e)) == e

    def test_round_trip_survives_relabeling(self):
        rng = random.Random(205)
        for _ in range(20):
            e = ManifoldExpr(random_expr_summands(rng))
            assert recognize(relabeled(synth(e), "x_")) == e

    def test_round_trip_survives_moves(self):
        # fresh ids, M1 at random blacks, M2 at random orientable whites
        # and M3 at single labels of nonorientable whites
        rng = random.Random(207)
        for _ in range(40):
            e = ManifoldExpr(random_expr_summands(rng))
            assert recognize(disguised(synth(e), rng)) == e

    def test_one_annulus_flip_twists_the_bundle(self):
        # e1 and e2 are the annulus edges of a bundle spine
        for text, annulus, twisted in (
                ("S2xS1", "e2", "S2~xS1"), ("S2~xS1", "e2", "S2xS1"),
                ("S2~xS1", "e1", "S2xS1"),
                ("L(3) # S2xS1 # S2xS1", "s2.e1", "L(3) # S2xS1 # S2~xS1"),
                ("L(2) # S2~xS1", "s1.e2", "L(2) # S2xS1")):
            g = synth(parse_expr(text))
            assert str(recognize(flipped(g, annulus))) == twisted

    def test_annulus_flip_on_p2xs1_is_not_canonical(self):
        for text, annulus in (("P2xS1", "e2"), ("L(5) # P2xS1", "s1.e3")):
            assert recognize(flipped(synth(parse_expr(text)), annulus)) \
                is NOT_CANONICAL

    def test_pieces_of_no_primitive_shape_are_not_canonical(self):
        two_blacks = StratifoldGraph(
            [WhiteVertex("w", 0)], [BlackVertex("b1"), BlackVertex("b2")],
            [Edge("e1", "w", "b1", 3), Edge("e2", "w", "b2", 3)])
        three_whites = StratifoldGraph(
            list(s2xs1_spine().whites) + [WhiteVertex("wx", 0)],
            s2xs1_spine().blacks,
            list(s2xs1_spine().edges) + [Edge("e4", "wx", "b", 1)])
        for piece in (two_blacks, three_whites):
            assert recognize(piece) is NOT_CANONICAL
            g = delta_sum(lens_spine(3), "w", piece, attachment_white(piece))
            assert validate(g) == []
            assert recognize(g) is NOT_CANONICAL

    def test_rejects_non_canonical_graphs(self):
        from stratifold import fgroup_graph, FSignature
        theta = StratifoldGraph(
            [WhiteVertex("w", 1)], [BlackVertex("b")],
            [Edge("e1", "w", "b", 1), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "b", 1)])
        for g in (theta, fgroup_graph(FSignature(0, (2, 3))),
                  StratifoldGraph([WhiteVertex("w", 2)], [], [])):
            assert recognize(g) is NOT_CANONICAL

    def test_not_canonical_is_falsy(self):
        assert not NOT_CANONICAL
        assert bool(recognize(lens_spine(3)))

    def test_sentinels_share_one_class(self):
        other = Sentinel("OTHER")
        assert type(NOT_CANONICAL) is type(other) is Sentinel
        assert NOT_CANONICAL is not other
        assert (repr(NOT_CANONICAL), repr(other)) == ("NOT_CANONICAL", "OTHER")
        assert not other

    def test_recognized_sums_pass_obstructions(self):
        rng = random.Random(206)
        for _ in range(6):
            e = ManifoldExpr(random_expr_summands(rng, max_summands=3))
            assert obstructions(synth(e)) == ()
