"""F-group classification, order census, Q-surgery, obstruction suite."""

import math
import random
from dataclasses import replace

import pytest

from helpers import random_valid_graph, relabeled
from stratifold import (INDETERMINATE, AbelianInvariants, BlackVertex,
                        CosetTable, Edge, Exhausted, FiniteOrder, FSignature,
                        InfiniteOrder, StratifoldGraph, UnknownOrder,
                        WhiteVertex, abelianization, are_isomorphic, black_orders,
                        classify_fgroup, fgroup_graph, fgroup_presentation,
                        fgroup_signature_of, lens_spine, natural_presentation,
                        obstructions, p2xs1_spine, q_graph, s2xs1_spine,
                        todd_coxeter, white_holes)


def theta_graph(genus=1):
    """Three sheets of a genus-g surface meeting one branch circle."""
    return StratifoldGraph(
        [WhiteVertex("w", genus)], [BlackVertex("b")],
        [Edge("e1", "w", "b", 1), Edge("e2", "w", "b", 1),
         Edge("e3", "w", "b", 1)])


def closed_surface(genus):
    return StratifoldGraph([WhiteVertex("w", genus)], [], [])


class TestClassifyFGroup:
    def test_dihedral(self):
        fc = classify_fgroup(FSignature(0, (2, 2, 7)))
        assert (fc.kind, fc.order, fc.name) == ("finite-noncyclic", 14,
                                                "dihedral(7)")
        assert str(fc) == "dihedral(7) of order 14"

    def test_two_periods_gcd(self):
        fc = classify_fgroup(FSignature(0, (4, 6)))
        assert (fc.kind, fc.order) == ("finite-cyclic", 2)
        assert str(fc) == "cyclic of order 2"

    def test_spherical_few_periods_trivial(self):
        assert classify_fgroup(FSignature(0, ())).order == 1
        assert classify_fgroup(FSignature(0, (5,))).order == 1

    def test_platonic_triples(self):
        for periods, name, order in (((2, 3, 3), "tetrahedral", 12),
                                     ((2, 3, 4), "octahedral", 24),
                                     ((2, 3, 5), "dodecahedral", 60)):
            fc = classify_fgroup(FSignature(0, periods))
            assert (fc.kind, fc.order, fc.name) == ("finite-noncyclic",
                                                    order, name)

    def test_projective_base(self):
        assert classify_fgroup(FSignature(-1, ())).order == 2
        fc = classify_fgroup(FSignature(-1, (3,)))
        assert (fc.kind, fc.order) == ("finite-cyclic", 6)

    def test_infinite_surface_groups(self):
        for sig in (FSignature(1, ()), FSignature(2, ()), FSignature(-2, ())):
            fc = classify_fgroup(sig)
            assert (fc.kind, fc.surface) == ("infinite", True)
            assert str(fc) == "infinite surface group"

    def test_infinite_with_cone_points(self):
        for sig in (FSignature(1, (2,)), FSignature(0, (2, 2, 2, 2)),
                    FSignature(0, (3, 4, 5)), FSignature(-1, (2, 2)),
                    FSignature(-3, (2,))):
            fc = classify_fgroup(sig)
            assert (fc.kind, fc.surface) == ("infinite", False)
            assert str(fc) == "infinite, not a surface group"

    def test_period_order_irrelevant(self):
        assert classify_fgroup(FSignature(0, (5, 3, 2))) == \
            classify_fgroup(FSignature(0, (2, 3, 5)))

    def test_finite_orders_match_enumeration(self):
        sigs = [FSignature(0, (a, b)) for a in (2, 3, 4) for b in (2, 3, 4, 6)]
        sigs += [FSignature(0, (2, 2, m)) for m in (2, 3, 4, 5, 6)]
        sigs += [FSignature(0, (2, 3, m)) for m in (3, 4, 5)]
        sigs += [FSignature(-1, ()), FSignature(-1, (2,)), FSignature(-1, (5,))]
        for sig in sigs:
            fc = classify_fgroup(sig)
            assert fc.kind != "infinite"
            t = todd_coxeter(fgroup_presentation(sig))
            assert isinstance(t, CosetTable)
            assert t.cosets == fc.order

    def test_infinite_ones_exhaust_enumeration(self):
        for sig in (FSignature(0, (3, 3, 3)), FSignature(0, (2, 3, 6)),
                    FSignature(-1, (2, 2))):
            assert classify_fgroup(sig).kind == "infinite"
            assert isinstance(
                todd_coxeter(fgroup_presentation(sig), budget=300), Exhausted)


class TestBlackOrders:
    def test_lens_family(self):
        for q in range(3, 10):
            got = black_orders(lens_spine(q))
            assert set(got) == {"b"}
            assert got["b"] == FiniteOrder(q, got["b"].certificate)

    def test_no_blacks(self):
        assert black_orders(lens_spine(2)) == {}

    def test_bounding_circle_is_trivial(self):
        got = black_orders(s2xs1_spine())
        assert got["b"].order == 1

    def test_twisted_bundle_circle_is_trivial(self):
        from stratifold import s2xs1_twisted_spine
        got = black_orders(s2xs1_twisted_spine())
        assert got["b"].order == 1

    def test_projective_circle_bundle(self):
        got = black_orders(p2xs1_spine())
        assert got["b"] == FiniteOrder(2, got["b"].certificate)

    def test_cone_points_on_projective_base(self):
        for m in (2, 3, 4, 5):
            got = black_orders(fgroup_graph(FSignature(-1, (m,))))
            assert got["b1"].order == m

    def test_infinite_certificate(self):
        g = StratifoldGraph([WhiteVertex("w", -1)], [BlackVertex("b")],
                            [Edge("e", "w", "b", 3)])
        got = black_orders(g)
        assert isinstance(got["b"], InfiniteOrder)

    def test_abstention_on_theta(self):
        got = black_orders(theta_graph(), budget=100)
        assert got["b"] == UnknownOrder(100)


class TestWhiteHoles:
    def test_single_large_neighbor(self):
        for m in (2, 3, 4, 5):
            g = fgroup_graph(FSignature(-1, (m,)))
            assert white_holes(g, black_orders(g)) == frozenset({"w0"})

    def test_two_large_neighbors_block(self):
        g = fgroup_graph(FSignature(-1, (2, 2)))
        assert white_holes(g, black_orders(g)) == frozenset()

    def test_lone_projective_plane(self):
        g = closed_surface(-1)
        assert white_holes(g, {}) == frozenset({"w"})

    def test_orientable_whites_never_holes(self):
        g = lens_spine(5)
        assert white_holes(g, black_orders(g)) == frozenset()

    def test_infinite_neighbor_blocks(self):
        g = StratifoldGraph([WhiteVertex("w", -1)], [BlackVertex("b")],
                            [Edge("e", "w", "b", 3)])
        assert white_holes(g, black_orders(g)) == frozenset()

    def test_unknown_neighbor_abstains(self):
        g = StratifoldGraph(
            [WhiteVertex("w", 1), WhiteVertex("w2", -1)], [BlackVertex("b")],
            [Edge("e1", "w", "b", 1), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "b", 1), Edge("e4", "w2", "b", 1)])
        orders = black_orders(g, budget=100)
        assert orders["b"] == UnknownOrder(100)
        assert white_holes(g, orders) is INDETERMINATE

    def test_unknown_elsewhere_still_definite(self):
        # the genus-1 white is not a hole candidate, so an unknown verdict
        # there must not poison a definite answer
        g = theta_graph()
        assert white_holes(g, {"b": UnknownOrder(100)}) == frozenset()

    def test_missing_verdict_is_an_error(self):
        g = fgroup_graph(FSignature(-1, (2,)))
        with pytest.raises(ValueError):
            white_holes(g, {})


class TestQGraph:
    def test_lens_leaves_one_capped_sphere(self):
        q = q_graph(lens_spine(5))
        assert q.deleted_blacks == ("b",)
        assert q.white_holes == ()
        assert len(q.components) == 1
        c = q.components[0]
        assert c.capped == ("e",)
        assert c.closed_surface_genus == 0
        ab = abelianization(q.presentation)
        assert (ab.free_rank, ab.torsion) == (0, ())

    def test_projective_base_with_two_cone_points(self):
        q = q_graph(fgroup_graph(FSignature(-1, (2, 2))))
        assert q.deleted_blacks == ("b1", "b2")
        assert q.white_holes == ()
        got = [(c.graph.whites[0].id, c.capped, c.closed_surface_genus)
               for c in q.components]
        assert got == [("d1", ("f1",), 0), ("d2", ("f2",), 0),
                       ("w0", ("e1", "e2"), -1)]
        ab = abelianization(q.presentation)
        assert (ab.free_rank, ab.torsion) == (0, (2,))

    def test_hole_removes_projective_plane(self):
        q = q_graph(fgroup_graph(FSignature(-1, (3,))))
        assert q.white_holes == ("w0",)
        assert [c.graph.whites[0].id for c in q.components] == ["d1"]
        assert abelianization(q.presentation) == AbelianInvariants(0, ())

    def test_annulus_survives_with_free_quotient(self):
        q = q_graph(s2xs1_spine())
        assert q.deleted_blacks == ("b",)
        got = [(c.graph.whites[0].id, c.capped, c.closed_surface_genus)
               for c in q.components]
        assert got == [("wa", ("e1", "e2"), 0), ("wd", ("e3",), 0)]
        ab = abelianization(q.presentation)
        assert (ab.free_rank, ab.torsion) == (1, ())

    def test_closed_surface_passes_through(self):
        q = q_graph(closed_surface(1))
        assert q.deleted_blacks == ()
        assert q.components[0].closed_surface_genus == 1
        assert q.components[0].capped == ()
        assert abelianization(q.presentation) == \
            abelianization(natural_presentation(closed_surface(1)))

    def test_abstains_with_unknown_orders(self):
        assert q_graph(theta_graph(), budget=100) is INDETERMINATE

    def test_reads_the_shared_census(self):
        census = black_orders(lens_spine(5))
        assert census == {"b": FiniteOrder(5, census["b"].certificate)}
        assert q_graph(lens_spine(5)).deleted_blacks == ("b",)

    def test_abelianization_is_computed_once(self):
        q = q_graph(s2xs1_spine())
        assert q.abelianization is q.abelianization
        assert q.presentation is q.presentation

    def test_deletion_matches_verdicts_on_random_graphs(self):
        rng = random.Random(606)
        for _ in range(25):
            g = random_valid_graph(rng)
            q = q_graph(g, budget=400)
            if q is INDETERMINATE:
                continue
            finite = {b for b, v in black_orders(g, 400).items()
                      if isinstance(v, FiniteOrder)}
            assert set(q.deleted_blacks) == finite
            survivors = {b.id for c in q.components for b in c.graph.blacks}
            assert survivors == {b.id for b in g.blacks} - finite
            for c in q.components:
                assert (c.closed_surface_genus is not None) == \
                    (len(c.graph.whites) == 1 and not c.graph.edges
                     and not c.graph.blacks)


class TestFGroupSignatureOf:
    def test_round_trip(self):
        rng = random.Random(607)
        for _ in range(30):
            genus = rng.randint(-2, 2)
            periods = tuple(sorted(rng.randint(2, 6)
                                   for _ in range(rng.randint(0, 4))))
            sig = FSignature(genus, periods)
            assert fgroup_signature_of(fgroup_graph(sig)) == sig

    def test_closed_surface_is_period_free_member(self):
        assert fgroup_signature_of(closed_surface(2)) == FSignature(2, ())

    def test_non_members(self):
        assert fgroup_signature_of(lens_spine(5)) is None
        assert fgroup_signature_of(s2xs1_spine()) is None
        assert fgroup_signature_of(p2xs1_spine()) is None
        assert fgroup_signature_of(theta_graph()) is None

    def test_near_miss_spoke_label(self):
        g = fgroup_graph(FSignature(0, (3,)))
        bent = StratifoldGraph(g.whites, g.blacks,
                               [Edge("e1", "w0", "b1", 2),
                                Edge("f1", "d1", "b1", 3)])
        assert fgroup_signature_of(bent) is None

    def test_near_miss_disk_genus(self):
        g = fgroup_graph(FSignature(0, (3,)))
        bent = StratifoldGraph(
            [WhiteVertex("w0", 0), WhiteVertex("d1", 1)], g.blacks, g.edges)
        assert fgroup_signature_of(bent) is None

    def test_disguised_members(self):
        # fresh ids and arbitrary label signs: on a tree every sign
        # pattern is one move class
        rng = random.Random(611)
        for _ in range(200):
            sig = FSignature(rng.randint(-3, 3), tuple(sorted(
                rng.randint(2, 6) for _ in range(rng.randint(0, 5)))))
            g = fgroup_graph(sig)
            disguised = relabeled(StratifoldGraph(g.whites, g.blacks, [
                replace(e, label=rng.choice((1, -1)) * e.label) for e in g.edges]), "x")
            assert fgroup_signature_of(disguised) == sig

    def test_one_change_gives_none_or_an_isomorphic_member(self):
        rng = random.Random(612)
        members = 0
        for _ in range(300):
            g = fgroup_graph(FSignature(rng.randint(-2, 2), tuple(sorted(
                rng.randint(2, 4) for _ in range(rng.randint(1, 4))))))
            whites, edges = list(g.whites), list(g.edges)
            change = rng.randrange(3)
            if change == 0:     # move one end of an edge
                i = rng.randrange(len(edges))
                if rng.random() < 0.5:
                    edges[i] = replace(edges[i], white=rng.choice(whites).id)
                else:
                    edges[i] = replace(edges[i], black=rng.choice(g.blacks).id)
            elif change == 1:   # change one label
                i = rng.randrange(len(edges))
                edges[i] = replace(edges[i], label=rng.choice((1, -1)) * rng.randint(1, 4))
            else:               # change one genus
                i = rng.randrange(len(whites))
                whites[i] = replace(whites[i], genus=rng.randint(-2, 2))
            changed = StratifoldGraph(whites, g.blacks, edges)
            # an F-group graph like it has its |labels| >= 2 as periods
            # and the genus of one of its whites
            periods = tuple(sorted(abs(e.label) for e in edges if abs(e.label) >= 2))
            fits = {FSignature(w.genus, periods) for w in whites}
            fits = [sig for sig in fits if are_isomorphic(changed, fgroup_graph(sig))]
            assert fgroup_signature_of(changed) == (fits[0] if fits else None)
            members += bool(fits)
        assert 0 < members < 300


class TestObstructions:
    def test_euclidean_triangle_graph_rejected_structurally(self):
        got = obstructions(fgroup_graph(FSignature(0, (3, 3, 3))))
        assert [o.kind for o in got] == ["InfiniteNonSurfaceFGroup"]

    def test_projective_with_two_cone_points(self):
        got = obstructions(fgroup_graph(FSignature(-1, (2, 2))))
        kinds = {o.kind for o in got}
        assert kinds == {"QTorsion", "InfiniteNonSurfaceFGroup"}

    def test_structural_rejection_survives_census_abstention(self):
        for budget in (200, 500):
            got = obstructions(fgroup_graph(FSignature(0, (2, 3, 7))),
                               budget=budget)
            assert [o.kind for o in got] == ["InfiniteNonSurfaceFGroup"]

    def test_closed_higher_genus_surface(self):
        got = obstructions(closed_surface(2))
        assert [o.kind for o in got] == ["NonFreeSurfaceComponent"]

    def test_closed_klein_bottle(self):
        # H1 = Z + Z/2, so the torsion test fires alongside the component
        got = obstructions(closed_surface(-2))
        assert {o.kind for o in got} == {"QTorsion",
                                         "NonFreeSurfaceComponent"}

    def test_lens_spines_pass(self):
        for q in range(2, 8):
            assert obstructions(lens_spine(q)) == ()

    def test_small_seifert_graphs_pass(self):
        # finite cyclic quotients leave nothing to object to
        assert obstructions(fgroup_graph(FSignature(-1, (3,)))) == ()
        assert obstructions(fgroup_graph(FSignature(0, (2, 3)))) == ()

    def test_annulus_plus_disk_passes(self):
        # quotient Z, no torsion, both survivors are capped spheres
        assert obstructions(s2xs1_spine()) == ()

    def test_abstention(self):
        assert obstructions(theta_graph(), budget=100) is INDETERMINATE

    def test_indeterminate_is_falsy(self):
        assert not obstructions(theta_graph(), budget=100)


def test_gcd_table_spot_checks():
    # orders for two-period spherical signatures are plain gcds
    for a, b in ((4, 6), (5, 7), (6, 9)):
        assert classify_fgroup(FSignature(0, (a, b))).order == math.gcd(a, b)
