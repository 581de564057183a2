"""F-group classification, order census, Q-surgery, obstruction suite."""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import stratifold
from helpers import abstaining_graph, random_valid_graph, relabeled
from stratifold import (AbelianInvariants, BlackVertex,
                        CosetTable, Edge, Exhausted, FiniteOrder, FSignature,
                        GraphError, InfiniteOrder, OrderOracle,
                        StratifoldGraph, UnknownOrder, WhiteVertex, Word,
                        abelianization, are_isomorphic, black_orders,
                        classify_fgroup, fgroup_graph, fgroup_presentation,
                        fgroup_signature_of, lens_spine, natural_presentation,
                        obstructions, p2xs1_spine, q_graph, s2xs1_spine,
                        todd_coxeter, white_holes)
from stratifold.analysis import _EMBEDDED


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

    def test_coset_fallback_scans_short_relators_first(self):
        # the first white relator is b1^100; a table scanned in
        # presentation order needs 10,002 cosets to close, shortest
        # relators first it needs 301.  The fold reads the order off d1
        g = fgroup_graph(FSignature(0, (100, 2, 2)))
        got = OrderOracle(natural_presentation(g)).order(Word((("b.b1", 1),)), 2000)
        assert got == FiniteOrder(100, "coset enumeration closed with 200 cosets")
        assert black_orders(g)["b1"] == FiniteOrder(100, "disk d1 with label 100")

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

    def test_abstention_on_a_disk_graph(self):
        # the oracle abstains on the presentation; the fold decides: the
        # disk d gives b^2 = 1, and the sphere a is left with two cone
        # points of order 2, a good orbifold
        g = abstaining_graph()
        b = Word((("b.b", 1),))
        assert OrderOracle(natural_presentation(g)).order(b, 100) == UnknownOrder(100)
        assert black_orders(g) == {"b": FiniteOrder(2, "disk d with label 2")}
        assert [o.kind for o in obstructions(g)] == ["NonFreeSurfaceComponent"]


class TestFold:
    """One graph per rule of the fold, each checked against a closed
    coset table of its natural presentation where the group is finite."""

    @staticmethod
    def table_orders(g):
        table = todd_coxeter(natural_presentation(g), 20_000)
        assert isinstance(table, CosetTable)
        return {b.id: table.permutation_order(Word(((f"b.{b.id}", 1),)))
                for b in g.blacks}

    def test_teardrop(self):
        # the disk d makes b a cone point of order 3 on the sphere w, a
        # teardrop, whose group is trivial: b^2 = 1 there, so b = 1
        g = StratifoldGraph(
            [WhiteVertex("d", 0), WhiteVertex("w", 0)], [BlackVertex("b")],
            [Edge("e1", "d", "b", 3), Edge("e2", "w", "b", 2)])
        got = black_orders(g)
        assert got == {"b": FiniteOrder(1, "disk d with label 3, then"
                                           " teardrop(3) w with label 2")}
        assert self.table_orders(g) == {"b": 1}

    def test_spindle(self):
        # cone points 2 and 3 on the sphere w, a spindle whose group is
        # Z/gcd(2, 3) = 1, so both branch circles are trivial
        g = fgroup_graph(FSignature(0, (2, 3)))
        got = black_orders(g)
        assert got["b1"] == FiniteOrder(
            1, "disk d1 with label 2, then spindle(2, 3) w0 with label 1")
        assert {b: v.order for b, v in got.items()} == self.table_orders(g) == {"b1": 1, "b2": 1}
        # with cone points 4 and 6 each cone element has order gcd = 2
        g = fgroup_graph(FSignature(0, (4, 6)))
        assert {b: v.order for b, v in black_orders(g).items()} == \
            self.table_orders(g) == {"b1": 2, "b2": 2}

    def test_equal_cone_points_are_good(self):
        # S^2(3, 3) has group Z/3, in which each cone point has order 3
        g = fgroup_graph(FSignature(0, (3, 3)))
        assert {b: v.order for b, v in black_orders(g).items()} == \
            self.table_orders(g) == {"b1": 3, "b2": 3}

    def test_disk_with_a_cone_point(self):
        # the disk d makes b a cone point of order 2 on the disk w, whose
        # boundary edge to c then says c^(3 * 2) = 1: D(2) has group Z/2
        g = StratifoldGraph(
            [WhiteVertex("d", 0), WhiteVertex("w", 0), WhiteVertex("t", 1)],
            [BlackVertex("b"), BlackVertex("c")],
            [Edge("e1", "d", "b", 2), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "c", 3), Edge("e4", "t", "b", 1),
             Edge("e5", "t", "c", 1)])
        got = black_orders(g)
        assert got == {
            "b": FiniteOrder(2, "disk d with label 2"),
            "c": FiniteOrder(6, "D(2) w with label 3")}
        # the torus t leaves H1 infinite, so no coset table closes, but
        # the oracle's abelianized image agrees where it decides
        oracle = OrderOracle(natural_presentation(g))
        assert oracle.order(Word((("b.b", 1),)), 300) == \
            FiniteOrder(2, "power relator bound 2 meets abelianized image has order 2")

    def test_cascade_through_two_blacks(self):
        # a path d - b - w - c - u - a.  The disk d gives b^2 = 1; the
        # sphere w is then D(2) with its boundary edge to c, so c^6 = 1;
        # the sphere u is then D(3) with its boundary edge to a, so a^3 = 1
        # (a meets one sheet: invalid, but the fold does not mind).  The
        # group is Z/6, generated by c, with b = c^-3 and a = c^-2
        g = StratifoldGraph(
            [WhiteVertex("d", 0), WhiteVertex("u", 0), WhiteVertex("w", 0)],
            [BlackVertex("a"), BlackVertex("b"), BlackVertex("c")],
            [Edge("e1", "d", "b", 2), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "c", 3), Edge("e4", "u", "c", 2),
             Edge("e5", "u", "a", 1)])
        assert black_orders(g) == {
            "a": FiniteOrder(3, "D(3) u with label 1"),
            "b": FiniteOrder(2, "disk d with label 2"),
            "c": FiniteOrder(6, "D(2) w with label 3")}
        assert self.table_orders(g) == {"a": 3, "b": 2, "c": 6}

    def test_no_disk_white_is_infinite(self):
        got = black_orders(theta_graph())
        assert got == {"b": _EMBEDDED}

    def test_label_zero_caps_the_circle(self):
        # invalid, but reachable through the library: b^0 = 1 says
        # nothing about b, so the edge is capped (k_e = 1) and w is a disk
        # with its one boundary edge to c
        g = StratifoldGraph(
            [WhiteVertex("w", 0), WhiteVertex("t", 1)],
            [BlackVertex("b"), BlackVertex("c")],
            [Edge("e1", "w", "b", 0), Edge("e2", "w", "c", 4),
             Edge("e3", "t", "b", 3), Edge("e4", "t", "c", 1)])
        assert black_orders(g) == {"b": _EMBEDDED,
                                   "c": FiniteOrder(4, "disk w with label 4")}
        lone = StratifoldGraph([WhiteVertex("w", 0)], [BlackVertex("b")],
                               [Edge("e", "w", "b", 0)])
        assert black_orders(lone) == {"b": _EMBEDDED}

    def test_empty_or_disconnected_graph_raises(self):
        apart = StratifoldGraph(
            [WhiteVertex("w", 0), WhiteVertex("x", 0)], [BlackVertex("b")],
            [Edge("e", "w", "b", 3)])
        for g in (StratifoldGraph([], [], []), apart):
            with pytest.raises(GraphError):
                black_orders(g)


class TestWhiteHoles:
    def test_single_large_neighbor(self):
        for m in (2, 3, 4, 5):
            g = fgroup_graph(FSignature(-1, (m,)))
            assert white_holes(g) == frozenset({"w0"})

    def test_two_large_neighbors_block(self):
        g = fgroup_graph(FSignature(-1, (2, 2)))
        assert white_holes(g) == frozenset()

    def test_lone_projective_plane(self):
        g = closed_surface(-1)
        assert white_holes(g) == frozenset({"w"})

    def test_orientable_whites_never_holes(self):
        g = lens_spine(5)
        assert white_holes(g) == frozenset()

    def test_infinite_neighbor_blocks(self):
        g = StratifoldGraph([WhiteVertex("w", -1)], [BlackVertex("b")],
                            [Edge("e", "w", "b", 3)])
        assert white_holes(g) == frozenset()

    def test_unknown_neighbor_abstains(self):
        # b^2 = 1 from the disk d, but H1 is infinite and b is trivial in
        # it, so the oracle abstains on the presentation; the fold decides
        # order 2, so the projective plane m is a hole
        a = abstaining_graph()
        g = StratifoldGraph(a.whites + (WhiteVertex("m", -1),), a.blacks,
                            a.edges + (Edge("e5", "m", "b", 1),))
        assert black_orders(g)["b"].order == 2
        assert white_holes(g) == frozenset({"m"})

    def test_no_disk_neighbor_is_infinite(self):
        # without a disk white every vertex group embeds, so b has
        # infinite order and the projective plane w2 is not a hole
        g = StratifoldGraph(
            [WhiteVertex("w", 1), WhiteVertex("w2", -1)], [BlackVertex("b")],
            [Edge("e1", "w", "b", 1), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "b", 1), Edge("e4", "w2", "b", 1)])
        orders = black_orders(g)
        assert orders["b"] == InfiniteOrder(
            "the folded graph of groups has injective edge maps,"
            " so every vertex group embeds")
        assert white_holes(g) == frozenset()


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

    def test_decides_where_the_oracle_abstains(self):
        # the oracle's abstention on this graph is not the census:
        # the fold deletes b (order 2) and the torus w survives closed
        q = q_graph(abstaining_graph())
        assert q.deleted_blacks == ("b",)
        assert [c.closed_surface_genus for c in q.components] == [0, 0, 1]

    def test_reads_the_shared_census(self):
        census = black_orders(lens_spine(5))
        assert census == {"b": FiniteOrder(5, census["b"].certificate)}
        assert q_graph(lens_spine(5)).deleted_blacks == ("b",)

    def test_surgery_that_deletes_nothing_hands_on_the_graph(self):
        # no disk white, so no black is finite, and no white is a hole
        for g in (theta_graph(), closed_surface(2)):
            q = q_graph(g)
            assert (q.deleted_blacks, q.white_holes) == ((), ())
            assert [c.graph for c in q.components] == [g]
            assert q.components[0].graph is g

    def test_abelianization_is_computed_once(self):
        q = q_graph(s2xs1_spine())
        assert q.abelianization is q.abelianization
        assert q.presentation is q.presentation

    def test_deletion_matches_verdicts_on_random_graphs(self):
        rng = random.Random(606)
        for _ in range(25):
            g = random_valid_graph(rng)
            q = q_graph(g)
            finite = {b for b, v in black_orders(g).items()
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
        # the oracle abstains on the (2,3,7) presentation at any budget
        # that fits here; the fold decides the census, and only the
        # structural test rejects
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        oracle = OrderOracle(natural_presentation(g))
        for budget in (200, 500):
            assert oracle.order(Word((("b.b1", 1),)), budget) == UnknownOrder(budget)
        assert {b: v.order for b, v in black_orders(g).items()} == \
            {"b1": 2, "b2": 3, "b3": 7}
        assert [o.kind for o in obstructions(g)] == ["InfiniteNonSurfaceFGroup"]

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
        # the graph the oracle abstains on is rejected: the fold deletes
        # b, and the torus w survives as a closed surface
        assert fgroup_signature_of(abstaining_graph()) is None
        got = obstructions(abstaining_graph())
        assert [o.kind for o in got] == ["NonFreeSurfaceComponent"]
        assert got[0].witness == ("component w is a closed surface of genus 1,"
                                  " whose group is not free")


def test_gcd_table_spot_checks():
    # orders for two-period spherical signatures are plain gcds
    for a, b in ((4, 6), (5, 7), (6, 9)):
        assert classify_fgroup(FSignature(0, (a, b))).order == math.gcd(a, b)


def test_order_and_obstruct_on_a_huge_genus_build_no_presentation():
    # one child process whose address space is capped at 1 GB: presenting
    # a closed surface of genus 10^18 would need 2 * 10^18 generators
    code = """if True:
        import contextlib, io, json, resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from stratifold.cli import main
        for genus in (10**18, -10**18):
            for command in ("order", "obstruct"):
                out = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out):
                    code = main([command, "--json"],
                                stdin=io.StringIO(f"white w genus {genus}\\n"))
                seconds = time.perf_counter() - start
                report = json.loads(out.getvalue())
                kinds = sorted(o["kind"] for o in report["obstructions"])
                print(json.dumps([command, genus, code, seconds, kinds]))
        """
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratifold.__file__)))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    runs = [json.loads(line) for line in done.stdout.splitlines()]
    assert [(c, g) for c, g, *_ in runs] == [
        ("order", 10**18), ("obstruct", 10**18),
        ("order", -10**18), ("obstruct", -10**18)]
    assert all(seconds < 1 for *_, seconds, _ in runs)
    # a surface group other than those of S^2 and RP^2 is not free, and a
    # nonorientable one's torsion quotient is itself, with 2-torsion in H1
    assert [(code, kinds) for _, _, code, _, kinds in runs] == [
        (0, []), (3, ["NonFreeSurfaceComponent"]),
        (0, []), (3, ["NonFreeSurfaceComponent", "QTorsion"])]


def test_pi1_h1_and_q_refuse_a_genus_over_the_cap():
    # a child process per command, its address space capped at 1 GB:
    # genus 10^6 needs 2 * 10^6 surface loops, over MAX_SURFACE_LOOPS, so
    # each command refuses before it builds a word
    code = """if True:
        import resource, sys, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from stratifold.cli import main
        start = time.perf_counter()
        code = main([sys.argv[1]])
        print(time.perf_counter() - start, file=sys.stderr)
        sys.exit(code)
        """
    src = os.path.dirname(os.path.dirname(os.path.abspath(stratifold.__file__)))
    for command in ("pi1", "h1", "q"):
        done = subprocess.run([sys.executable, "-c", code, command],
                              input="white w genus 1000000\n", capture_output=True,
                              text=True, timeout=20, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 1, (command, done.stderr)
        assert "Traceback" not in done.stdout + done.stderr
        assert done.stdout == ("violation DomainError: the surfaces have 2000000"
                               " loops, more than the 1000000 a presentation may"
                               " write\n")
        assert float(done.stderr) < 1, command
