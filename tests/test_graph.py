"""Graph construction, validation, Euler characteristics, normalization,
isomorphism."""

import random
from itertools import permutations, product

import pytest

from helpers import (cycle_rank, disguised, isolate_mutation,
                     random_valid_graph, relabeled, starve_black_mutation,
                     zero_label_mutation)
from stratifold import (BlackVertex, Edge, GraphError, ManifoldExpr,
                        StratifoldGraph, Summand, WhiteVertex, are_isomorphic,
                        cw_euler, delta_sum, euler_characteristic, lens_spine,
                        normalize, s2xs1_spine,
                        s2xs1_twisted_spine, synth,
                        spanning_tree, validate)
from stratifold.graph import _signatures, components


def one_edge(label, genus=0):
    return StratifoldGraph([WhiteVertex("w", genus)], [BlackVertex("b")],
                           [Edge("e", "w", "b", label)])


def annulus(l1, l2, genus=0):
    return StratifoldGraph(
        [WhiteVertex("w", genus)], [BlackVertex("b")],
        [Edge("e1", "w", "b", l1), Edge("e2", "w", "b", l2)])


class TestConstruction:
    def test_vertices_and_edges_sorted_by_id(self):
        g = StratifoldGraph([WhiteVertex("w2", 0), WhiteVertex("w1", 1)],
                            [BlackVertex("b")],
                            [Edge("e2", "w2", "b", 2), Edge("e1", "w1", "b", 1)])
        assert [w.id for w in g.whites] == ["w1", "w2"]
        assert [e.id for e in g.edges] == ["e1", "e2"]

    def test_duplicate_white_id_rejected(self):
        with pytest.raises(GraphError):
            StratifoldGraph([WhiteVertex("w", 0), WhiteVertex("w", 1)], [], [])

    @pytest.mark.parametrize("blacks, edges, message", [
        (["b", "b"], [], "duplicate black vertex id 'b'"),
        (["b"], [("e", 3), ("e", 5)], "duplicate edge id 'e'"),
    ])
    def test_duplicate_black_and_edge_ids_rejected(self, blacks, edges, message):
        with pytest.raises(GraphError, match=message):
            StratifoldGraph([WhiteVertex("w", 0)], [BlackVertex(b) for b in blacks],
                            [Edge(eid, "w", "b", label) for eid, label in edges])

    def test_ids_namespaced_per_kind(self):
        # a white and a black may share an id; endpoints are typed
        g = StratifoldGraph([WhiteVertex("x", 0)], [BlackVertex("x")],
                            [Edge("e", "x", "x", 3)])
        assert g.white("x").genus == 0
        assert g.black("x").id == "x"

    def test_dangling_edge_endpoint_rejected(self):
        with pytest.raises(GraphError):
            StratifoldGraph([WhiteVertex("w", 0)], [BlackVertex("b")],
                            [Edge("e", "w", "nope", 3)])
        with pytest.raises(GraphError, match="dangling white endpoint 'nope'"):
            StratifoldGraph([WhiteVertex("w", 0)], [BlackVertex("b")],
                            [Edge("e", "nope", "b", 3)])

    def test_lookup_helpers(self):
        g = one_edge(3)
        assert g.white("w").genus == 0
        assert g.black("b").id == "b"
        assert g.edge("e").label == 3
        with pytest.raises(GraphError):
            g.white("b")
        assert g.edges_at_white("w") == ("e",)
        assert g.edges_at_black("b") == ("e",)


class TestValidate:
    def test_valid_lens_graph(self):
        assert validate(one_edge(3)) == []

    def test_branch_condition(self):
        assert [v.rule for v in validate(one_edge(2))] == ["BranchTooSmall"]

    def test_zero_label(self):
        # the lone b-w edge with label 0 also starves b, so check membership
        rules = {v.rule for v in validate(one_edge(0))}
        assert "ZeroLabel" in rules

    def test_zero_label_exact(self):
        vs = validate(annulus(3, 0))
        assert [v.rule for v in vs] == ["ZeroLabel"]
        assert vs[0].subject == "e2"

    def test_isolated_black(self):
        g = StratifoldGraph([WhiteVertex("w", 0)],
                            [BlackVertex("b"), BlackVertex("b2")],
                            [Edge("e", "w", "b", 3)])
        rules = {v.rule for v in validate(g)}
        assert "IsolatedBlack" in rules
        assert "Disconnected" in rules

    def test_isolated_white_in_larger_graph(self):
        g = StratifoldGraph([WhiteVertex("w", 1), WhiteVertex("w2", 0)],
                            [BlackVertex("b")], [Edge("e", "w", "b", 3)])
        assert "IsolatedWhite" in {v.rule for v in validate(g)}

    def test_closed_surface_singleton_is_valid(self):
        g = StratifoldGraph([WhiteVertex("w", -1)], [], [])
        assert validate(g) == []

    def test_empty_graph_invalid(self):
        assert [v.rule for v in validate(StratifoldGraph([], [], []))] == \
            ["Disconnected"]

    def test_disconnected_components(self):
        g = StratifoldGraph(
            [WhiteVertex("w1", 0), WhiteVertex("w2", 0)],
            [BlackVertex("b1"), BlackVertex("b2")],
            [Edge("e1", "w1", "b1", 3), Edge("e2", "w2", "b2", 3)])
        assert {v.rule for v in validate(g)} == {"Disconnected"}

    def test_random_graphs_validate_clean(self):
        rng = random.Random(9001)
        for _ in range(60):
            assert validate(random_valid_graph(rng)) == []

    def test_mutations_break_validity(self):
        rng = random.Random(424)
        for _ in range(40):
            g = random_valid_graph(rng)
            if not g.edges:
                continue
            assert validate(zero_label_mutation(g, rng)) != []
            assert validate(starve_black_mutation(g, rng)) != []
            assert validate(isolate_mutation(g)) != []


class TestPartition:
    # the partition of d at a branch circle, as the isomorphism search
    # reads it: the incident |labels| in a black's signature
    def test_signs_dropped_and_sorted(self):
        g = StratifoldGraph(
            [WhiteVertex("w", 0)], [BlackVertex("b")],
            [Edge("e1", "w", "b", 2), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "b", -1)])
        assert _signatures(g)[("b", "b")] == ("b", 0, (1, 1, 2))

    def test_single_edge(self):
        assert _signatures(one_edge(3))[("b", "b")] == ("b", 0, (3,))

    def test_three_ones(self):
        g = StratifoldGraph(
            [WhiteVertex("w", 1)], [BlackVertex("b")],
            [Edge("e1", "w", "b", 1), Edge("e2", "w", "b", 1),
             Edge("e3", "w", "b", 1)])
        assert _signatures(g)[("b", "b")] == ("b", 0, (1, 1, 1))

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            one_edge(3).edges_at_black("nope")


class TestEuler:
    def test_lens_graph(self):
        # disk contributes 2 - 0 - 1 = 1, the branch circle 0
        assert euler_characteristic(one_edge(5)) == 1

    def test_closed_torus(self):
        g = StratifoldGraph([WhiteVertex("w", 1)], [], [])
        assert euler_characteristic(g) == 0

    def test_two_lens_delta(self):
        d = delta_sum(lens_spine(2), lens_spine(2).whites[0].id,
                      lens_spine(3), "w")
        assert euler_characteristic(d) == 1

    def test_cw_euler_matches_formula(self):
        assert cw_euler(one_edge(5)) == 1
        assert cw_euler(StratifoldGraph([WhiteVertex("w", -1)], [], [])) == 1
        assert cw_euler(s2xs1_spine()) == 1

    def test_cw_euler_rejects_zero_label(self):
        with pytest.raises(GraphError):
            cw_euler(one_edge(0))

    def test_cw_euler_agrees_on_random_graphs(self):
        rng = random.Random(77)
        for _ in range(50):
            g = random_valid_graph(rng)
            assert cw_euler(g) == euler_characteristic(g)


class TestSpanningTree:
    def test_tree_graph_keeps_all_edges(self):
        rng = random.Random(31)
        for _ in range(30):
            g = random_valid_graph(rng, max_extra=0)
            if cycle_rank(g) != 0:
                continue
            assert spanning_tree(g) == {e.id for e in g.edges}

    def test_parallel_edges_drop_to_one(self):
        assert spanning_tree(annulus(1, 2)) == {"e1"}

    def test_size_invariant(self):
        rng = random.Random(32)
        for _ in range(30):
            g = random_valid_graph(rng)
            assert len(spanning_tree(g)) == len(g.whites) + len(g.blacks) - 1

    def test_deterministic(self):
        rng = random.Random(33)
        g = random_valid_graph(rng, max_extra=3)
        assert spanning_tree(g) == spanning_tree(g)

    @pytest.mark.parametrize("graph, message", [
        (StratifoldGraph([], [], []), "empty graph has no spanning tree"),
        (StratifoldGraph([WhiteVertex("w1", 0), WhiteVertex("w2", 0)], [BlackVertex("b")],
                         [Edge("e", "w1", "b", 3)]), "graph is not connected"),
    ])
    def test_needs_a_nonempty_connected_graph(self, graph, message):
        with pytest.raises(GraphError, match=message):
            spanning_tree(graph)


def union_find_components(graph, dead_whites, dead_blacks):
    """Reference split: union-find, pieces sorted by the id of their root."""
    whites = [w for w in graph.whites if w.id not in dead_whites]
    blacks = [b for b in graph.blacks if b.id not in dead_blacks]
    edges = [e for e in graph.edges
             if e.black not in dead_blacks and e.white not in dead_whites]
    parent = {("w", w.id): ("w", w.id) for w in whites}
    parent.update({("b", b.id): ("b", b.id) for b in blacks})

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    for e in edges:
        a, b = find(("w", e.white)), find(("b", e.black))
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups = {}
    for kind, v in [("w", w) for w in whites] + [("b", b) for b in blacks]:
        groups.setdefault(find((kind, v.id)), []).append((kind, v))
    out = []
    for root in sorted(groups, key=lambda k: k[1]):
        ws = [v for kind, v in groups[root] if kind == "w"]
        wids = {w.id for w in ws}
        out.append(StratifoldGraph(ws, [v for kind, v in groups[root] if kind == "b"],
                                   [e for e in edges if e.white in wids]))
    return out


class TestComponents:
    def test_matches_union_find_reference(self):
        # ids drawn from one small pool, so white and black ids collide
        # and pieces tie on the id that orders them
        rng = random.Random(34)
        pool = "abcde"
        for _ in range(300):
            whites = [WhiteVertex(i, rng.randint(-1, 1))
                      for i in rng.sample(pool, rng.randint(1, 5))]
            blacks = [BlackVertex(i) for i in rng.sample(pool, rng.randint(0, 5))]
            edges = [Edge(f"e{k}", rng.choice(whites).id, rng.choice(blacks).id, 1)
                     for k in range(rng.randint(0, 6) if blacks else 0)]
            g = StratifoldGraph(whites, blacks, edges)
            dead_w = {w.id for w in whites if rng.random() < 0.3}
            dead_b = {b.id for b in blacks if rng.random() < 0.3}
            assert components(g, dead_w, dead_b) == union_find_components(g, dead_w, dead_b)

    def test_pieces_of_a_sum_spine(self):
        g = delta_sum(lens_spine(3), "w", s2xs1_spine(), "wa")
        pieces = components(g, {"jd"}, {"j"})
        assert [sorted(w.id for w in p.whites) for p in pieces] == [
            ["l.w"], ["r.wa", "r.wd"]]
        assert components(g, (), ()) == [g]


class TestNormalize:
    def test_negative_lens_label_flips(self):
        assert normalize(one_edge(-5)).edge("e").label == 5

    def test_idempotent(self):
        rng = random.Random(55)
        for _ in range(40):
            n = normalize(random_valid_graph(rng))
            assert normalize(n) == n

    def test_preserves_isomorphism_type(self):
        rng = random.Random(56)
        for _ in range(40):
            g = random_valid_graph(rng)
            assert are_isomorphic(g, normalize(g))

    def test_tree_labels_positive(self):
        rng = random.Random(57)
        for _ in range(40):
            g = normalize(random_valid_graph(rng))
            for eid in spanning_tree(g):
                assert g.edge(eid).label > 0

    def test_twisted_annulus_stays_mixed(self):
        # the annulus carries labels +1 and -1; every vertex flip reverses
        # both at once, so the product of signs is stuck at -1
        n = normalize(s2xs1_twisted_spine())
        signs = sorted(e.label for e in n.edges if abs(e.label) == 1
                       and len(n.edges_at_white(e.white)) == 2)
        assert signs == [-1, 1]


def brute_isomorphic(g1, g2):
    """Reference: some color- and genus-preserving bijection and some set
    of M1/M2 flips carry g1's edges onto g2's.  Labels at nonorientable
    whites compare by absolute value, since M3 makes their signs free."""
    def edges(g, wmap, bmap, sign):
        twisted = {w.id for w in g.whites if w.genus < 0}
        return sorted((wmap[e.white], bmap[e.black], abs(e.label) if e.white in twisted
                       else e.label * sign.get(("w", e.white), 1) * sign.get(("b", e.black), 1))
                      for e in g.edges)

    if len(g1.whites) != len(g2.whites) or len(g1.blacks) != len(g2.blacks):
        return False
    target = edges(g2, {w.id: w.id for w in g2.whites}, {b.id: b.id for b in g2.blacks}, {})
    unsigned = sorted((w, b, abs(m)) for w, b, m in target)
    flippable = ([("b", b.id) for b in g1.blacks]
                 + [("w", w.id) for w in g1.whites if w.genus >= 0])
    for wperm in permutations(g2.whites):
        if any(w.genus != v.genus for w, v in zip(g1.whites, wperm)):
            continue
        wmap = {w.id: v.id for w, v in zip(g1.whites, wperm)}
        for bperm in permutations(g2.blacks):
            bmap = {b.id: v.id for b, v in zip(g1.blacks, bperm)}
            if sorted((wmap[e.white], bmap[e.black], abs(e.label))
                      for e in g1.edges) != unsigned:
                continue  # flips change no |label|
            for signs in product((1, -1), repeat=len(flippable)):
                if edges(g1, wmap, bmap, dict(zip(flippable, signs))) == target:
                    return True
    return False


def small_graph(rng, nw, nb, ne):
    whites = [WhiteVertex(f"w{i}", rng.randint(-1, 1)) for i in range(nw)]
    blacks = [BlackVertex(f"b{i}") for i in range(nb)]
    return StratifoldGraph(whites, blacks, [
        Edge(f"e{i}", rng.choice(whites).id, rng.choice(blacks).id,
             rng.choice((1, -1)) * rng.randint(1, 2)) for i in range(ne)])


class TestIsomorphism:
    def test_relabeled_copy(self):
        rng = random.Random(101)
        for _ in range(30):
            g = random_valid_graph(rng)
            assert are_isomorphic(g, relabeled(g, "copy_"))

    def test_lens_spaces_differ(self):
        assert not are_isomorphic(lens_spine(3), lens_spine(5))

    def test_orientation_twist_detected(self):
        assert not are_isomorphic(s2xs1_spine(), s2xs1_twisted_spine())

    def test_genus_mismatch(self):
        assert not are_isomorphic(one_edge(3, genus=0), one_edge(3, genus=1))

    def test_vertex_flip_absorbs_uniform_sign_change(self):
        # flipping the black vertex reverses every incident label
        assert are_isomorphic(annulus(2, 1), annulus(-2, -1))

    def test_single_sign_flip_not_isomorphic(self):
        # (2, 1) and (2, -1): no vertex flip reverses exactly one edge
        assert not are_isomorphic(annulus(2, 1), annulus(2, -1))

    def test_nonorientable_white_absorbs_one_sign(self):
        assert are_isomorphic(annulus(2, 1, genus=-1),
                              annulus(2, -1, genus=-1))

    def test_agrees_with_brute_force(self):
        rng = random.Random(131)
        outcomes = []
        for i in range(2400):
            shape = rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 5)
            g = small_graph(rng, *shape)
            if i % 3 == 0:      # relabelled, re-oriented copy
                h = disguised(g, rng)
            elif i % 3 == 1:    # the same with one label negated
                h = disguised(g, rng)
                if h.edges:
                    flip = rng.choice(h.edges)
                    h = StratifoldGraph(h.whites, h.blacks, [
                        Edge(e.id, e.white, e.black, -e.label if e == flip else e.label)
                        for e in h.edges])
            else:               # independent, of the same size
                h = small_graph(rng, *shape)
            want = brute_isomorphic(g, h)
            assert are_isomorphic(g, h) == want, (g.edges, h.edges)
            outcomes.append(want)
        assert 500 < sum(outcomes) < 1900

    def test_odd_cycle_rejected_by_parity_alone(self):
        # a 4-cycle with one label negated: every parallel class can be
        # matched on its own, but the signs around the cycle cannot
        def square(last):
            return StratifoldGraph(
                [WhiteVertex("w1", 0), WhiteVertex("w2", 0)],
                [BlackVertex("b1"), BlackVertex("b2")],
                [Edge("e1", "w1", "b1", 1), Edge("e2", "w2", "b1", 1),
                 Edge("e3", "w2", "b2", 1), Edge("e4", "w1", "b2", last)])
        assert brute_isomorphic(square(1), square(1))
        assert not brute_isomorphic(square(1), square(-1))
        assert not are_isomorphic(square(1), square(-1))

    def test_large_graph_needs_no_deep_recursion(self):
        g = synth(ManifoldExpr([Summand("lens", 3)] * 300))
        assert len(g.whites) + len(g.blacks) > 1000
        assert are_isomorphic(g, relabeled(g, "c"))
