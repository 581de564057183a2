"""The per-graph analysis that successive calls on one graph share."""

import contextlib
import copy
import dataclasses
import gc
import io
import pickle
import random
import weakref

import pytest

import stratifold.algebra
from stratifold import (FSignature, UnknownOrder, black_orders, fgroup_graph,
                        lens_spine, natural_presentation, normalize,
                        obstructions, parse_expr, parse_graph, q_graph,
                        serialize_graph, serialize_presentation, simplify,
                        synth)
from stratifold.analysis import analyze, clear_analysis
from stratifold.cli import COMMANDS, main

BUDGET = "2000"


def run(argv, stdin_text=""):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv, stdin=io.StringIO(stdin_text))
    return code, buf.getvalue()


def graph_cases(expr, graph, other, tmp_path):
    """(argv, stdin) for each of the 13 commands on one graph; ``delta``
    sums it with ``other`` and ``tc`` enumerates its presentation."""
    text = serialize_graph(graph)
    mine = tmp_path / f"{id(graph)}.txt"
    theirs = tmp_path / f"{id(other)}.txt"
    mine.write_text(text, encoding="utf-8")
    theirs.write_text(serialize_graph(other), encoding="utf-8")
    pres = serialize_presentation(natural_presentation(normalize(graph)))
    budget = ["--budget", BUDGET]
    cases = [
        (["validate"], text),
        (["pi1"], text),
        (["pi1", "--simplify"], text),
        (["h1"], text),
        (["euler"], text),
        (["order", *budget], text),
        (["fclass"], text),
        (["holes", *budget], text),
        (["q", *budget], text),
        (["obstruct", *budget], text),
        (["obstruct", "--budget", "300"], text),
        (["order", "--budget", "300"], text),
        (["synth", "--expr", expr], ""),
        (["recognize"], text),
        (["delta", "--in", str(mine), "--in2", str(theirs),
          "--w1", graph.whites[0].id, "--w2", other.whites[0].id], ""),
        (["tc", "--budget", "200"], pres),
    ]
    assert {argv[0] for argv, _ in cases} == set(COMMANDS)
    return [c for argv, stdin in cases for c in ((argv, stdin), (argv + ["--json"], stdin))]


@pytest.fixture
def two_graphs():
    a_expr = "L(3) # P2xS1 # S2xS1"
    a = synth(parse_expr(a_expr))
    # trivial H1: the census tries one coset table, which exhausts
    b = fgroup_graph(FSignature(0, (2, 3, 7)))
    return (a_expr, a), ("L(2)", b)


def cold(argv, stdin):
    clear_analysis()
    return run(argv, stdin)


class TestInterleavedCommands:
    def test_graph_after_graph(self, two_graphs, tmp_path):
        (ea, a), (eb, b) = two_graphs
        sequence = (graph_cases(ea, a, b, tmp_path) + graph_cases(eb, b, a, tmp_path)
                    + graph_cases(ea, a, b, tmp_path))
        warm = [run(argv, stdin) for argv, stdin in sequence]
        assert warm == [cold(argv, stdin) for argv, stdin in sequence]

    def test_command_by_command(self, two_graphs, tmp_path):
        (ea, a), (eb, b) = two_graphs
        per_graph = [graph_cases(ea, a, b, tmp_path), graph_cases(eb, b, a, tmp_path),
                     graph_cases(ea, a, b, tmp_path)]
        sequence = [case for cases in zip(*per_graph) for case in cases]
        warm = [run(argv, stdin) for argv, stdin in sequence]
        assert warm == [cold(argv, stdin) for argv, stdin in sequence]
        codes = {code for code, _ in warm}
        assert {0, 1, 2, 3} <= codes


class TestSharing:
    def test_one_simplification_for_every_command(self, monkeypatch):
        calls = []
        real = stratifold.algebra.simplify

        def counting(pres, *args, **kwargs):
            calls.append(pres)
            return real(pres, *args, **kwargs)

        monkeypatch.setattr(stratifold.algebra, "simplify", counting)
        clear_analysis()
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1")))
        for argv in (["pi1", "--simplify"], ["h1"], ["order"], ["holes"], ["q"],
                     ["obstruct"], ["h1", "--json"]):
            run(argv, text)
        assert len(calls) == 1

    def test_reshuffled_text_reuses_the_analysis(self):
        text = serialize_graph(synth(parse_expr("L(7) # S2xS1 # P2xS1")))
        lines = text.splitlines()
        random.Random(5).shuffle(lines)
        # whites first, then blacks, then edges: a valid order of sections
        order = {"white": 0, "black": 1, "edge": 2}
        lines.sort(key=lambda line: order[line.split()[0]])
        g1, g2 = parse_graph(text), parse_graph("\n".join(lines) + "\n")
        assert g1 is not g2
        clear_analysis()
        census = black_orders(g1, 500)
        assert analyze(g2) is analyze(g1)
        assert black_orders(g2, 500) is census

    def test_another_budget_builds_another_census(self):
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        clear_analysis()
        small = black_orders(g, 50)
        assert all(v == UnknownOrder(50) for v in small.values())
        large = black_orders(g, 80)
        assert large is not small
        assert all(v == UnknownOrder(80) for v in large.values())
        assert black_orders(g, 80) is large
        # one oracle, so one simplification and Smith form, serves every
        # budget; it keeps only the latest budget's coset table
        assert large.oracle is small.oracle
        assert large.oracle._table[0] == 80

    def test_budgets_share_the_simplification_and_smith_form(self, monkeypatch):
        calls = {"simplify": 0, "smith_normal_form": 0}
        for name in calls:
            real = getattr(stratifold.algebra, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(stratifold.algebra, name, counting)
        clear_analysis()
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1")))
        for argv in (["h1"], ["order", "--budget", "10000"],
                     ["obstruct", "--budget", "10000"]):
            run(argv, text)
        # one SNF for H1 and the census, one for H1 of the torsion quotient
        assert calls == {"simplify": 1, "smith_normal_form": 2}

    def test_other_graph_releases_the_analysis(self):
        a, b = lens_spine(5), synth(parse_expr("L(3) # S2xS1"))
        clear_analysis()
        q = q_graph(a, 300)
        assert obstructions(a, 300) == ()
        refs = [weakref.ref(x) for x in (analyze(a), q, q.orders, q.orders.oracle)]
        del q
        black_orders(b, 300)
        gc.collect()
        assert [r() for r in refs] == [None] * 4

    def test_new_budget_releases_the_old_census(self):
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        clear_analysis()
        old = weakref.ref(black_orders(g, 60))
        black_orders(g, 70)
        gc.collect()
        assert old() is None


class TestImmutable:
    def test_census_cannot_be_changed(self):
        census = black_orders(lens_spine(5))
        before = dict(census)
        mutations = [
            lambda c: c.__setitem__("b", UnknownOrder(1)),
            lambda c: c.__delitem__("b"),
            lambda c: c.update({"b": UnknownOrder(1)}),
            lambda c: c.pop("b"),
            lambda c: c.popitem(),
            lambda c: c.clear(),
            lambda c: c.setdefault("x", UnknownOrder(1)),
            lambda c: c.__ior__({"b": UnknownOrder(1)}),
        ]
        for mutate in mutations:
            with pytest.raises(TypeError):
                mutate(census)
        with pytest.raises(TypeError):
            census |= {"b": UnknownOrder(1)}
        assert dict(census) == before
        assert black_orders(lens_spine(5)) is census
        twin = copy.copy(census)
        assert type(twin) is type(census) and twin == census
        assert twin.oracle is census.oracle

    def test_shared_surgery_stays_frozen(self):
        q = q_graph(lens_spine(5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.white_holes = ("w",)
        assert q.orders is black_orders(lens_spine(5))
        assert q.presentation.relators[-1].syllables == (("b.b", 1),)

    def test_simplification_matches_a_fresh_one(self):
        g = synth(parse_expr("L(4) # S2xS1 # P2xS1"))
        clear_analysis()
        shared = analyze(g).oracle.simplified
        assert shared == simplify(natural_presentation(normalize(g)))

    def test_copies_and_pickles_round_trip(self):
        g = lens_spine(5)
        census = black_orders(g, 300)
        q = q_graph(g, 300)
        ab = q.abelianization  # read first, so the cached value is copied too
        for x in (g, census, q):
            for twin in (copy.copy(x), copy.deepcopy(x),
                         pickle.loads(pickle.dumps(x))):
                assert type(twin) is type(x) and twin == x
                if x is q:
                    assert twin.__dict__["abelianization"] == ab
                    assert twin.orders.oracle.simplified == census.oracle.simplified
