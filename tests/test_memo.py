"""The per-graph order oracle that successive calls on one graph share, and
the CLI's read of the latest graph text."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import pickle
import random
import weakref

import pytest

import stratifold.algebra
import stratifold.analysis
import stratifold.cli
from stratifold import (FSignature, OrderOracle, UnknownOrder, Word,
                        abelianization, black_orders, fgroup_graph,
                        lens_spine, natural_presentation, normalize,
                        obstructions, parse_expr, parse_graph, q_graph,
                        serialize_graph, serialize_presentation, simplify,
                        synth)
from stratifold.analysis import analyze
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
    analyze.cache_clear()
    stratifold.cli._read_graph.cache_clear()
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


@pytest.fixture
def simplify_calls(monkeypatch):
    """The presentations the order oracle simplifies, in call order."""
    calls = []
    real = stratifold.algebra.simplify

    def counting(pres, *args, **kwargs):
        calls.append(pres)
        return real(pres, *args, **kwargs)

    monkeypatch.setattr(stratifold.algebra, "simplify", counting)
    return calls


class TestSharing:
    def test_one_simplification_for_every_command(self, simplify_calls):
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1")))
        for argv in (["pi1", "--simplify"], ["h1"], ["order"], ["holes"], ["q"],
                     ["obstruct"], ["h1", "--json"]):
            run(argv, text)
        assert len(simplify_calls) == 1

    def test_plain_pi1_simplifies_nothing(self, simplify_calls):
        code, _ = run(["pi1"], serialize_graph(synth(parse_expr("L(5) # S2xS1"))))
        assert code == 0
        assert simplify_calls == []

    def test_reshuffled_text_reuses_the_analysis(self):
        text = serialize_graph(synth(parse_expr("L(7) # S2xS1 # P2xS1")))
        lines = text.splitlines()
        random.Random(5).shuffle(lines)
        # parse_graph takes the lines in any order: some edges come before
        # one of their endpoints
        declared, early = set(), 0
        for line in lines:
            kind, ident, *rest = line.split()
            if kind == "edge":
                early += not {rest[0], rest[1]} <= declared
            else:
                declared.add(ident)
        assert early >= 1
        g1, g2 = parse_graph(text), parse_graph("\n".join(lines) + "\n")
        assert g1 is not g2
        census = black_orders(g1, 500)
        assert analyze(g2) is analyze(g1)
        assert black_orders(g2, 500) == census

    def test_another_budget_builds_another_census(self):
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        small = black_orders(g, 50)
        assert all(v == UnknownOrder(50) for v in small.values())
        oracle = analyze(g)
        assert oracle._slot[0] == 50
        large = black_orders(g, 80)
        assert large != small
        assert all(v == UnknownOrder(80) for v in large.values())
        assert black_orders(g, 80) == large
        # one oracle, so one simplification and Smith form, serves every
        # budget; it keeps only the latest budget's verdicts and coset table
        assert analyze(g) is oracle
        assert oracle._slot[0] == 80

    def test_budgets_share_the_simplification_and_smith_form(self, monkeypatch):
        calls = {"simplify": 0, "smith_normal_form": 0}
        for name in calls:
            real = getattr(stratifold.algebra, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(stratifold.algebra, name, counting)
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1")))
        for argv in (["h1"], ["order", "--budget", "10000"],
                     ["obstruct", "--budget", "10000"]):
            run(argv, text)
        # one SNF for H1 and the census, one for H1 of the torsion quotient
        assert calls == {"simplify": 1, "smith_normal_form": 2}

    def test_obstruct_reuses_the_verdicts_of_order(self, monkeypatch):
        calls = []
        real = stratifold.algebra._power_relator_bound

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(stratifold.algebra, "_power_relator_bound", counting)
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1 # L(3)")))
        run(["order", "--budget", "300"], text)
        after_order = len(calls)
        assert after_order > 0
        run(["obstruct", "--budget", "300"], text)
        assert len(calls) <= after_order

    def test_other_graph_releases_the_analysis(self):
        a, b = lens_spine(5), synth(parse_expr("L(3) # S2xS1"))
        q = q_graph(a, 300)
        assert obstructions(a, 300) == ()
        # a census is a plain dict, which cannot be weak-referenced
        refs = [weakref.ref(x) for x in (analyze(a), q)]
        del q
        black_orders(b, 300)
        gc.collect()
        assert [r() for r in refs] == [None] * 2

    def test_new_budget_releases_the_old_census(self):
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        black_orders(g, 60)
        old = weakref.ref(analyze(g)._slot[2][0])
        black_orders(g, 70)
        gc.collect()
        assert old() is None

    def test_budget_replaced_during_the_lookup(self):
        # a question at another budget replaces the oracle's budget slot
        # while this one looks its word up; this one still answers under
        # its own budget, not with the other budget's coset table
        oracle = OrderOracle(natural_presentation(fgroup_graph(FSignature(0, (2, 3, 5)))))
        b1, b2 = Word((("b.b1", 1),)), Word((("b.b2", 1),))

        class Meddling(Word):
            armed = True

            def __hash__(self):
                if Meddling.armed:
                    Meddling.armed = False
                    oracle.order(b2, 2000)
                return Word.__hash__(self)

        fresh = OrderOracle(oracle.pres).order(b1, 50)
        assert fresh == UnknownOrder(50)
        assert oracle.order(Meddling(b1.syllables), 50) == fresh
        assert not Meddling.armed
        assert oracle.order(b2, 2000).certificate == "coset enumeration closed with 60 cosets"

    def test_slot_replaced_during_the_check(self, monkeypatch):
        # another caller asks about another graph while this call builds
        # its oracle; this call still returns the oracle of its own graph
        other = lens_spine(5)
        present = stratifold.analysis.natural_presentation
        calls = []

        def meddling(graph):
            calls.append(graph)
            if len(calls) == 1:
                assert abelianization(analyze(other)).torsion == (5,)
            return present(graph)

        monkeypatch.setattr(stratifold.analysis, "natural_presentation", meddling)
        g = lens_spine(3)
        mine = analyze(g)
        assert calls == [g, other]
        assert abelianization(mine).torsion == (3,)
        assert analyze(g) is mine

    def test_copies_hit_the_kept_oracle(self):
        g = lens_spine(5)
        kept = analyze(g)
        for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g)):
            assert twin is not g
            assert hash(twin) == hash(g) and twin == g
            hits = analyze.cache_info().hits
            assert analyze(twin) is kept
            assert analyze.cache_info().hits == hits + 1


@pytest.fixture
def reads(monkeypatch):
    """How often the CLI parses and validates a graph text."""
    calls = {"parse_graph": 0, "validate": 0}
    for name in calls:
        real = getattr(stratifold.cli, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(stratifold.cli, name, counting)
    return calls


SPINE_COMMANDS = (["euler"], ["recognize"], ["pi1", "--simplify"], ["h1"],
                  ["order", "--budget", BUDGET], ["obstruct", "--budget", BUDGET])


class TestReadSlot:
    def test_one_read_for_the_commands_on_a_spine(self, reads):
        code, text = run(["synth", "--expr", "L(5) # P2xS1 # S2~xS1 # L(3)"])
        assert code == 0
        assert reads == {"parse_graph": 0, "validate": 0}
        for argv in SPINE_COMMANDS:
            assert run(argv, text)[0] == 0
        assert reads == {"parse_graph": 1, "validate": 1}

    def test_one_comment_byte_is_another_text(self, reads):
        text = serialize_graph(lens_spine(5))
        a, b = "# a\n" + text, "# b\n" + text
        for stdin in (a, a, b, b, a):
            code, out = run(["h1"], stdin)
            assert (code, out) == (0, "H1 = Z/5\n")
        assert reads == {"parse_graph": 3, "validate": 3}
        digests = {json.loads(run(["h1", "--json"], t)[1])["input_digest"]
                   for t in (a, b)}
        assert len(digests) == 2

    def test_invalid_text_reports_every_time(self, reads):
        valid = serialize_graph(synth(parse_expr("L(3) # S2xS1")))
        # a branch circle met by one sheet, and a label 0
        invalid = ("white w genus 0\nblack b\nblack c\n"
                   "edge e w b 1\nedge f w c 0\n")
        # a text that does not parse leaves the kept text as it was
        broken = "white w 0\n"
        sequence = [(argv, valid) for argv in (["order"], ["validate"])]
        sequence += [(argv + json_flag, invalid)
                     for argv in (["validate"], ["order"], ["h1"], ["obstruct"])
                     for json_flag in ([], ["--json"])]
        sequence += [(["h1"], broken), (["validate"], broken),
                     (["order"], invalid), (["validate", "--json"], invalid)]
        sequence += [(argv, valid) for argv in (["order"], ["validate"], ["h1"])]
        want = [cold(argv, stdin) for argv, stdin in sequence]
        analyze.cache_clear()
        stratifold.cli._read_graph.cache_clear()
        reads.update(parse_graph=0, validate=0)
        assert [run(argv, stdin) for argv, stdin in sequence] == want
        assert reads == {"parse_graph": 5, "validate": 3}
        violations = want[2:10] + want[12:14]
        assert {code for code, _ in violations} == {1}
        assert all("BranchTooSmall" in out and "ZeroLabel" in out
                   for _, out in violations)
        assert all("ParseError" in out for _, out in want[10:12])
        assert want[-1] == (0, "H1 = Z + Z/3\n")


class TestImmutable:
    def test_each_caller_owns_its_census(self):
        census = black_orders(lens_spine(5))
        before = dict(census)
        census["b"] = UnknownOrder(1)
        census["x"] = UnknownOrder(1)
        assert black_orders(lens_spine(5)) == before
        assert q_graph(lens_spine(5)).deleted_blacks == ("b",)

    def test_shared_surgery_stays_frozen(self):
        q = q_graph(lens_spine(5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.white_holes = ("w",)
        assert q.white_holes == ()
        assert q.presentation.relators[-1].syllables == (("b.b", 1),)

    def test_simplification_matches_a_fresh_one(self):
        g = synth(parse_expr("L(4) # S2xS1 # P2xS1"))
        shared = analyze(g).simplified
        assert shared == simplify(natural_presentation(normalize(g)))

    def test_copies_and_pickles_round_trip(self):
        g = lens_spine(5)
        census = black_orders(g, 300)
        q = q_graph(g, 300)
        for x in (g, census, q):
            for twin in (copy.copy(x), copy.deepcopy(x),
                         pickle.loads(pickle.dumps(x))):
                assert type(twin) is type(x) and twin == x
                if x is q:
                    assert twin.abelianization == q.abelianization
                    assert twin.deleted_blacks == ("b",)
