"""The per-graph order oracle and order census that successive calls on one
graph share, and the CLI's read of the latest graph text."""

import contextlib
import copy
import dataclasses
import gc
import io
import json
import pickle
import random
import weakref
from itertools import combinations_with_replacement

import pytest

import stratifold.algebra
import stratifold.analysis
import stratifold.cli
from helpers import SPINE_KINDS, random_valid_graph, reference_invariants
from stratifold import (AbelianInvariants, FiniteOrder, FSignature,
                        InfiniteOrder, ManifoldExpr, OrderOracle,
                        UnknownOrder, Word,
                        abelianization, black_orders, fgroup_graph,
                        lens_spine, natural_presentation, normalize,
                        obstructions, parse_expr, parse_graph,
                        parse_presentation, q_graph, relation_matrix,
                        serialize_graph, serialize_presentation, simplify,
                        synth)
from stratifold.analysis import _fold, analyze
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
def reductions(monkeypatch):
    """The relator tuples the order oracle reduces, in call order."""
    calls = []
    real = stratifold.algebra._power_index

    def counting(relators):
        calls.append(relators)
        return real(relators)

    monkeypatch.setattr(stratifold.algebra, "_power_index", counting)
    return calls


class TestSharing:
    def test_one_simplification_for_every_command(self, reductions):
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1")))
        for argv in (["pi1", "--simplify"], ["h1"], ["order"], ["holes"], ["q"],
                     ["obstruct"], ["h1", "--json"]):
            run(argv, text)
        assert len(reductions) == 1

    def test_plain_pi1_simplifies_nothing(self, reductions):
        code, _ = run(["pi1"], serialize_graph(synth(parse_expr("L(5) # S2xS1"))))
        assert code == 0
        assert reductions == []

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
        census = black_orders(g1)
        assert analyze(g2) is analyze(g1)
        assert _fold(g2) is _fold(g1)
        assert black_orders(g2) == census

    def test_budget_changes_no_census(self):
        # a bare presentation's oracle abstains under either budget; the
        # census of the graph has no budget, and each call returns a copy
        # of the one fold kept for the graph
        g = fgroup_graph(FSignature(0, (2, 3, 7)))
        oracle = OrderOracle(natural_presentation(g))
        for budget in (50, 80):
            assert oracle.order(Word((("b.b3", 1),)), budget) == UnknownOrder(budget)
        census = black_orders(g)
        assert {b: v.order for b, v in census.items()} == {"b1": 2, "b2": 3, "b3": 7}
        again = black_orders(g)
        assert again == census and again is not census
        assert _fold.cache_info().misses == 1
        reports = [run(["order", "--json", "--budget", budget], serialize_graph(g))
                   for budget in ("50", "80")]
        assert reports[0] == reports[1]
        assert _fold.cache_info().misses == 1

    def test_budgets_share_the_simplification_and_smith_form(self, monkeypatch):
        calls = {"_power_index": 0, "smith_normal_form": 0}
        for name in calls:
            real = getattr(stratifold.algebra, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            # the analysis layer diagonalizes the graph's own matrix
            for module in (stratifold.algebra, stratifold.analysis):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1")))
        for argv in (["h1"], ["order", "--budget", "10000"],
                     ["obstruct", "--budget", "10000"]):
            run(argv, text)
        # one SNF for H1, one for H1 of the torsion quotient; the census
        # needs none
        assert calls == {"_power_index": 1, "smith_normal_form": 2}

    def test_one_oracle_reads_the_reduced_relators_once(self, monkeypatch):
        # a question adds its image to the kept relation matrix of
        # ``reduced`` as one more row, so the relators are read once
        read = []
        real = stratifold.algebra.relation_matrix
        monkeypatch.setattr(stratifold.algebra, "relation_matrix",
                            lambda pres: read.append(pres) or real(pres))
        g = synth(parse_expr("L(3) # S2xS1 # P2xS1 # S2~xS1 # L(3) # S2xS1"))
        oracle = OrderOracle(natural_presentation(g))
        verdicts = {b.id: oracle.order(Word(((f"b.{b.id}", 1),)), 100) for b in g.blacks}
        assert read == [oracle.reduced]
        census = black_orders(g)
        decided = {b: v for b, v in verdicts.items() if not isinstance(v, UnknownOrder)}
        assert decided and len(verdicts) == len(g.blacks)
        assert {b: getattr(v, "order", 0) for b, v in decided.items()} == \
            {b: getattr(census[b], "order", 0) for b in decided}

    def test_h1_builds_no_column_matrix(self, monkeypatch):
        # h1 reads the Smith invariants alone, and OrderOracle.order reads
        # an image's order off the Smith invariants of a quotient: the
        # column matrix V is the tests' reference route only
        spines = [synth(ManifoldExpr(kinds)) for k in (1, 2, 3)
                  for kinds in combinations_with_replacement(SPINE_KINDS, k)]
        rng = random.Random(31)
        graphs = spines + [random_valid_graph(rng) for _ in range(500)]
        texts = [serialize_graph(g) for g in graphs]
        argvs = (["h1", "--json"], ["pi1", "--simplify", "--json"], ["obstruct", "--json"])
        want = [cold(argv, text) for text in texts for argv in argvs]

        def refuse(*args, **kwargs):
            raise AssertionError("the column matrix V was built")

        monkeypatch.setattr(stratifold.algebra, "_column_matrix", refuse)
        got = [cold(argv, text) for text in texts for argv in argvs]
        assert got == want
        assert {code for code, _ in got} == {0, 3}
        for g, (code, out) in zip(graphs, got[::len(argvs)]):
            ref = reference_invariants(relation_matrix(natural_presentation(g)))
            assert code == 0 and json.loads(out)["payload"] == \
                {"free_rank": ref.free_rank, "torsion": list(ref.torsion)}
        kinds = set()
        for g in graphs:
            oracle = OrderOracle(natural_presentation(g))
            for b in g.blacks:
                kinds.add(type(oracle.order(Word(((f"b.{b.id}", 1),)), 100)))
        assert kinds == {FiniteOrder, InfiniteOrder, UnknownOrder}

    def test_order_on_a_bare_presentation_reads_quotient_invariants(self):
        oracle = OrderOracle(parse_presentation("gen a black\ngen b black\nrel a^2\n"))
        assert oracle.order(Word((("b", 3),))) == InfiniteOrder(
            "abelianized image is infinite: killing it drops the free rank of H1 from 1 to 0")
        assert oracle.order(Word((("a", 1),)), 50).order == 2
        assert abelianization(oracle) == AbelianInvariants(1, (2,))

    def test_order_on_edge_presentations(self):
        free = OrderOracle(parse_presentation("gen a black\ngen b black\n"))
        assert free.order(Word((("a", 1), ("b", -2))), 50) == InfiniteOrder(
            "abelianized image is infinite: killing it drops the free rank of H1 from 2 to 1")
        assert abelianization(free) == AbelianInvariants(2, ())
        # every generator is trivial, so the image is the empty word
        trivial = OrderOracle(parse_presentation(
            "gen a black\ngen b black\nrel a\nrel a b^2 a^-1 b^-1\n"))
        assert trivial.order(Word((("a", 3), ("b", 1))), 50) == \
            FiniteOrder(1, "word reduces to the identity under Tietze moves")
        assert abelianization(trivial) == AbelianInvariants(0, ())
        # a commutator has order 1 in a free abelian H1 and no power bound,
        # and an infinite group has no coset table to close: abstention
        commutator = Word((("a", 1), ("b", 1), ("a", -1), ("b", -1)))
        for text in ("gen a black\ngen b black\n",
                     "gen a black\ngen b black\nrel a b a^-1 b^-1\n"):
            assert OrderOracle(parse_presentation(text)).order(commutator, 50) == \
                UnknownOrder(50)

    def test_obstruct_reuses_the_verdicts_of_order(self):
        text = serialize_graph(synth(parse_expr("L(5) # P2xS1 # S2~xS1 # L(3)")))
        run(["order", "--budget", "300"], text)
        assert _fold.cache_info().misses == 1
        run(["obstruct", "--budget", "300"], text)
        assert _fold.cache_info().misses == 1
        assert _fold.cache_info().hits >= 1
        # neither builds a presentation or an oracle
        assert analyze.cache_info().currsize == 0

    def test_other_graph_releases_the_analysis(self):
        a, b = lens_spine(5), synth(parse_expr("L(3) # S2xS1"))
        q = q_graph(a)
        assert obstructions(a) == ()
        # a census is a plain dict, which cannot be weak-referenced, but
        # the verdicts the kept fold holds can
        refs = [weakref.ref(x) for x in (analyze(a), q, black_orders(a)["b"])]
        del q
        q_graph(b)
        gc.collect()
        assert [r() for r in refs] == [None] * 3

    def test_oracle_keeps_no_coset_table(self, monkeypatch):
        # each question enumerates its own table and keeps nothing of it
        tables = []
        real = stratifold.algebra.todd_coxeter

        def keeping(*args, **kwargs):
            table = real(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(stratifold.algebra, "todd_coxeter", keeping)
        oracle = OrderOracle(natural_presentation(fgroup_graph(FSignature(0, (2, 3, 5)))))
        b1 = Word((("b.b1", 1),))
        assert oracle.order(b1, 50) == UnknownOrder(50)
        assert oracle.order(b1, 2000).certificate == "coset enumeration closed with 60 cosets"
        gc.collect()
        assert len(tables) == 2
        assert [r() for r in tables] == [None, None]

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
        pres = natural_presentation(normalize(g))
        shared = analyze(g).reduced
        assert shared == OrderOracle(pres).reduced == simplify(pres).presentation
        assert len(shared.generators) < len(pres.generators)

    def test_copies_and_pickles_round_trip(self):
        g = lens_spine(5)
        census = black_orders(g)
        q = q_graph(g)
        for x in (g, census, q):
            for twin in (copy.copy(x), copy.deepcopy(x),
                         pickle.loads(pickle.dumps(x))):
                assert type(twin) is type(x) and twin == x
                if x is q:
                    assert twin.abelianization == q.abelianization
                    assert twin.deleted_blacks == ("b",)
