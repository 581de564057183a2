"""Text formats and the command line interface."""

import ast
import collections
import contextlib
import hashlib
import importlib.resources
import io
import json
import pathlib
import random
import re
import shlex
import sys
import time

import jsonschema
import pytest

import stratifold
from helpers import abstaining_graph, random_valid_graph
from stratifold import (FSignature, ParseError, Summand, Word, fgroup_graph,
                        fgroup_presentation, format_expr, format_word,
                        lens_spine, natural_presentation, normalize,
                        parse_expr, parse_graph, parse_presentation,
                        parse_word, serialize_graph, serialize_presentation,
                        synth, validate)
from stratifold.cli import (_COMMANDS, COMMANDS, _build_parser, _parse_args,
                           _to_json, exit_code, main)

LENS5 = "white w genus 0\nblack b\nedge e w b 5\n"

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_reports.json"

SCHEMA = json.loads(importlib.resources.files("stratifold")
                    .joinpath("report_schema.json").read_text())


def run(argv, stdin_text=""):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv, stdin=io.StringIO(stdin_text))
    return code, buf.getvalue()


def run_json(argv, stdin_text=""):
    code, out = run(argv + ["--json"], stdin_text)
    report = json.loads(out)
    jsonschema.validate(instance=report, schema=SCHEMA)
    assert exit_code(report) == code
    return code, report


class TestGraphFormat:
    def test_parse_lens(self):
        assert parse_graph(LENS5) == lens_spine(5)

    def test_comments_and_blank_lines(self):
        text = "# spine of a lens space\n\nwhite w genus 0 # disk\n" \
               "black b\n\nedge e w b 5\n"
        assert parse_graph(text) == lens_spine(5)

    def test_dangling_endpoint_cites_edge_line(self):
        with pytest.raises(ParseError, match="line 1.*dangling white endpoint"):
            parse_graph("edge e w b 5")
        with pytest.raises(ParseError, match="dangling black endpoint"):
            parse_graph("white w genus 0\nedge e w b 5")

    def test_duplicate_cites_first_line(self):
        with pytest.raises(ParseError,
                           match="line 2: duplicate white id 'w' .*line 1"):
            parse_graph("white w genus 0\nwhite w genus 1")

    def test_bad_integers(self):
        with pytest.raises(ParseError, match="genus must be an integer"):
            parse_graph("white w genus zero")
        with pytest.raises(ParseError, match="label must be an integer"):
            parse_graph("white w genus 0\nblack b\nedge e w b five")

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive 'wibble'"):
            parse_graph("wibble w")

    def test_arity_errors(self):
        with pytest.raises(ParseError, match="expected 'white"):
            parse_graph("white w")
        with pytest.raises(ParseError, match="line 2: expected 'black <id>'"):
            parse_graph("white w genus 0\nblack b c")
        with pytest.raises(ParseError, match="expected 'edge"):
            parse_graph("white w genus 0\nblack b\nedge e w b 5 9")

    def test_zero_label_parses_but_fails_validation(self):
        g = parse_graph("white w genus 0\nblack b\nedge e w b 0")
        assert "ZeroLabel" in {v.rule for v in validate(g)}

    def test_serializer_sorts_sections(self):
        text = serialize_graph(synth(parse_expr("L(3) # S2xS1")))
        kinds = [line.split()[0] for line in text.strip().split("\n")]
        assert kinds == sorted(kinds)
        assert kinds[0] == "black"
        assert kinds[-1] == "white"

    def test_round_trip(self):
        rng = random.Random(700)
        for _ in range(100):
            g = random_valid_graph(rng)
            assert parse_graph(serialize_graph(g)) == g

    def test_reshuffled_text_is_one_set_element(self):
        text = serialize_graph(synth(parse_expr("L(3) # S2xS1")))
        lines = text.splitlines()
        random.Random(6).shuffle(lines)
        shuffled = "\n".join(lines)
        assert shuffled != text.rstrip("\n")
        g, h = parse_graph(text), parse_graph(shuffled)
        assert g is not h and hash(g) == hash(h)
        assert len({g, h}) == 1

    def test_unserializable_id_rejected(self):
        from stratifold import BlackVertex, Edge, StratifoldGraph, WhiteVertex
        g = StratifoldGraph([WhiteVertex("w w", 0)], [BlackVertex("b")],
                            [Edge("e", "w w", "b", 3)])
        with pytest.raises(ParseError):
            serialize_graph(g)



def parse_error(text):
    """The full message of the ParseError that reading ``text`` raises."""
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    return str(info.value)


class TestGraphReaderMessages:
    """The graph reader's messages, pinned in full."""

    def test_duplicate_id_of_each_kind_cites_its_first_line(self):
        assert parse_error("white w genus 0\nblack b\nwhite w genus 1\n") == \
            "line 3: duplicate white id 'w' (first declared on line 1)"
        assert parse_error("black b\n\n# again\nblack b\n") == \
            "line 4: duplicate black id 'b' (first declared on line 1)"
        assert parse_error("white w genus 0\nblack b\nedge e w b 2\n"
                           "edge e w b 3\n") == \
            "line 4: duplicate edge id 'e' (first declared on line 3)"
        # the id is checked before the genus is read
        assert parse_error("white w genus 0\nwhite w genus x\n") == \
            "line 2: duplicate white id 'w' (first declared on line 1)"

    def test_ids_of_different_kinds_may_coincide(self):
        g = parse_graph("white x genus 0\nblack x\nedge x x x 3\n")
        assert [v.id for v in g.whites] == [v.id for v in g.blacks] == ["x"]
        assert g.edge("x").white == g.edge("x").black == "x"

    def test_dangling_endpoints_cite_the_edge_line(self):
        assert parse_error("black b\nedge e w b 5\n") == \
            "line 2: edge 'e' has a dangling white endpoint 'w'"
        assert parse_error("edge e w b 5\nwhite w genus 0\n") == \
            "line 1: edge 'e' has a dangling black endpoint 'b'"
        # the edges are resolved in line order, white endpoint first
        assert parse_error("edge f w c 2\nedge e v b 5\n") == \
            "line 1: edge 'f' has a dangling white endpoint 'w'"

    @pytest.mark.parametrize("token", ["1_0", "x", "", "+", "-", "--3", "+-1", "2.0", "\u00b2"])
    def test_integers_are_signed_decimals(self, token):
        if token:
            assert parse_error(f"white w genus {token}\n") == \
                f"line 1: genus must be an integer, got {token!r}"
            assert parse_error(f"white w genus 0\nblack b\nedge e w b {token}\n") == \
                f"line 3: label must be an integer, got {token!r}"
        else:
            assert parse_error("white w genus\n") == \
                "line 1: expected 'white <id> genus <int>'"
            assert parse_error("white w genus 0\nblack b\nedge e w b\n") == \
                "line 3: expected 'edge <id> <white-id> <black-id> <label>'"

    def test_signs_are_accepted(self):
        g = parse_graph("white w genus +3\nblack b\nedge e w b +3\n")
        assert g.white("w").genus == 3 and g.edge("e").label == 3
        g = parse_graph("white w genus -2\nblack b\nedge e w b -5\n")
        assert g.white("w").genus == -2 and g.edge("e").label == -5

    def test_line_ends_tabs_and_comments(self):
        assert parse_graph("white w genus 0\r\nblack b\r\nedge e w b 5\r\n") == \
            lens_spine(5)
        assert parse_graph("\twhite\tw genus\t0\nblack  b \nedge e\tw b 5") == \
            lens_spine(5)
        assert parse_graph("# a lens space\n   # indented\n#\nwhite w genus 0#disk\n"
                           "black b#\nedge e w b 5# label\n") == lens_spine(5)
        assert parse_error("white w genus 0\r\nblack b c\r\n") == \
            "line 2: expected 'black <id>'"
        assert parse_error("# head\nwhite w#genus 0\n") == \
            "line 2: expected 'white <id> genus <int>'"
        assert parse_error("white w genus 0\n\tfoo # bar\n") == \
            "line 2: unknown directive 'foo'"


class TestWordFormat:
    def test_parse_and_format(self):
        w = parse_word("a^2 b^-1 c")
        assert w.syllables == (("a", 2), ("b", -1), ("c", 1))
        assert format_word(w) == "a^2 b^-1 c"

    def test_empty_word(self):
        assert parse_word("").is_empty
        assert format_word(Word()) == ""

    def test_zero_exponent_reduces_away(self):
        assert parse_word("a^0").is_empty

    def test_parse_reduces(self):
        assert format_word(parse_word("a a^-1 b")) == "b"

    def test_bad_syllables(self):
        for text in ("a^", "a^x", "a^1.5"):
            with pytest.raises(ParseError, match="bad word syllable"):
                parse_word(text)

    def test_caret_in_a_name_is_not_formatted(self):
        with pytest.raises(ParseError, match="'a\\^2' is not representable"):
            format_word(Word((("a^2", 1),)))

    def test_round_trip_random(self):
        rng = random.Random(701)
        names = ["a", "b.x", "y.w0.2", "t"]
        for _ in range(50):
            w = Word(tuple((rng.choice(names), rng.choice((-3, -1, 1, 2)))
                           for _ in range(rng.randint(0, 6))))
            assert parse_word(format_word(w)) == w


class TestPresentationFormat:
    def test_round_trip_natural(self):
        rng = random.Random(702)
        for _ in range(40):
            p = natural_presentation(normalize(random_valid_graph(rng)))
            assert parse_presentation(serialize_presentation(p)) == p

    def test_empty_relator_line(self):
        # the sphere member has the empty word as its product relator
        p = fgroup_presentation(FSignature(0, ()))
        text = serialize_presentation(p)
        assert "rel\n" in text or text.endswith("rel")
        assert parse_presentation(text) == p

    def test_undeclared_generator_rejected(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_presentation("gen a black\nrel a z")

    def test_arity_errors(self):
        for text in ("gen a", "gen a black extra"):
            with pytest.raises(ParseError, match="line 1: expected 'gen <name> <role>'"):
                parse_presentation(text)

    def test_bad_syllable_cites_its_line(self):
        with pytest.raises(ParseError, match="line 2: bad word syllable 'a\\^x'"):
            parse_presentation("gen a black\nrel a^x")

    def test_bad_role_rejected(self):
        with pytest.raises(ParseError, match="role"):
            parse_presentation("gen a purple\nrel a")

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("gen a black\ngen a black")

    def test_interleaved_lines_tolerated(self):
        p = parse_presentation("gen a black\nrel a^2\ngen b boundary\nrel b a")
        assert p.generator_names() == ("a", "b")
        assert [format_word(r) for r in p.relators] == ["a^2", "b a"]


class TestExprFormat:
    def test_single(self):
        e = parse_expr("L(5)")
        assert e.summands == (Summand("lens", 5),)
        assert format_expr(e) == "L(5)"

    def test_multiset_sorted(self):
        e = parse_expr("S2xS1 # L(3) # L(3)")
        assert format_expr(e) == "L(3) # L(3) # S2xS1"

    def test_all_names(self):
        assert parse_expr("S2~xS1").summands == (Summand("s2~xs1"),)
        assert parse_expr("P2xS1").summands == (Summand("p2xs1"),)
        assert parse_expr("S3").summands == (Summand("s3"),)

    def test_errors(self):
        from stratifold import DomainError
        with pytest.raises(DomainError):
            parse_expr("L(1)")
        with pytest.raises(ParseError, match="empty manifold expression"):
            parse_expr("   ")
        with pytest.raises(ParseError, match="empty summand"):
            parse_expr("L(3) # # S3")
        with pytest.raises(ParseError, match="unknown summand"):
            parse_expr("Lens(3)")


class TestCliHappyPaths:
    def test_validate_ok(self):
        code, out = run(["validate"], LENS5)
        assert code == 0
        assert out == "ok: 1 white, 1 black, 1 edge(s)\n"

    def test_validate_json(self):
        code, report = run_json(["validate"], LENS5)
        assert code == 0
        assert report["payload"] == {"whites": 1, "blacks": 1, "edges": 1}
        assert report["violations"] == []
        want = hashlib.sha256(LENS5.encode()).hexdigest()
        assert report["input_digest"] == want

    def test_validate_branch_violation(self):
        bad = "white w genus 0\nblack b\nedge e w b 2\n"
        code, report = run_json(["validate"], bad)
        assert code == 1
        assert [v["rule"] for v in report["violations"]] == ["BranchTooSmall"]

    def test_pi1_prints_presentation_text(self):
        code, out = run(["pi1"], LENS5)
        assert code == 0
        assert out == "gen b.b black\nrel b.b^5\n"

    def test_pi1_simplify(self):
        code, report = run_json(["pi1", "--simplify"], LENS5)
        assert code == 0
        p = report["payload"]
        assert p["simplified"] is True
        assert p["eliminations"] == 0
        assert p["exhausted"] is False
        assert p["presentation"]["relators"] == ["b.b^5"]

    def test_pi1_pipes_into_tc(self):
        _, pres_text = run(["pi1"], LENS5)
        code, report = run_json(["tc"], pres_text)
        assert code == 0
        assert report["payload"] == {"closed": True, "cosets": 5,
                                     "defined": None, "budget": 100000}

    def test_h1(self):
        code, out = run(["h1"], LENS5)
        assert (code, out) == (0, "H1 = Z/5\n")
        _, report = run_json(["h1"], LENS5)
        assert report["payload"] == {"free_rank": 0, "torsion": [5]}

    def test_euler(self):
        code, out = run(["euler"], LENS5)
        assert (code, out) == (0, "euler characteristic: 1\n")

    def test_order(self):
        code, report = run_json(["order"], LENS5)
        assert code == 0
        orders = report["payload"]["orders"]
        assert orders["b"]["kind"] == "finite"
        assert orders["b"]["order"] == 5

    def test_fclass(self):
        text = serialize_graph(fgroup_graph(FSignature(0, (2, 2, 3))))
        code, report = run_json(["fclass"], text)
        assert code == 0
        p = report["payload"]
        assert (p["genus"], p["periods"]) == (0, [2, 2, 3])
        assert (p["kind"], p["order"], p["name"]) == ("finite-noncyclic", 6,
                                                      "dihedral(3)")
        code, out = run(["fclass"], text)
        assert "dihedral(3) of order 6" in out

    def test_holes(self):
        text = serialize_graph(fgroup_graph(FSignature(-1, (3,))))
        code, report = run_json(["holes"], text)
        assert code == 0
        assert report["payload"]["white_holes"] == ["w0"]
        code, out = run(["holes"], text)
        assert out == "white holes: w0\n"

    def test_q(self):
        code, report = run_json(["q"], LENS5)
        assert code == 0
        p = report["payload"]
        assert p["deleted_blacks"] == ["b"]
        assert p["white_holes"] == []
        assert len(p["components"]) == 1
        assert p["components"][0]["capped"] == ["e"]
        assert p["components"][0]["closed_surface_genus"] == 0
        assert p["abelianization"] == {"free_rank": 0, "torsion": []}

    def test_obstruct_clean(self):
        code, report = run_json(["obstruct"], LENS5)
        assert code == 0
        assert report["obstructions"] == []
        code, out = run(["obstruct"], LENS5)
        assert out == "no obstruction found\n"

    def test_synth_prints_graph_text(self):
        code, out = run(["synth", "--expr", "L(5)"])
        assert code == 0
        assert parse_graph(out) == lens_spine(5)

    def test_synth_pipes_into_h1(self):
        _, graph_text = run(["synth", "--expr", "L(5)"])
        code, out = run(["h1"], graph_text)
        assert (code, out) == (0, "H1 = Z/5\n")

    def test_synth_reads_stdin_without_flag(self):
        code, out = run(["synth"], "L(5)")
        assert code == 0
        assert parse_graph(out) == lens_spine(5)

    def test_recognize(self):
        _, graph_text = run(["synth", "--expr", "S2xS1 # L(3)"])
        code, report = run_json(["recognize"], graph_text)
        assert code == 0
        assert report["payload"] == {"canonical": True, "expr": "L(3) # S2xS1"}
        code, out = run(["recognize"], graph_text)
        assert out == "L(3) # S2xS1\n"

    def test_recognize_not_canonical_is_not_an_error(self):
        theta = ("white w genus 1\nblack b\nedge e1 w b 1\n"
                 "edge e2 w b 1\nedge e3 w b 1\n")
        code, report = run_json(["recognize"], theta)
        assert code == 0
        assert report["payload"] == {"canonical": False, "expr": None}
        code, out = run(["recognize"], theta)
        assert out == "not canonical\n"

    def test_delta(self, tmp_path):
        a = tmp_path / "a.graph"
        b = tmp_path / "b.graph"
        a.write_text(serialize_graph(lens_spine(3)))
        b.write_text(serialize_graph(lens_spine(4)))
        code, out = run(["delta", "--in", str(a), "--in2", str(b),
                         "--w1", "w", "--w2", "w"])
        assert code == 0
        d = parse_graph(out)
        assert {w.id for w in d.whites} == {"l.w", "r.w", "jd"}
        code, out2 = run(["recognize"], out)
        assert (code, out2) == (0, "L(3) # L(4)\n")
        code, report = run_json(["delta", "--in", str(a), "--in2", str(b),
                                 "--w1", "w", "--w2", "w"])
        assert (code, report["command"]) == (0, "delta")
        assert report["payload"] == {"graph": out}

    def test_tc_subgroup_free_enumeration(self):
        text = serialize_presentation(fgroup_presentation(FSignature(0, (2, 3, 5))))
        code, report = run_json(["tc"], text)
        assert code == 0
        assert report["payload"]["cosets"] == 60

    def test_file_input(self, tmp_path):
        path = tmp_path / "lens.graph"
        path.write_text(LENS5)
        code, out = run(["h1", "--in", str(path)])
        assert (code, out) == (0, "H1 = Z/5\n")

    def test_dash_reads_stdin(self):
        code, out = run(["h1", "--in", "-"], LENS5)
        assert (code, out) == (0, "H1 = Z/5\n")


class TestCliExitCodes:
    def test_violation_exits_one(self):
        code, report = run_json(["h1"], "white w genus 0\nblack b\nedge e w b 2\n")
        assert code == 1
        assert report["violations"]

    def test_parse_error_exits_one(self):
        code, report = run_json(["h1"], "wibble\n")
        assert code == 1
        assert [v["rule"] for v in report["violations"]] == ["ParseError"]

    def test_missing_file_reports_io_error(self):
        code, report = run_json(["h1", "--in", "/nonexistent/x.graph"])
        assert code == 1
        assert [v["rule"] for v in report["violations"]] == ["IOError"]

    # a file is decoded strictly; stdin may arrive with its undecodable
    # bytes escaped to lone surrogates, which only encoding rejects
    @pytest.mark.parametrize("argv, stdin_text", [
        (["h1", "--in", "@bad"], ""),
        (["delta", "--in", "@good", "--in2", "@bad", "--w1", "w", "--w2", "w"], ""),
        (["h1"], "white w genus 0\udcff\n"),
    ], ids=["in", "in2", "stdin"])
    def test_undecodable_input_reports_io_error(self, tmp_path, argv, stdin_text):
        (tmp_path / "bad").write_bytes(b"white w genus 0\xff\n")
        (tmp_path / "good").write_text(LENS5)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code, report = run_json(argv, stdin_text)
        assert code == 1
        assert [(v["rule"], v["detail"]) for v in report["violations"]] == \
            [("IOError", "input is not valid UTF-8")]

    def test_domain_error_from_expr(self):
        code, report = run_json(["synth", "--expr", "L(1)"])
        assert code == 1
        assert [v["rule"] for v in report["violations"]] == ["DomainError"]

    def test_no_spine_rule(self):
        code, report = run_json(["synth", "--expr", "S3"])
        assert code == 1
        assert [v["rule"] for v in report["violations"]] == ["NoSpine"]

    def test_indeterminate_exits_two(self):
        # only tc abstains; the graph commands accept a budget and decide
        # the graph whose presentation the order oracle abstains on
        code, report = run_json(["tc", "--budget", "10"], serialize_presentation(
            natural_presentation(abstaining_graph())))
        assert (code, report["indeterminate"]) == (2, True)
        text = serialize_graph(abstaining_graph())
        for argv, want in ((["order"], 0), (["holes"], 0), (["q"], 0),
                           (["obstruct"], 3)):
            code, report = run_json(argv + ["--budget", "10"], text)
            assert (code, report["indeterminate"]) == (want, False)
            assert "budget" not in report["payload"]

    def test_tc_exhaustion_exits_two(self):
        klein = "gen a black\ngen b black\nrel a^-1 b a b\n"
        code, report = run_json(["tc", "--budget", "8"], klein)
        assert code == 2
        p = report["payload"]
        assert p["closed"] is False
        assert p["cosets"] is None
        assert p["defined"] >= 8

    def test_obstruction_exits_three(self):
        text = serialize_graph(fgroup_graph(FSignature(0, (2, 3, 7))))
        code, report = run_json(["obstruct", "--budget", "300"], text)
        assert code == 3
        kinds = [o["kind"] for o in report["obstructions"]]
        assert kinds == ["InfiniteNonSurfaceFGroup"]
        code, out = run(["obstruct", "--budget", "300"], text)
        assert out.startswith("obstruction InfiniteNonSurfaceFGroup:")

    def test_fclass_outside_family_exits_one(self):
        from stratifold import s2xs1_spine
        code, report = run_json(["fclass"], serialize_graph(s2xs1_spine()))
        assert code == 1
        assert [v["rule"] for v in report["violations"]] == ["NotFGroupFamily"]

    def test_unknown_command_exits_one(self):
        code, _ = run(["frobnicate"])
        assert code == 1

    def test_bad_budget_exits_one(self):
        code, _ = run(["order", "--budget", "-5"], LENS5)
        assert code == 1

    def test_help_exits_zero(self):
        code, _ = run(["--help"])
        assert code == 0

    def test_delta_rejects_two_stdin_inputs(self, capsys):
        class Unread(io.StringIO):
            def read(self, *args):
                raise AssertionError("stdin was read")

        flags = ["--w1", "w", "--w2", "w"]
        for argv in (["delta", "--in", "-", "--in2", "-"], ["delta", "--in2", "-"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv + flags, stdin=Unread())
            assert (code, out.getvalue()) == (1, "")
            err = capsys.readouterr().err
            assert err.startswith("usage: stratifold delta")
            assert "--in and --in2 both read stdin" in err

    def test_delta_reads_one_input_from_stdin(self, tmp_path):
        b = tmp_path / "b.graph"
        b.write_text(serialize_graph(lens_spine(4)))
        stdin_first = ["delta", "--in2", str(b), "--w1", "w", "--w2", "w"]
        stdin_second = ["delta", "--in", str(b), "--in2", "-", "--w1", "w", "--w2", "w"]
        code, out = run(stdin_first, serialize_graph(lens_spine(3)))
        assert code == 0
        assert run(["recognize"], out) == (0, "L(3) # L(4)\n")
        code, out = run(stdin_second, serialize_graph(lens_spine(3)))
        assert code == 0
        assert run(["recognize"], out) == (0, "L(3) # L(4)\n")


class TestCliReports:
    ALL = [
        (["validate"], LENS5),
        (["pi1"], LENS5),
        (["pi1", "--simplify"], LENS5),
        (["h1"], LENS5),
        (["euler"], LENS5),
        (["order"], LENS5),
        (["fclass"], None),
        (["holes"], None),
        (["q"], LENS5),
        (["obstruct"], LENS5),
        (["synth", "--expr", "L(3) # P2xS1"], ""),
        (["recognize"], "REC"),
        (["tc"], "gen a black\nrel a^3\n"),
    ]

    def fixture_text(self, marker):
        if marker is None:
            return serialize_graph(fgroup_graph(FSignature(-1, (3,))))
        if marker == "REC":
            _, out = run(["synth", "--expr", "L(3) # P2xS1"])
            return out
        return marker

    def test_all_reports_validate_against_schema(self):
        for argv, marker in self.ALL:
            text = self.fixture_text(marker)
            code, report = run_json(argv, text)
            assert report["schema_version"] == "1"
            assert report["command"] == argv[0]

    def test_reports_are_deterministic(self):
        for argv, marker in self.ALL:
            text = self.fixture_text(marker)
            out1 = run(argv + ["--json"], text)
            out2 = run(argv + ["--json"], text)
            assert out1 == out2

    def test_digest_depends_on_input(self):
        _, r1 = run_json(["h1"], LENS5)
        _, r2 = run_json(["h1"], serialize_graph(lens_spine(7)))
        assert r1["input_digest"] != r2["input_digest"]

    def test_violation_reports_fit_schema_too(self):
        for argv, text in ((["validate"], "white w genus 0\nblack b\nedge e w b 0\n"),
                           (["h1"], "garbage\n"),
                           (["synth", "--expr", "S3"], "")):
            code, report = run_json(argv, text)
            assert code == 1
            assert report["violations"]

    def test_large_lens_label_order_is_closed_form(self):
        # the power relator b^(10^7) is compared in closed form, so the
        # order census costs nothing like the label
        _, spine = run(["synth", "--expr", "L(10000000)"])
        start = time.perf_counter()
        code, report = run_json(["order", "--budget", "10"], spine)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        verdict = report["payload"]["orders"]["b"]
        assert (verdict["kind"], verdict["order"]) == ("finite", 10**7)


class TestParserReuse:
    SEQUENCE = [
        (["h1"], LENS5),
        (["order", "--budget", "50"], LENS5),
        (["pi1", "--simplify"], LENS5),
        (["frobnicate"], ""),
        (["synth", "--expr", "L(3) # S2xS1"], ""),
        (["order", "--budget", "-5"], LENS5),
        (["validate"], "white w genus 0\nblack b\nedge e w b 0\n"),
        (["tc", "--budget", "20"], "gen a black\nrel a^3\n"),
        (["h1"], LENS5),
        (["pi1"], LENS5),
    ]

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_alternating_commands_match_fresh_calls(self):
        shared = [run(argv + ["--json"], text) for argv, text in self.SEQUENCE]
        fresh = []
        for argv, text in self.SEQUENCE:
            _build_parser.cache_clear()
            fresh.append(run(argv + ["--json"], text))
        assert shared == fresh
        assert [code for code, _ in shared] == [0, 0, 0, 1, 0, 1, 1, 0, 0, 0]


class TestDispatch:
    """An argv naming a command is parsed by that command's parser alone;
    every outcome must be the one the program's parser gives."""

    @staticmethod
    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                result = parse(list(argv))
            except SystemExit as exc:
                result = ("exit", exc.code)
        return result, out.getvalue(), err.getvalue()

    @staticmethod
    def cases(name):
        valid = [name]
        if name == "delta":
            valid += ["--in2", "g2", "--w1", "w", "--w2", "v"]
        return [
            valid,
            valid + ["--help"],
            valid + ["--budget", "0"],
            valid + ["--budget", "ten"],
            valid + ["--frobnicate"],
            valid + ["--js"],
            valid + ["--bud", "7"],
            valid + ["stray"],
            valid + ["stray", "--frobnicate", "x"],
            ["delta", "--in2", "g2", "--w1", "w"],
            ["--json", *valid],
            [],
            ["frobnicate", *valid[1:]],
        ]

    def test_every_outcome_matches_the_program_parser(self):
        parser = _build_parser()
        kinds = set()
        for name in COMMANDS:
            for argv in self.cases(name):
                got = self.outcome(_parse_args, argv)
                assert got == self.outcome(parser.parse_args, argv), argv
                kinds.add(got[0] if isinstance(got[0], tuple) else "namespace")
        assert kinds == {"namespace", ("exit", 0), ("exit", 1)}

    def test_command_argv_skips_the_program_parser(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the program's parser parsed a command line")

        monkeypatch.setattr(_build_parser(), "parse_known_args", refuse)
        for name in COMMANDS:
            args = _parse_args(self.cases(name)[0])
            assert (args.command, args.json) == (name, False)
        assert run(["h1", "--json"], LENS5)[0] == 0

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["stratifold", "h1", "--json"])
        assert main(stdin=io.StringIO(LENS5)) == 0
        assert capsys.readouterr().out == run(["h1", "--json"], LENS5)[1]
        monkeypatch.setattr(sys, "argv", ["stratifold", "order", "--budget", "0"])
        assert main(stdin=io.StringIO(LENS5)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --budget" in captured.err


class TestReportWriter:
    """The report writer gives exactly json.dumps(value, indent=2,
    sort_keys=True), or raises TypeError."""

    @staticmethod
    def dumps(value):
        return json.dumps(value, indent=2, sort_keys=True)

    def test_golden_reports(self):
        cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
        reports = [json.loads(c["stdout"]) for c in cases
                   if "--json" in c["argv"] and c["stdout"]]
        assert len(reports) > 100
        for report in reports:
            assert _to_json(report) == self.dumps(report)

    def test_hand_made_values(self):
        text = "caf\u00e9 \u4e2d \U0001f600 \ud800 \u2028 \x00\x01\x1f\x7f \"q\" \\ \n\t"
        values = ["", text, 0, 7, -7, 10**30, -(10**30), True, False, None,
                  {}, [], (), {"": {}}, [[]], [{}], {"a": []},
                  {"b": [1, [2, []], {}], "a": {"c": [{"d": None}]}},
                  [True, False, None, "x", -1],
                  {text: 1, "Z": 2, "a": 3, "\x00": 4, "\u00e9": [text]}]
        for value in values:
            assert _to_json(value) == self.dumps(value)
        assert _to_json((1, ("a", ()))) == self.dumps([1, ["a", []]])

    def test_other_types_raise(self):
        class Text(str):
            pass

        class Number(int):
            pass

        for value in (1.5, float("nan"), {"a": 0.0}, [1, 2.0], b"x", 1j,
                      {1: "a"}, {None: 1}, {("a",): 1}, {1, 2}, object(),
                      Text("a"), [Number(3)], collections.OrderedDict(a=1)):
            with pytest.raises(TypeError):
                _to_json(value)


class TestCommandTable:
    def readme_rows(self):
        rows = re.findall(r"^\| `([a-z0-9]+)` *\| *(.*?) *\|$",
                          README.read_text(encoding="utf-8"), re.MULTILINE)
        return [name for name, _ in rows], {name: text for name, text in rows}

    def test_registry_schema_and_readme_agree(self):
        names, helps = self.readme_rows()
        assert len(COMMANDS) == 13
        assert list(COMMANDS) == SCHEMA["properties"]["command"]["enum"] == names
        assert {name: c.help for name, c in _COMMANDS.items()} == helps

    def test_every_command_has_help(self):
        # compared without whitespace: argparse wraps to the terminal width,
        # and its layout differs between Python versions
        def squash(text):
            return "".join(text.split())
        code, top = run(["--help"])
        assert code == 0
        for name, command in _COMMANDS.items():
            assert squash(f"{name} {command.help}") in squash(top)
            code, out = run([name, "--help"])
            assert code == 0
            assert squash(out).startswith(squash(f"usage: stratifold {name} ["))
            assert squash(command.help) in squash(out)
            assert "--json" in out


class TestPublicSurface:
    def test_star_import_exports_exactly_the_imported_names(self):
        init = pathlib.Path(stratifold.__file__)
        imported = {alias.asname or alias.name
                    for node in ast.parse(init.read_text(encoding="utf-8")).body
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert len(stratifold.__all__) == len(set(stratifold.__all__))
        assert set(stratifold.__all__) == imported
        namespace = {}
        exec("from stratifold import *", namespace)
        assert imported <= set(namespace)

    def test_readme_library_names_exist(self):
        # every name the README's library list cites in parentheses, such
        # as (`synth`, `recognize`, `delta_sum`), is exported or a command
        section = re.search(r"^On top of that encoding the library provides:\n(.*?)^## ",
                            README.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL).group(1)
        names = [name for group in re.findall(r"\((`\w+`(?:,\s*`\w+`)*)\)", section)
                 for name in re.findall(r"`(\w+)`", group)]
        assert len(names) >= 10
        missing = [n for n in names if n not in stratifold.__all__ and n not in COMMANDS]
        assert missing == []

    def test_readme_python_block_runs(self):
        blocks = re.findall(r"^```python\n(.*?)^```$",
                            README.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL)
        assert len(blocks) == 1
        exec(blocks[0], {})

    def test_readme_graph_example_parses(self):
        # the example lists its edge before the white vertex it joins
        block = re.search(r"^## Graph text format\n.*?^```\n(.*?)^```$",
                          README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL).group(1)
        assert block.index("edge") < block.index("white")
        assert parse_graph(block) == parse_graph(LENS5)

    def test_readme_pipelines_print_what_it_shows(self):
        # each "$ stratifold ... | stratifold ..." line is followed by its
        # output; every stage runs through main, fed the previous stdout
        shown = re.findall(r"^\$ (stratifold .*)\n(.*)$",
                           README.read_text(encoding="utf-8"), re.MULTILINE)
        assert [out for _, out in shown] == [
            "H1 = Z/5", "L(3) # S2xS1", "closed: 5 coset(s)"]
        for pipeline, want in shown:
            text = ""
            for stage in pipeline.split(" | "):
                program, *argv = shlex.split(stage)
                assert program == "stratifold"
                code, text = run(argv, text)
                assert code == 0
            assert text == want + "\n"
