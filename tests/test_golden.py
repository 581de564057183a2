"""Golden corpus: every CLI command's exit code and stdout, byte for byte.

``tests/golden/cli_reports.json`` holds named input texts and, for each
case, the argument vector, which input is fed on stdin, the exit code and
the exact stdout, in text and ``--json`` modes.  An argument of the form
``@name`` is replaced by the path of a file holding input ``name``, so the
two-file ``delta`` command is covered too.  Only stdout is compared:
argparse's stderr and ``--help`` text vary across Python versions.

Regenerate, only when a change to a report is intended, with

    PYTHONPATH=src:tests python3 tests/test_golden.py --write

The test function needs no pytest fixture, so it can also be run
directly on an interpreter without pytest:

    PYTHONPATH=src:tests python3 -c \\
        "import test_golden; test_golden.test_golden_reports_are_byte_identical()"
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from stratifold.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "cli_reports.json")

# small enough that every case stays fast, large enough that some coset
# tables close and others exhaust
BUDGET = "2000"


def run_case(argv, stdin_name, inputs, tmpdir):
    """Run one case in process; returns (exit code, stdout)."""
    args = []
    for arg in argv:
        if arg.startswith("@"):
            path = os.path.join(tmpdir, arg[1:])
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs[arg[1:]])
            arg = path
        args.append(arg)
    stdin = io.StringIO(inputs[stdin_name] if stdin_name is not None else "")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(args, stdin=stdin)
    return code, buf.getvalue()


def test_golden_reports_are_byte_identical():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    inputs = golden["inputs"]
    mismatched = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for case in golden["cases"]:
            got = run_case(case["argv"], case["stdin"], inputs, tmpdir)
            if got != (case["exit"], case["stdout"]):
                mismatched.append(case["argv"] + [f"<{case['stdin']}"])
    assert not mismatched, f"{len(mismatched)} cases differ, first: {mismatched[:5]}"


# -- corpus generation ------------------------------------------------------


def _corpus_inputs():
    import random

    from helpers import boundary_presentation, fold_synth, random_valid_graph
    from stratifold import (FSignature, fgroup_graph, parse_expr,
                            serialize_graph, serialize_presentation)

    # the spines are left folds of delta_sum, so the stored inputs keep their
    # nested l./r. ids and cover fold-built graphs; the synth cases below
    # cover synth's own flat ids
    graphs = {}
    for i, expr in enumerate(("L(2)", "L(3)", "S2xS1", "S2~xS1", "P2xS1",
                              "L(3) # S2xS1", "L(2) # L(3) # P2xS1")):
        graphs[f"spine{i}"] = serialize_graph(fold_synth(parse_expr(expr)))
    for i, (genus, periods) in enumerate((
            (0, (2, 3, 5)), (-1, (3,)), (0, (2, 3, 7)), (1, ()), (2, (2,)))):
        graphs[f"fgroup{i}"] = serialize_graph(fgroup_graph(FSignature(genus, periods)))
    graphs["theta"] = ("white w genus 1\nblack b\nedge e1 w b 1\n"
                       "edge e2 w b 1\nedge e3 w b 1\n")
    # negative tree labels at every kind of vertex, ids out of order
    graphs["signs"] = ("white z genus 0\nwhite m genus -1\nwhite a genus 1\n"
                       "black q\nblack c\nedge x9 z q -2\nedge x1 m q 1\n"
                       "edge x5 m c -1\nedge x3 a c -1\nedge x4 a c 1\n"
                       "edge x7 a q 2\n")
    for seed in (1, 4, 10):
        graphs[f"random{seed}"] = serialize_graph(random_valid_graph(random.Random(seed)))
    violations = {
        "zero_label": "white w genus 0\nblack b\nedge e w b 0\nedge f w b 3\n",
        "branch_small": "white w genus 0\nblack b\nedge e w b 2\n",
        "isolated": ("white w genus 0\nwhite v genus 2\nblack b\nblack c\n"
                     "edge e w b 3\n"),
        "disconnected": ("white w genus 0\nblack b\nedge e w b 3\n"
                         "white v genus 0\nblack c\nedge f v c 4\n"),
        "empty": "",
        "garbage": "wibble\n",
        "dangling": "white w genus 0\nedge e w b 5\n",
        "duplicate": "white w genus 0\nwhite w genus 1\n",
    }
    presentations = {
        "cyclic3": "gen a black\nrel a^3\n",
        "klein": "gen a black\ngen b black\nrel a^-1 b a b\n",
        "dihedral": "gen a black\ngen b black\nrel a^2\nrel b^4\nrel a b a b\n",
        "rotated": "gen a black\ngen b black\nrel b a b a b a\n",
        "free": "gen a black\n",
        "badrel": "gen a black\nrel b^2\n",
        # a graph presentation with boundary generators, which the
        # presentation format accepts though pi1 no longer prints them
        "pi1_sum": serialize_presentation(boundary_presentation(
            fold_synth(parse_expr("L(2) # L(3) # P2xS1")))),
    }
    exprs = {"expr_ok": "L(3) # P2xS1\n", "expr_s3": "S3\n", "expr_bad": "L(x)\n"}
    return graphs, violations, presentations, exprs


def _corpus_cases(graphs, violations, presentations, exprs):
    per_graph = (["validate"], ["pi1"], ["pi1", "--simplify"], ["h1"], ["euler"],
                 ["order", "--budget", BUDGET], ["fclass"],
                 ["holes", "--budget", BUDGET], ["q", "--budget", BUDGET],
                 ["obstruct", "--budget", BUDGET], ["recognize"])
    cases = [(argv, name) for name in graphs for argv in per_graph]
    # an invalid graph stops every command at the same check
    cases += [(argv, name) for name in violations for argv in per_graph
              if argv != ["pi1", "--simplify"]]
    # default budgets on graphs whose orders need no coset table
    for name in ("spine1", "fgroup1"):
        cases += [(["order"], name), (["holes"], name), (["q"], name),
                  (["obstruct"], name)]
    cases += [(["order", "--budget", "10"], "theta"),
              (["q", "--budget", "10"], "theta"),
              (["obstruct", "--budget", "100"], "theta"),
              (["h1", "--in", "@spine3"], None),
              (["h1", "--in", "-"], "spine2"),
              (["h1", "--in", "/nonexistent/x.graph"], None),
              (["h1"], "cyclic3"),
              (["order", "--budget", "-5"], "spine1"),
              (["order", "--budget", "x"], "spine1"),
              (["frobnicate"], None)]
    for name in presentations:
        cases += [(["tc", "--budget", BUDGET], name), (["tc", "--budget", "8"], name)]
    cases += [(["tc"], "cyclic3"), (["tc"], "spine1")]
    for expr in ("L(3) # P2xS1", "S2xS1 # S2xS1 # L(7)", "P2xS1", "L(2)",
                 "S3", "L(1)", "L(3) #", "S2~xS1 # L(2)"):
        cases.append((["synth", "--expr", expr], None))
    for name in exprs:
        cases += [(["synth"], name), (["synth", "--in", f"@{name}"], None)]
    for g1, w1, g2, w2 in (("spine1", "w", "spine2", "wa"),
                           ("spine4", "wa", "spine0", "w"),
                           ("spine5", "l.wa", "fgroup0", "w0"),
                           ("random1", "w0", "random4", "w1"),
                           ("spine1", "nope", "spine2", "wa"),
                           ("spine1", "w", "branch_small", "w"),
                           ("zero_label", "w", "garbage", "w")):
        cases.append((["delta", "--in", f"@{g1}", "--in2", f"@{g2}",
                       "--w1", w1, "--w2", w2], None))
    cases += [(["delta", "--in2", "@spine2", "--w1", "w", "--w2", "wa"], "spine1"),
              (["delta", "--in", "@spine1", "--w1", "w", "--w2", "wa"], None)]
    return [(argv + mode, stdin) for argv, stdin in cases for mode in ([], ["--json"])]


def write_corpus():
    graphs, violations, presentations, exprs = _corpus_inputs()
    inputs = {**graphs, **violations, **presentations, **exprs}
    cases = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for argv, stdin in _corpus_cases(graphs, violations, presentations, exprs):
            code, out = run_case(argv, stdin, inputs, tmpdir)
            cases.append({"argv": argv, "stdin": stdin, "exit": code, "stdout": out})
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return cases


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    written = write_corpus()
    print(f"wrote {len(written)} cases to {GOLDEN}")
