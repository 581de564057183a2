"""Command-line interface over the graph calculus.

Every run emits a single report (with --json exactly ``json.dumps(report,
indent=2, sort_keys=True)``, readable text otherwise).  Exit codes: 0
success, 1 invalid input, 2 the coset budget of ``tc`` ran out before its
table closed (no other command abstains), 3 obstructions found.  The exit
code and all output are a function of the report, so runs are
reproducible.  An argv naming a command is parsed by
that command's parser alone, with the program parser's errors.

The constructive commands (pi1, synth, delta) print exactly their
artifact in text mode, so they compose in a pipeline:

    stratifold synth --expr "L(5)" | stratifold h1
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from collections.abc import Callable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .algebra import DEFAULT_COSET_BUDGET, Exhausted, abelianization, todd_coxeter
from .analysis import (analyze, black_orders, classify_fgroup,
                       fgroup_signature_of, obstructions, q_graph, white_holes)
from .errors import DomainError, GraphError, NoSpineError, ParseError
from .formats import format_word, parse_expr, parse_graph, parse_presentation
from .formats import serialize_graph
from .graph import StratifoldGraph, Violation, euler_characteristic, validate
from .presentation import simplify  # noqa: F401  (bench/test_bench.py checks it is traced here)
from .spine import NOT_CANONICAL, delta_sum, recognize, synth
from .verdicts import FiniteOrder

SCHEMA_VERSION = "1"


# -- report plumbing ---------------------------------------------------------


def _violate(report: dict, rule: str, detail: str, subject: str = ""):
    report["violations"].append({"rule": rule, "subject": subject, "detail": detail})


def exit_code(report: dict) -> int:
    """The exit code is determined by the report alone."""
    if report["violations"]:
        return 1
    if report["obstructions"]:
        return 3
    if report["indeterminate"]:
        return 2
    return 0


def _to_json(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` in one pass (with an
    indent, ``json.dumps`` falls back to its pure-Python encoder).  A type
    other than the exact ones of report values raises TypeError."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is dict:
        inner = pad + "  "
        items = [inner + _quote(key) + ": " + _to_json(value[key], inner)
                 for key in sorted(value)]
        return "{" + ",".join(items) + pad + "}" if items else "{}"
    if kind is list or kind is tuple:
        inner = pad + "  "
        items = [inner + _to_json(item, inner) for item in value]
        return "[" + ",".join(items) + pad + "]" if items else "[]"
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _digest(parts: list[str]) -> str:
    h = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            h.update(b"\x00")
        h.update(part.encode("utf-8"))
    return h.hexdigest()


# -- input handling ----------------------------------------------------------


def _read_input(path, stdin) -> str:
    if path is None or path == "-":
        return stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@functools.lru_cache(maxsize=1)
def _read_graph(text: str) -> tuple[StratifoldGraph, tuple[Violation, ...]]:
    """Parse and validate, or reuse the result for the latest text read.

    One text is kept, so a command repeated on the text the previous
    command read (``order`` then ``obstruct``) reads it once; any other
    text replaces it, and a text that fails to parse leaves it.  The
    graph and its violations are immutable, so the report is the one a
    fresh read gives.
    """
    graph = parse_graph(text)
    return graph, tuple(validate(graph))


def _checked_graph(text: str, report: dict, note: str = ""):
    """Read the graph; on violations, record them and return None."""
    graph, problems = _read_graph(text)
    for v in problems:
        _violate(report, v.rule, f"{v.detail}{note}", v.subject)
    return None if problems else graph


# -- JSON shapes -------------------------------------------------------------


def _verdict_json(v) -> dict:
    if isinstance(v, FiniteOrder):
        return {"kind": "finite", "order": v.order, "certificate": v.certificate}
    return {"kind": "infinite", "certificate": v.certificate}


def _pres_json(pres) -> dict:
    return {
        "generators": [{"name": g.name, "role": g.role} for g in pres.generators],
        "relators": [format_word(r) for r in pres.relators],
    }


def _ab_json(ab) -> dict:
    return {"free_rank": ab.free_rank, "torsion": list(ab.torsion)}


# -- command handlers --------------------------------------------------------
#
# A handler fills in the report.  Handlers of the commands that take one
# graph receive it parsed and validated; the others receive the input texts.
# Every graph text is read through _read_graph, which keeps the latest
# text with its graph and violations, so successive commands on one text
# parse and validate it once.  pi1, h1 and q reach the graph's presentation
# through analysis.analyze; order, holes, q and obstruct read the orders
# off the graph.  Those four accept --budget and use none.


def _cmd_validate(args, inputs, report):
    graph, problems = _read_graph(inputs[0])
    report["payload"] = {"whites": len(graph.whites), "blacks": len(graph.blacks),
                         "edges": len(graph.edges)}
    for v in problems:
        _violate(report, v.rule, v.detail, v.subject)


def _cmd_pi1(args, graph, report):
    oracle = analyze(graph)
    pres = oracle.pres
    payload = {"simplified": bool(args.simplify)}
    if args.simplify:
        # the reduction has no budget, so it is never exhausted
        pres = oracle.reduced
        payload["eliminations"] = len(oracle.pres.generators) - len(pres.generators)
        payload["exhausted"] = False
    payload["presentation"] = _pres_json(pres)
    report["payload"] = payload


def _cmd_h1(args, graph, report):
    ab = abelianization(analyze(graph))
    report["payload"] = _ab_json(ab)


def _cmd_euler(args, graph, report):
    report["payload"] = {"euler_characteristic": euler_characteristic(graph)}


def _cmd_order(args, graph, report):
    """Run the order census and report it as the payload; returns the orders."""
    orders = black_orders(graph)
    report["payload"] = {
        "orders": {bid: _verdict_json(v) for bid, v in sorted(orders.items())},
    }
    return orders


def _cmd_fclass(args, graph, report):
    sig = fgroup_signature_of(graph)
    if sig is None:
        _violate(report, "NotFGroupFamily",
                 "graph is not in the standard one-center F-group family")
        return
    fc = classify_fgroup(sig)
    report["payload"] = {
        "genus": sig.genus,
        "periods": list(sig.periods),
        "kind": fc.kind,
        "order": fc.order,
        "name": fc.name,
        "surface": fc.surface,
        "description": str(fc),
    }


def _cmd_holes(args, graph, report):
    holes = white_holes(graph, _cmd_order(args, graph, report))
    report["payload"]["white_holes"] = sorted(holes)


def _cmd_q(args, graph, report):
    _cmd_order(args, graph, report)
    result = q_graph(graph)
    payload = report["payload"]
    payload["deleted_blacks"] = list(result.deleted_blacks)
    payload["white_holes"] = list(result.white_holes)
    payload["components"] = [
        {
            "whites": len(c.graph.whites),
            "blacks": len(c.graph.blacks),
            "edges": len(c.graph.edges),
            "graph": serialize_graph(c.graph),
            "capped": list(c.capped),
            "closed_surface_genus": c.closed_surface_genus,
        }
        for c in result.components
    ]
    payload["presentation"] = _pres_json(result.presentation)
    payload["abelianization"] = _ab_json(result.abelianization)


def _cmd_obstruct(args, graph, report):
    found = obstructions(graph)
    report["obstructions"] = [{"kind": o.kind, "witness": o.witness} for o in found]


def _cmd_synth(args, inputs, report):
    expr = parse_expr(inputs[0])
    graph = synth(expr)
    report["payload"] = {"expr": str(expr), "graph": serialize_graph(graph)}


def _cmd_recognize(args, graph, report):
    result = recognize(graph)
    if result is NOT_CANONICAL:
        report["payload"] = {"canonical": False, "expr": None}
    else:
        report["payload"] = {"canonical": True, "expr": str(result)}


def _cmd_delta(args, inputs, report):
    g1 = _checked_graph(inputs[0], report, note=" (from --in)")
    g2 = _checked_graph(inputs[1], report, note=" (from --in2)")
    if g1 is None or g2 is None:
        return
    result = delta_sum(g1, args.w1, g2, args.w2)
    report["payload"] = {"graph": serialize_graph(result)}


def _cmd_tc(args, inputs, report):
    pres = parse_presentation(inputs[0])
    result = todd_coxeter(pres, budget=args.budget)
    if isinstance(result, Exhausted):
        report["payload"] = {"closed": False, "cosets": None,
                             "defined": result.defined, "budget": args.budget}
        report["indeterminate"] = True
    else:
        report["payload"] = {"closed": True, "cosets": result.cosets,
                             "defined": None, "budget": args.budget}


# -- human-readable rendering -------------------------------------------------


def _format_ab(ab: dict) -> str:
    parts = []
    r = ab["free_rank"]
    if r == 1:
        parts.append("Z")
    elif r > 1:
        parts.append(f"Z^{r}")
    parts.extend(f"Z/{d}" for d in ab["torsion"])
    return " + ".join(parts) if parts else "0"


def _pres_lines(pres: dict) -> list[str]:
    lines = [f"gen {g['name']} {g['role']}" for g in pres["generators"]]
    lines.extend(f"rel {r}".rstrip() for r in pres["relators"])
    return lines


def _render_validate(report):
    p = report["payload"]
    return [f"ok: {p['whites']} white, {p['blacks']} black, {p['edges']} edge(s)"]


def _render_pi1(report):
    return _pres_lines(report["payload"]["presentation"])


def _render_h1(report):
    return ["H1 = " + _format_ab(report["payload"])]


def _render_euler(report):
    return [f"euler characteristic: {report['payload']['euler_characteristic']}"]


def _render_order(report):
    orders = report["payload"]["orders"]
    lines = []
    for bid in sorted(orders):
        v = orders[bid]
        if v["kind"] == "finite":
            lines.append(f"{bid}: finite order {v['order']} ({v['certificate']})")
        else:
            lines.append(f"{bid}: infinite ({v['certificate']})")
    return lines


def _render_fclass(report):
    p = report["payload"]
    periods = ", ".join(str(m) for m in p["periods"])
    return [f"F-group of genus {p['genus']} with periods ({periods}):"
            f" {p['description']}"]


def _render_holes(report):
    return ["white holes: " + (" ".join(report["payload"]["white_holes"]) or "(none)")]


def _render_q(report):
    p = report["payload"]
    lines = [
        "deleted blacks: " + (" ".join(p["deleted_blacks"]) or "(none)"),
        "white holes: " + (" ".join(p["white_holes"]) or "(none)"),
        f"components: {len(p['components'])}",
    ]
    for i, c in enumerate(p["components"], start=1):
        extra = ""
        if c["capped"]:
            extra += "; capped " + " ".join(c["capped"])
        if c["closed_surface_genus"] is not None:
            extra += f"; closed surface of genus {c['closed_surface_genus']}"
        lines.append(f"component {i}: {c['whites']} white, {c['blacks']} black,"
                     f" {c['edges']} edge(s)" + extra)
    lines.append("Q abelianization: " + _format_ab(p["abelianization"]))
    return lines


def _render_obstruct(report):
    return [] if report["obstructions"] else ["no obstruction found"]


def _render_graph(report):
    return report["payload"]["graph"].rstrip("\n").split("\n")


def _render_recognize(report):
    p = report["payload"]
    return [p["expr"]] if p["canonical"] else ["not canonical"]


def _render_tc(report):
    p = report["payload"]
    if p["closed"]:
        return [f"closed: {p['cosets']} coset(s)"]
    return [f"enumeration exhausted after defining {p['defined']} cosets"
            f" (budget {p['budget']})"]


def _human(report: dict) -> str:
    lines: list[str] = []
    if not report["violations"]:
        lines.extend(_COMMANDS[report["command"]].renderer(report))
    for v in report["violations"]:
        subject = f" {v['subject']}" if v["subject"] else ""
        lines.append(f"violation {v['rule']}{subject}: {v['detail']}")
    for o in report["obstructions"]:
        lines.append(f"obstruction {o['kind']}: {o['witness']}")
    if report["indeterminate"]:
        lines.append("indeterminate: budget exhausted before a certified answer")
    return "\n".join(lines) + "\n" if lines else ""


# -- the command table and argument parsing -----------------------------------


class _Parser(argparse.ArgumentParser):
    # invalid command lines are invalid input: exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value


def _in(help_text: str):
    return ("--in", {"dest": "infile", "metavar": "FILE", "help": help_text})


_IN = _in("input file (default: stdin; '-' for stdin)")
_BUDGET = ("--budget", {"type": _positive_int, "default": DEFAULT_COSET_BUDGET,
                        "metavar": "N",
                        "help": "coset limit for enumeration (default "
                                f"{DEFAULT_COSET_BUDGET}); only tc uses it"})


@dataclass(frozen=True)
class _Command:
    """One subcommand.

    ``handler(args, subject, report)`` fills in the report, where the
    subject is the parsed and validated graph when ``checked``, and the
    list of input texts otherwise.  ``read(args, stdin)`` returns that
    list; by default it holds the one text of --in.  ``renderer(report)``
    returns the text lines of a report without violations.  ``options``
    are (flag, argparse keywords) pairs, added after --json in this order.
    """

    help: str
    handler: Callable
    renderer: Callable
    checked: bool = True
    options: tuple = (_IN,)
    read: Callable = lambda args, stdin: [_read_input(args.infile, stdin)]


_COMMANDS = {
    "validate": _Command("check the graph invariants",
                         _cmd_validate, _render_validate, checked=False),
    "pi1": _Command("fundamental-group presentation of the graph",
                    _cmd_pi1, _render_pi1,
                    options=(_IN, ("--simplify", {
                        "action": "store_true",
                        "help": "eliminate redundant generators first"}))),
    "h1": _Command("first homology (abelianization invariants)",
                   _cmd_h1, _render_h1),
    "euler": _Command("Euler characteristic of the 2-complex",
                      _cmd_euler, _render_euler),
    "order": _Command("exact order of every branch-circle generator",
                      _cmd_order, _render_order, options=(_IN, _BUDGET)),
    "fclass": _Command("classify the F-group of a one-center family graph",
                       _cmd_fclass, _render_fclass),
    "holes": _Command("white holes, given the order census",
                      _cmd_holes, _render_holes, options=(_IN, _BUDGET)),
    "q": _Command("quotient-by-torsion surgery and its presentation",
                  _cmd_q, _render_q, options=(_IN, _BUDGET)),
    "obstruct": _Command("run the closed-3-manifold-group obstruction suite",
                         _cmd_obstruct, _render_obstruct, options=(_IN, _BUDGET)),
    "synth": _Command("build the canonical spine graph of a manifold expression",
                      _cmd_synth, _render_graph, checked=False,
                      options=(("--expr", {
                          "metavar": "STRING",
                          "help": "manifold expression, e.g. \"L(5) # S2xS1\""}),
                          _in("file holding the expression when --expr is absent")),
                      read=lambda args, stdin: [args.expr if args.expr is not None
                                                else _read_input(args.infile, stdin)]),
    "recognize": _Command("recover the manifold expression of a canonical spine",
                          _cmd_recognize, _render_recognize),
    "delta": _Command("delta-sum of two graphs at chosen white vertices",
                      _cmd_delta, _render_graph, checked=False,
                      options=(_in("first graph file (default: stdin; '-' for stdin)"),
                               ("--in2", {"required": True, "metavar": "FILE",
                                          "help": "second graph file"}),
                               ("--w1", {"required": True, "metavar": "ID",
                                         "help": "white vertex of the first graph"}),
                               ("--w2", {"required": True, "metavar": "ID",
                                         "help": "white vertex of the second graph"})),
                      read=lambda args, stdin: [_read_input(args.infile, stdin),
                                                _read_input(args.in2, stdin),
                                                args.w1, args.w2]),
    "tc": _Command("coset enumeration over the trivial subgroup of a presentation",
                   _cmd_tc, _render_tc, checked=False, options=(_IN, _BUDGET)),
}

COMMANDS = tuple(_COMMANDS)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = _Parser(prog="stratifold",
                     description="2-stratifold graph calculus")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.add_argument("--json", action="store_true",
                       help="emit the JSON report instead of text")
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    parser.commands = sub.choices  # command name -> its parser
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The program parser's ``parse_args``, but an argv naming a command goes
    straight to that command's parser; leftover words are the program's error."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # help, no command or an unknown one
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None, stdin=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args.command == "delta" and args.in2 == "-" and args.infile in (None, "-"):
            # stdin holds one text; the second read would see it empty
            _build_parser().commands["delta"].error(
                "--in and --in2 both read stdin; give at least one of them as a file")
    except SystemExit as exc:
        return int(exc.code or 0)
    stdin = stdin if stdin is not None else sys.stdin
    command = _COMMANDS[args.command]
    report = {"schema_version": SCHEMA_VERSION, "command": args.command,
              "input_digest": _digest([]), "payload": {}, "indeterminate": False,
              "violations": [], "obstructions": []}
    try:
        inputs = command.read(args, stdin)
        report["input_digest"] = _digest(inputs)
        subject = _checked_graph(inputs[0], report) if command.checked else inputs
        if subject is not None:
            command.handler(args, subject, report)
    except ParseError as exc:
        _violate(report, "ParseError", str(exc))
    except DomainError as exc:
        _violate(report, "DomainError", str(exc))
    except NoSpineError as exc:
        _violate(report, "NoSpine", str(exc))
    except GraphError as exc:
        _violate(report, "GraphError", str(exc))
    except OSError as exc:
        _violate(report, "IOError", str(exc))
    except UnicodeError:  # a file that does not decode, or escaped stdin bytes
        _violate(report, "IOError", "input is not valid UTF-8")
    if args.json:
        out = _to_json(report) + "\n"
    else:
        out = _human(report)
    sys.stdout.write(out)
    return exit_code(report)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
