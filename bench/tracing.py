"""Per-layer spans and work counters, recorded from outside the package.

The tracer wraps the public functions of each layer by rebinding every
module-level name (and the one class attribute) that refers to the
original function, so calls made through any import path are seen.
Spans are kept in memory as parallel lists and written out on request;
``uninstall`` puts every original object back.

A wrapper records nothing while no operation is active, so the
benchmark's own correctness checks, which call the same library
functions, do not show up in the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer name -> (module, attribute) pairs; "Class.method" wraps a method
LAYERS = (
    ("cli", (("stratifold.cli", "main"),)),
    ("formats.parse", (("stratifold.formats", "parse_graph"),
                       ("stratifold.formats", "parse_presentation"),
                       ("stratifold.formats", "parse_expr"))),
    ("formats.serialize", (("stratifold.formats", "serialize_graph"),
                           ("stratifold.formats", "serialize_presentation"),
                           ("stratifold.formats", "format_word"),
                           ("stratifold.formats", "format_expr"))),
    ("graph.validate", (("stratifold.graph", "validate"),)),
    ("graph.normalize", (("stratifold.graph", "normalize"),)),
    ("graph.iso", (("stratifold.graph", "are_isomorphic"),)),
    ("presentation.natural", (("stratifold.presentation", "natural_presentation"),)),
    ("presentation.simplify", (("stratifold.presentation", "simplify"),)),
    ("algebra.snf", (("stratifold.algebra", "smith_normal_form"),)),
    ("algebra.snf.replay", (("stratifold.algebra", "apply_transforms"),
                            ("stratifold.algebra", "_column_matrix"))),
    ("algebra.tc", (("stratifold.algebra", "todd_coxeter"),)),
    ("algebra.order", (("stratifold.algebra", "OrderOracle.order"),)),
    ("algebra.power_bound", (("stratifold.algebra", "_power_relator_bound"),)),
    ("analysis.census", (("stratifold.analysis", "black_orders"),)),
    ("analysis.q", (("stratifold.analysis", "q_graph"),)),
    ("analysis.obstruct", (("stratifold.analysis", "obstructions"),)),
    ("spine.synth", (("stratifold.spine", "synth"),)),
    ("spine.recognize", (("stratifold.spine", "recognize"),)),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

CERT_KINDS = ("abelian_infinite", "power_bound", "tietze_identity",
              "coset_table", "unknown")

COUNTER_NAMES = (
    "algebra.snf.cells", "algebra.snf.ops",
    "presentation.simplify.steps", "presentation.simplify.exhausted",
    "algebra.tc.closed", "algebra.tc.cosets",
    *(f"algebra.order.cert.{k}" for k in CERT_KINDS),
    "graph.iso.true",
)


def _cert_kind(verdict) -> str:
    """Which certificate path produced an order verdict."""
    from stratifold.verdicts import FiniteOrder, InfiniteOrder
    if isinstance(verdict, InfiniteOrder):
        return "abelian_infinite"
    if not isinstance(verdict, FiniteOrder):
        return "unknown"
    cert = verdict.certificate
    if cert.startswith("power relator bound"):
        return "power_bound"
    if cert.startswith("coset enumeration"):
        return "coset_table"
    # "reduces to the identity under Tietze moves", or the empty word
    return "tietze_identity"


def _count(counters: dict, layer: str, args, result) -> None:
    """Work counters read from a layer call's arguments and return value."""
    if layer == "algebra.snf":
        m = args[0]
        counters["algebra.snf.cells"] += m.rows * m.cols
        counters["algebra.snf.ops"] += len(result[1])
    elif layer == "presentation.simplify":
        counters["presentation.simplify.steps"] += result.steps
        counters["presentation.simplify.exhausted"] += int(result.exhausted)
    elif layer == "algebra.tc":
        if hasattr(result, "action"):
            counters["algebra.tc.closed"] += 1
            counters["algebra.tc.cosets"] += result.cosets
        else:
            counters["algebra.tc.cosets"] += result.defined
    elif layer == "algebra.order":
        counters[f"algebra.order.cert.{_cert_kind(result)}"] += 1
    elif layer == "graph.iso":
        counters["graph.iso.true"] += int(result is True)


class Tracer:
    """Span recorder; install() wraps the layers, uninstall() restores."""

    def __init__(self):
        self.op = None  # operation id of the running operation, or None
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(self.names)
            self.names.append(layer)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            _count(self.counters, layer, args, result)
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "stratifold"
                                         or name.startswith("stratifold."))]
        for layer, targets in LAYERS:
            for modname, attr in targets:
                home = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._saved.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(layer, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, name, original))
                            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (sum of span durations) and self_s (busy minus
        the time covered by direct child spans) for every layer."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in LAYER_NAMES}
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def spans(self) -> list[list]:
        return [[self.names[i], self.starts[i], self.ends[i], self.parents[i],
                 self.ops[i]] for i in range(len(self.names))]

    def write(self, path) -> None:
        """Write spans as JSON: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans()}, fh, separators=(",", ":"))
