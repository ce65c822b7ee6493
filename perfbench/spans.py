"""Span recorder for the traced benchmark run.

The recorder times the package's layers from outside: it replaces each
listed public function, under every ``qpencil`` module name that binds it,
with a wrapper that records a span, and puts the originals back afterwards.
Spans stay in memory as ``(name, start, end, parent, op_id)`` tuples, where
``parent`` is the index of the enclosing span (``None`` for a root), and are
written out once the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (span name, module, attribute). The span name is the layer metric prefix;
# ``cli.render`` also covers the ``json.dumps`` call that renders JSON output.
TARGETS = (
    ("pauli.realization", "qpencil.pauli", "realization"),
    ("exact.commutator_is_zero", "qpencil.exact", "commutator_is_zero"),
    ("exact.rank", "qpencil.exact", "rank"),
    ("exact.inner_product", "qpencil.exact", "inner_product"),
    ("exact.is_product_state", "qpencil.exact", "is_product_state"),
    ("pencil.build", "qpencil.pencil", "build"),
    ("pencil.evaluate", "qpencil.pencil", "evaluate"),
    ("pencil.hermitian_eigensystem", "qpencil.pencil", "hermitian_eigensystem"),
    ("pencil.snap_to_ray", "qpencil.pencil", "snap_to_ray"),
    ("pencil.joint_context", "qpencil.pencil", "joint_context"),
    ("logic.orthogonality_graph", "qpencil.logic", "orthogonality_graph"),
    ("logic.enumerate_contexts", "qpencil.logic", "enumerate_contexts"),
    ("logic.two_valued_states", "qpencil.logic", "two_valued_states"),
    ("logic.classify_contexts", "qpencil.logic", "classify_contexts"),
    ("logic.noncolorable_subsets", "qpencil.logic", "noncolorable_subsets"),
    ("parity.analyze", "qpencil.parity", "analyze"),
    ("parity.eigenstate_table", "qpencil.parity", "eigenstate_table"),
    ("cli.parse_scenario", "qpencil.cli", "parse_scenario"),
    ("cli.render", "qpencil.cli", "render_text"),
    ("cli.render", "qpencil.cli", "render_subsets_text"),
)
JSON_RENDER_SPAN = "cli.render"
ROOT_SPAN = "op"


def _bindings(obj) -> list[tuple[object, str]]:
    """Every (module, attribute) in a loaded ``qpencil`` module bound to ``obj``."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "qpencil" or mod_name.startswith("qpencil.")):
            continue
        for attr, value in vars(module).items():
            if value is obj:
                found.append((module, attr))
    return found


class SpanRecorder:
    """In-memory spans plus counters, recorded at layer boundaries."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.raised: Counter[tuple[str, str]] = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, time.perf_counter()

    def _close(self, name: str, index: int, parent, start: float):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op_id)

    def wrap(self, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent, start = recorder._open()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                recorder.raised[(name, type(e).__name__)] += 1
                raise
            finally:
                recorder._close(name, index, parent, start)

        return wrapper

    @contextmanager
    def op(self):
        """Root span around one benchmark operation; its spans share an id."""
        self.op_id += 1
        index, parent, start = self._open()
        try:
            yield
        finally:
            self._close(ROOT_SPAN, index, parent, start)

    def install(self):
        """Wrap every target under each ``qpencil`` module name that binds it,
        and ``json.dumps``, which the CLI calls as a ``json`` attribute."""
        if self._patched:
            raise RuntimeError("span wrappers are already installed")
        for name, mod_name, attr in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, original)
            for module, bound in _bindings(original):
                self._patched.append((module, bound, original))
                setattr(module, bound, wrapper)
        self._patched.append((json, "dumps", json.dumps))
        json.dumps = self.wrap(JSON_RENDER_SPAN, json.dumps)

    def uninstall(self):
        """Put back every original binding, newest first."""
        while self._patched:
            module, bound, original = self._patched.pop()
            setattr(module, bound, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id"],
                       "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """(calls, summed self time) per span name."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return {name: (calls, own) for name, (calls, own) in totals.items()}
