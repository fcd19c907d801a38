"""Per-layer tracing from outside the library.

Wrappers are installed at every module attribute under ``arbopack`` that
binds a traced function (``evaluate`` is bound in conditions, packing,
orientation and the package itself, for example), and on the methods of
every ``Matroid`` subclass, ``TPolyhedron.rank`` and
``SetFunctionOracle.__call__``.  Each call opens a span; a span's self time
is its duration minus the time its child spans cover.  Budget steps are the
drop in the op's ``Budget`` across the span, children included.

Oracle methods and ``t_contains`` run hundreds of thousands of times per
op, so they only feed the per-name totals; every other span is also kept
in memory with its parent id and written out by ``write_spans`` after the
run.  A generator (``integer_points``) counts as one call, and its time is
the sum of its resumptions over the whole iteration.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute, keep span records)
FUNCTIONS = (
    ("matroids.check_rank_axioms", "arbopack.matroids", "check_rank_axioms", True),
    ("packing.verify", "arbopack.packing", "verify", True),
    ("setfuncs.check_intersecting_supermodular", "arbopack.setfuncs",
     "check_intersecting_supermodular", True),
    ("conditions.evaluate", "arbopack.conditions", "evaluate", True),
    ("gpoly.feasible", "arbopack.gpoly", "feasible", True),
    ("gpoly.find_integer_point", "arbopack.gpoly", "find_integer_point", True),
    ("gpoly.t_contains", "arbopack.gpoly", "t_contains", False),
    ("packing.find_packing", "arbopack.packing", "find_packing", True),
    ("packing.mrb_mixed_pack", "arbopack.packing", "mrb_mixed_pack", True),
    ("packing.corollary1_pack", "arbopack.packing", "corollary1_pack", True),
    ("packing.main_pack", "arbopack.packing", "main_pack", True),
    ("orientation.mixed_orient", "arbopack.orientation", "mixed_orient", True),
    ("orientation.frank_orient", "arbopack.orientation", "frank_orient", True),
    ("orientation.compute_h2", "arbopack.orientation", "compute_h2", True),
    ("orientation.check_mixed_cover", "arbopack.orientation", "check_mixed_cover", True),
    ("instances.parse_instance", "arbopack.instances", "parse_instance", True),
)
GENERATORS = (
    ("gpoly.integer_points", "arbopack.gpoly", "integer_points"),
)


class Tracer:
    """Span stack and per-name totals for the ops of one traced run."""

    def __init__(self):
        self.active = False
        self.budget = None
        self.op = -1
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._op_self: dict[str, float] = defaultdict(float)
        self.group_self: dict[tuple, float] = defaultdict(float)
        self._groups: dict[int, str] = {}
        self.steps: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._holders: list = []
        self._installed: list[tuple] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, index: int, budget, group: str) -> None:
        self.op, self.budget = index, budget
        self._groups[index] = group
        self._stack.clear()
        self.active = True

    def end_op(self, scale: float = 1.0) -> None:
        """Close the op; its self times enter the totals multiplied by
        scale, the machine's speed over nominal during the op."""
        self.active = False
        self.budget = None
        group = self._groups[self.op]
        for name, seconds in self._op_self.items():
            self.self_s[name] += seconds * scale
            self.group_self[group, name] += seconds
        self._op_self.clear()
        self._seen.clear()
        self._holders.clear()

    # -- spans -------------------------------------------------------------

    def _remaining(self) -> int:
        return self.budget.remaining if self.budget is not None else 0

    def push(self, name: str, record: bool) -> list:
        start = time.perf_counter()
        span_id = -1
        if record:
            span_id = len(self.spans)
            parent = next((f[4] for f in reversed(self._stack) if f[4] >= 0), -1)
            self.spans.append([span_id, parent, self.op, name, start, start])
        frame = [name, start, 0.0, self._remaining(), span_id]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list, count: bool = True) -> None:
        end = time.perf_counter()
        duration = end - frame[1]
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name = frame[0]
        self._op_self[name] += duration - frame[2]
        self.steps[name] += frame[3] - self._remaining()
        if count:
            self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if frame[4] >= 0:
            self.spans[frame[4]][5] = end

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        frame = self.push(name, True)
        try:
            yield
        finally:
            self.pop(frame)

    def note_key(self, name: str, owner, key) -> None:
        """Count a memo key as distinct the first time this op sees it on
        this owner; holding the owner keeps its id unique within the op."""
        seen = self._seen[name]
        tag = (id(owner), key)
        if tag not in seen:
            seen.add(tag)
            self._holders.append(owner)
            self.distinct[name] += 1

    # -- installation ------------------------------------------------------

    def _wrap_call(self, name: str, fn, record: bool, keyed: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if keyed:
                tracer.note_key(name, args[0], frozenset(args[1]))
            frame = tracer.push(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if not tracer.active:
                yield from inner
                return
            tracer.calls[name] += 1
            try:
                while True:
                    frame = tracer.push(name, False)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.pop(frame, count=False)
                    yield item
            finally:
                inner.close()

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "arbopack" or modname.startswith("arbopack.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def install(self) -> None:
        import arbopack.gpoly as gpoly
        import arbopack.matroids as matroids
        import arbopack.setfuncs as setfuncs

        for name, modname, attr, record in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._wrap_call(name, original, record))
        for name, modname, attr in GENERATORS:
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._wrap_generator(name, original))

        classes = [matroids.Matroid]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        methods = [
            (f"matroids.{meth}", cls, meth, False)
            for cls in classes for meth in ("rank", "independent")
            if meth in vars(cls)
        ]
        methods += [
            ("gpoly.tpoly_rank", gpoly.TPolyhedron, "rank", True),
            ("setfuncs.oracle", setfuncs.SetFunctionOracle, "__call__", True),
        ]
        for name, cls, meth, keyed in methods:
            original = vars(cls)[meth]
            setattr(cls, meth, self._wrap_call(name, original, False, keyed))
            self._installed.append((cls, meth, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def inclusive(self) -> dict[tuple, float]:
        """Wall seconds inside each recorded span name, per op group."""
        out: dict[tuple, float] = defaultdict(float)
        for _, _, op, name, start, end in self.spans:
            out[self._groups[op], name] += end - start
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                         "name": name, "start": start, "end": end}))
                handle.write("\n")
