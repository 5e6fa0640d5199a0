"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of each layer module, plus
three methods (``EpsilonNfa.epsilon_closure`` and the two validating
``__post_init__`` methods), at *every* binding in the package: the modules
import each other's functions by name (``from .automata import
determinize``), so patching the defining module alone would miss most
callers.  ``uninstall`` puts the originals back.

Each call becomes a span (name, start, end, parent span, check id), kept in
flat arrays in memory and written out by ``write``.  A span's self time is
its duration minus the time its child spans cover.  Size counters are read
off return values and arguments.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

#: The layer modules, in the package's dependency order.
LAYERS = ("automata", "observation", "opacity", "interference", "reductions", "modelfile", "regexlang", "cli")

#: Methods traced under names of their own.
METHODS = (
    ("automata", "EpsilonNfa", "epsilon_closure", "automata.epsilon_closure"),
    ("automata", "Lts", "__post_init__", "automata.lts_validate"),
    ("automata", "EpsilonNfa", "__post_init__", "automata.nfa_validate"),
)

ROOT = "check"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.check = array("i")
        self._stack = [-1]
        self._check = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._subsets: set = set()
        self._restore: list = []

    # -- spans ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.check.append(self._check)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin_check(self, check_index: int) -> None:
        """Open the root span of check ``check_index``.

        Distinct subsets are counted per top-level check, so the set of
        subsets seen starts empty here.
        """
        self._check = check_index
        self._subsets = set()
        idx = self._open(self._id(ROOT))
        self.start[idx] = time.perf_counter()

    def end_check(self) -> None:
        """Close every span still open, the root included.

        A check stopped by its time limit can leave spans open, a span only
        partly recorded, or a start not yet taken; those are repaired here,
        so this must run after the time limit's alarm is disarmed.
        """
        now = time.perf_counter()
        columns = (self.name, self.parent, self.check, self.start, self.end)
        count = min(len(c) for c in columns)
        for column in columns:
            del column[count:]
        for idx in self._stack[1:]:
            if idx < count:
                if self.start[idx] == 0.0:
                    self.start[idx] = now
                self.end[idx] = now
        del self._stack[1:]
        self.counters["automata.determinize.distinct_subsets"] += len(self._subsets)
        self._subsets = set()
        self._check = -1

    def _wrap(self, fn, name: str, count):
        nid = self._id(name)
        opened = self._open
        clock = time.perf_counter
        starts, ends, stack = self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(nid)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    # -- counters read off results ----------------------------------------

    def _counters(self) -> dict:
        c = self.counters

        def determinize(args, result):
            c["automata.determinize.subsets"] += len(result.states)
            self._subsets.update(result.states)

        def sized(key):
            def count(args, result):
                c[key] += len(result.states)
            return count

        def entries(args, result):
            c["automata.entry_words.entries"] += len(result)

        def image(args, result):
            c["observation.orwellian_image_nfa.nfa_states"] += len(result.states)
            c["observation.orwellian_image_nfa.nfa_transitions"] += len(result.transitions)

        def reduction(key):
            def count(args, result):
                c[key] += len(result.lts.states)
            return count

        def parsed(args, result):
            c["modelfile.parse_model.bytes"] += len(args[0].encode())

        return {
            "automata.determinize": determinize,
            "automata.product": sized("automata.product.pairs"),
            "automata.entry_words": entries,
            "observation.orwellian_image_nfa": image,
            "reductions.opacity_to_ni": reduction("reductions.opacity_to_ni.out_states"),
            "reductions.opacity_to_ini": reduction("reductions.opacity_to_ini.out_states"),
            "reductions.ini_to_opacity": reduction("reductions.ini_to_opacity.out_states"),
            "modelfile.parse_model": parsed,
        }

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"opaqcheck.{layer}") for layer in LAYERS}
        package = [m for name, m in sorted(sys.modules.items()) if name == "opaqcheck" or name.startswith("opaqcheck.")]
        counters = self._counters()
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(fn)] = self._wrap(fn, name, counters.get(name))
        for module in package:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, None))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def mark(self) -> tuple[int, dict]:
        """Position to aggregate from: span count and a counter snapshot."""
        return len(self.start), dict(self.counters)

    def aggregate(self, since: tuple[int, dict]) -> dict[str, float]:
        """Calls, total and self time per span name, and every counter, for
        the spans and counts recorded after ``since``."""
        first, before = since
        n = len(self.start) - first
        covered = [0.0] * n
        for i in range(first, first + n):
            p = self.parent[i]
            if p >= first:
                covered[p - first] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(first, first + n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += duration
            out[f"{name}.self_s"] += duration - covered[i - first]
        for key, value in self.counters.items():
            out[key] += value - before.get(key, 0.0)
        return dict(out)

    def write(self, stem: str, check_ids: list[str]) -> None:
        """All spans, as ``<stem>.bin`` and a ``<stem>.json`` that describes it.

        The binary file holds five native arrays of ``count`` items each, in
        this order: name index (int32), check index (int32, -1 outside a
        check), parent span index (int32, -1 for none), start and end
        (float64 seconds of ``time.perf_counter``).
        """
        with open(f"{stem}.bin", "wb") as f:
            for column in (self.name, self.check, self.parent, self.start, self.end):
                column.tofile(f)
        with open(f"{stem}.json", "w") as f:
            json.dump({"count": len(self.start), "columns": ["name:i", "check:i", "parent:i", "start:d", "end:d"],
                       "names": self.names, "checks": check_ids}, f)
