"""Spans and counters at the package's layer boundaries, from outside the package.

``install`` wraps the package's public functions, ``Classifier`` methods,
theorem checks and ``cli.main`` in place, in every loaded ``flowcomplex``
module that holds a reference to them (``classify``, ``theorems`` and
``cli`` import functions by name), and ``uninstall`` puts the originals
back.  A name missing from the package is skipped, and its metrics read 0.

A span is ``[name, start, end, parent index]``; spans are kept in memory
and written out at the end.  A layer's self time is its span time minus
the time of its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

PKG = "flowcomplex"

# span name, module, function
FUNCTIONS = (
    ("textio.parse", "textio", "parse"),
    ("model.validate", "model", "validate"),
    ("model.closure_of", "model", "closure_of"),
    ("orbits.extended_orbit", "orbits", "extended_orbit"),
    ("orbits.generalized_extended_orbit", "orbits", "generalized_extended_orbit"),
    ("orbits.generalized_saddle_sets", "orbits", "generalized_saddle_sets"),
    ("orbits.orbit_set_closure", "orbits", "orbit_set_closure"),
    ("orbits.extended_limit_cycles", "orbits", "extended_limit_cycles"),
)

# span name, Classifier cache method, the engine span a cache miss reaches
CACHES = (
    ("classify.ext", "ext", "orbits.extended_orbit"),
    ("classify.gen_ext", "gen_ext", "orbits.generalized_extended_orbit"),
    ("classify.closure", "closure", "model.closure_of"),
)
# span name, Classifier verdict method, named after the report field it decides
VERDICTS = (
    ("classify.non_wandering", "nonwandering"),
    ("classify.recurrent", "recurrent_flow"),
    ("classify.extended_recurrent", "extended_recurrent"),
    ("classify.extended_pap", "extended_pap"),
    ("classify.extended_r_closed", "extended_r_closed"),
    ("classify.regular", "regular"),
    ("classify.generalized_recurrent", "generalized_recurrent"),
)
METHODS = (*((span, method) for span, method, _ in CACHES), ("classify.blocks", "blocks"), *VERDICTS)

# counters kept by the hooks below, reported as they are
COUNTERS = (
    "textio.parse.bytes",
    "orbits.extended_orbit.members",
    "orbits.extended_orbit.rounds",
    "orbits.generalized_extended_orbit.members",
    "classify.blocks.distinct",
    "classify.blocks.max_size",
    "theorems.applicable",
    "theorems.inapplicable",
)

THEOREMS = (
    "closed-extended-orbit-equivalence",
    "extended-periodic-finiteness",
    "extended-recurrence-implies-nonwandering",
    "finite-singularity-rclosed-equivalence",
    "genus-zero-equivalence",
    "limit-cycles-force-wandering",
    "nonclosed-orbit-dichotomy",
    "partition-implies-extended-recurrence",
    "rclosed-implies-partition",
    "rclosed-singularity-structure",
    "regular-orbit-closure-dichotomy",
    "regularity-equivalence",
)

CLI_COMMANDS = ("classify", "verify", "orbit")


class Tracer:
    """Spans and counters of the current pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._blocks_seen: dict[int, object] = {}
        self._restore: list[Callable[[], None]] = []

    def take(self) -> tuple[list[list], Counter]:
        """Hand over what was recorded since the last call and start afresh."""
        spans, counters = self.spans, self.counters
        self.spans, self.counters, self._blocks_seen = [], Counter(), {}
        return spans, counters

    def wrap(self, fn: Callable, name, on_result=None) -> Callable:
        """``name`` is a span name, or a function of the call's arguments."""
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            rec = [name if isinstance(name, str) else name(args), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer boundary of the loaded package."""
        modules = [m for k, m in list(sys.modules.items()) if k == PKG or k.startswith(PKG + ".")]
        for span, mod_name, attr in FUNCTIONS:
            mod = sys.modules.get(f"{PKG}.{mod_name}")
            orig = getattr(mod, attr, None)
            if orig is not None:
                self._replace_everywhere(modules, orig, self.wrap(orig, span, _HOOKS.get(span)))
        cls = getattr(sys.modules.get(f"{PKG}.classify"), "Classifier", None)
        for span, method in METHODS if cls is not None else ():
            orig = cls.__dict__.get(method)
            if orig is not None:
                self._set(cls, method, self.wrap(orig, span, _HOOKS.get(span)))
        theorems = sys.modules.get(f"{PKG}.theorems")
        checks = getattr(theorems, "THEOREM_CHECKS", None)
        if checks is not None:
            wrapped = tuple((n, self.wrap(fn, f"theorems.{n}", _count_theorem)) for n, fn in checks)
            self._set(theorems, "THEOREM_CHECKS", wrapped)
        cli = sys.modules.get(f"{PKG}.cli")
        if getattr(cli, "main", None) is not None:
            self._set(cli, "main", self.wrap(cli.main, _cli_span))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _replace_everywhere(self, modules, orig, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)


def _cli_span(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def _count_parse(tracer: Tracer, args, result) -> None:
    tracer.counters["textio.parse.bytes"] += len(args[0].encode("utf-8"))


def _count_extension(tracer: Tracer, args, result) -> None:
    tracer.counters["orbits.extended_orbit.members"] += len(result.members)
    tracer.counters["orbits.extended_orbit.rounds"] += result.depth


def _count_generalized(tracer: Tracer, args, result) -> None:
    tracer.counters["orbits.generalized_extended_orbit.members"] += len(result.members)


def _count_blocks(tracer: Tracer, args, result) -> None:
    # blocks() is cached per Classifier; count each computed mapping once
    if id(result) in tracer._blocks_seen:
        return
    tracer._blocks_seen[id(result)] = result
    values = list(result.values())
    tracer.counters["classify.blocks.distinct"] += len(set(values))
    size = max((len(b) for b in values), default=0)
    tracer.counters["classify.blocks.max_size"] = max(tracer.counters["classify.blocks.max_size"], size)


def _count_theorem(tracer: Tracer, args, result) -> None:
    inapplicable = getattr(result.status, "value", result.status) == "Inapplicable"
    tracer.counters["theorems.inapplicable" if inapplicable else "theorems.applicable"] += 1


_HOOKS = {
    "textio.parse": _count_parse,
    "orbits.extended_orbit": _count_extension,
    "orbits.generalized_extended_orbit": _count_generalized,
    "classify.blocks": _count_blocks,
}


def span_self(spans: list[list]) -> list[float]:
    """Each span's time minus the time of its child spans."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans: list[list], selfs: Optional[list[float]] = None, lo: int = 0, hi: Optional[int] = None) -> dict[str, float]:
    """Self time summed per span name, over the spans ``lo:hi``."""
    if selfs is None:
        selfs = span_self(spans)
    out: dict[str, float] = defaultdict(float)
    for i in range(lo, len(spans) if hi is None else hi):
        out[spans[i][0]] += selfs[i]
    return dict(out)


def layer_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Every per-layer metric of one traced round (all names, 0 when absent)."""
    selfs = self_times(spans)
    calls = Counter(s[0] for s in spans)
    child_names: dict[int, set] = defaultdict(set)
    for name, _, _, parent in spans:
        if parent >= 0:
            child_names[parent].add(name)

    m: dict[str, float] = {}
    for span, _, _ in FUNCTIONS:
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.self_s"] = selfs.get(span, 0.0)
    for span, _, engine in CACHES:
        # a cached answer is a call that did not reach the engine below it
        misses = sum(1 for i, s in enumerate(spans) if s[0] == span and engine in child_names.get(i, ()))
        m[f"{span}.calls"] = calls[span]
        m[f"{span}.hit_ratio"] = (calls[span] - misses) / calls[span] if calls[span] else 0.0
        m[f"{span}.self_s"] = selfs.get(span, 0.0)
    m["classify.blocks.self_s"] = selfs.get("classify.blocks", 0.0)
    for span, _ in VERDICTS:
        m[f"{span}.self_s"] = selfs.get(span, 0.0)
    for name in THEOREMS:
        m[f"theorems.{name}.self_s"] = selfs.get(f"theorems.{name}", 0.0)
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = selfs.get(f"cli.{cmd}", 0.0)
    for name in COUNTERS:
        m[name] = counters[name]
    m["trace.self_sum_s"] = sum(selfs.values())
    return m


def write_spans(path: Path, spans: list[list], bounds: dict[str, tuple[int, int]]) -> int:
    """Write spans as gzipped JSON lines ``[index, pass, name, start, end, parent]``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
        for kind, (lo, hi) in bounds.items():
            for i in range(lo, hi):
                f.write(json.dumps([i, kind, *spans[i]]) + "\n")
    return sum(hi - lo for lo, hi in bounds.values())


def top_layers(spans: list[list], selfs: list[float], lo: int, hi: int, limit: int = 5) -> list[tuple[str, float]]:
    """The span names with the largest self time in ``lo:hi``, largest first."""
    return sorted(self_times(spans, selfs, lo, hi).items(), key=lambda kv: -kv[1])[:limit]
