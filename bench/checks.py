"""Correctness checks on CLI results, and the statistics the benchmark reports.

A result fails when its exit code is not 0, when it reports a theorem
``VIOLATION``, when a gallery verdict it prints contradicts
``GalleryEntry.expected``, when an orbit answer disagrees with the naive
oracle, or when the digest of its bucket differs from the pinned one.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from workloads import Op

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


@dataclass
class Result:
    op: Op
    rc: int
    out: str
    seconds: float
    start: float = 0.0  # perf_counter() when the call began
    failure: Optional[str] = None

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason


def digest(outputs: Iterable[str]) -> str:
    """First 16 hex digits of the SHA-256 of the outputs, NUL-separated."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(out.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def bucket_digests(results: Iterable[Result]) -> dict[int, str]:
    by_bucket: dict[int, list[Result]] = defaultdict(list)
    for r in results:
        by_bucket[r.op.bucket].append(r)
    return {
        b: digest(r.out for r in sorted(rs, key=lambda r: r.op.pos))
        for b, rs in by_bucket.items()
    }


def load_pinned(workload: str) -> dict[str, list[str]]:
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(workload, {})


def check_digests(results: list[Result], pinned: dict[str, list[str]]) -> None:
    """Fail every result of a bucket whose digest is not the pinned one.

    ``results`` hold one pass of one kind, and ``pinned`` maps each kind to
    the digests of its buckets.
    """
    actual = bucket_digests(results)
    pinned = pinned.get(results[0].op.kind, []) if results else []
    for r in results:
        b = r.op.bucket
        if b >= len(pinned) or actual[b] != pinned[b]:
            r.fail(f"digest of {r.op.kind} bucket {b} differs from the pinned one")


def parse_verdicts(out: str) -> dict[str, bool]:
    """``name: true|false  [witness]`` lines of ``classify``."""
    verdicts = {}
    for line in out.splitlines():
        name, sep, rest = line.partition(": ")
        if sep:
            verdicts[name] = rest.split()[0] == "true"
    return verdicts


def parse_orbit(out: str) -> tuple[frozenset[str], bool]:
    """Members and ``self_readded`` of an ``orbit`` answer."""
    members = []
    self_readded = None
    for line in out.splitlines():
        if line.startswith("self_readded: "):
            self_readded = line.split(": ", 1)[1] == "true"
        elif line.startswith("  "):
            members.append(line.split()[0])
    if self_readded is None:
        raise ValueError("orbit output has no self_readded line")
    return frozenset(members), self_readded


def check_outputs(
    results: list[Result],
    expected: dict[str, bool],
    oracle: Optional[Callable[[Op], tuple[frozenset[str], bool]]] = None,
) -> None:
    """Every check but the digest; ``oracle`` answers plain orbit queries."""
    for r in results:
        if r.rc != 0:
            r.fail(f"exit code {r.rc}")
        elif r.op.kind == "verify" and "VIOLATION" in r.out:
            r.fail("theorem VIOLATION")
        elif r.op.kind == "classify" and expected:
            got = parse_verdicts(r.out)
            wrong = sorted(k for k, v in expected.items() if got.get(k) != v)
            if wrong:
                r.fail(f"gallery verdicts differ from GalleryEntry.expected: {wrong}")
        elif r.op.kind == "orbit" and oracle is not None:
            try:
                answer = parse_orbit(r.out)
            except ValueError as exc:
                r.fail(str(exc))
                continue
            if answer != oracle(r.op):
                r.fail(f"orbit of {r.op.start} differs from the naive oracle")


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation between closest ranks).

    A tail percentile (``q > 50``) is refused unless at least ten samples
    lie beyond it, so that it is never set by a handful of values.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if q > 50 and n * (100 - q) / 100 < 10:
        raise ValueError(f"p{q:g} needs at least ten samples beyond it, got {n} samples")
    ordered = sorted(samples)
    pos = (n - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latency_summary(samples: list[float]) -> dict[str, float]:
    """Median and p90 of a latency sample, with its sample count."""
    return {"n": len(samples), "p50": percentile(samples, 50), "p90": percentile(samples, 90)}


def fit_exponent(sizes: Sequence[float], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(seconds) against log(size); sizes differ."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
