"""The benchmark's workloads and the operations each pass runs on them.

Every workload is a fixed list of documents.  The ``--seed`` of a run
picks which orbit queries are asked and the order of every pass, never the
documents themselves, so the pinned output digests hold for every seed.

Operations are grouped into buckets of at most ``BUCKET_SIZE``; a bucket is
the unit whose concatenated stdout is digest-pinned.  ``classify`` and
``verify`` buckets are runs of consecutive documents.  Orbit buckets are
strided over the pool of every (document, id) pair, so that each bucket
spreads over the whole pool and a seeded choice of a few buckets is a fair
sample of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BUCKET_SIZE = 16
# 7 buckets of at least 15 queries: every orbit pass has >= 105 queries,
# so its p90 has at least ten samples beyond it.
ORBIT_BUCKETS = 7

KINDS = ("classify", "verify", "orbit", "orbit_gen")


@dataclass(frozen=True)
class Workload:
    name: str
    gallery: Optional[str]  # gallery entry to build, or None for the random sweep
    n: int                  # gallery size parameter, or the number of random_complex seeds


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # plain extension fixpoints and block comparison dominate (cubic growth)
        Workload("saddle_nest", "nested_saddles_disk", 40),
        # generalized extension and saddle-set admission dominate
        Workload("double_center", "double_center_sphere", 40),
        # 1923 ids with shallow extensions: pairwise decomposition and parse/validate
        Workload("comb_wide", "comb_torus", 640),
        # the acceptance sweep, random_complex seeds 0..999: fixed per-call costs
        Workload("random_sweep", None, 1000),
    )
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` for ``flowcomplex.cli.main``."""

    kind: str
    bucket: int
    pos: int  # position inside its bucket, which fixes the digest order
    argv: tuple[str, ...]
    doc: int
    start: Optional[str] = None


def documents(fcx, wl: Workload) -> list[str]:
    """Build and emit the workload's documents with the package ``fcx``."""
    if wl.gallery is not None:
        return [fcx.emit(fcx.build(wl.gallery, {"n": wl.n}))]
    return [fcx.emit(fcx.random_complex(seed)) for seed in range(wl.n)]


def write_documents(name: str, texts: list[str], work: Path) -> list[str]:
    paths = []
    for i, text in enumerate(texts):
        path = work / f"{name}-{i:04d}.fc"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def document_ops(kind: str, paths: list[str]) -> list[Op]:
    """One ``classify`` or ``verify`` call per document, in document order."""
    return [
        Op(kind, i // BUCKET_SIZE, i % BUCKET_SIZE, (kind, path), i)
        for i, path in enumerate(paths)
    ]


def orbit_pool(ids_per_doc: list[list[str]]) -> list[tuple[int, str]]:
    return [(doc, xid) for doc, ids in enumerate(ids_per_doc) for xid in sorted(ids)]


def orbit_bucket_count(pool_size: int) -> int:
    return -(-pool_size // BUCKET_SIZE)


def orbit_ops(kind: str, paths: list[str], pool: list[tuple[int, str]], buckets: list[int]) -> list[Op]:
    """Queries of the chosen strided buckets; ``orbit_gen`` adds ``--generalized``."""
    stride = orbit_bucket_count(len(pool))
    extra = ("--generalized",) if kind == "orbit_gen" else ()
    ops = []
    for b in buckets:
        for pos, (doc, xid) in enumerate(pool[b::stride]):
            ops.append(Op(kind, b, pos, ("orbit", paths[doc], "--start", xid) + extra, doc, xid))
    return ops


def sample_buckets(rng: random.Random, pool_size: int) -> list[int]:
    count = orbit_bucket_count(pool_size)
    return sorted(rng.sample(range(count), min(count, ORBIT_BUCKETS)))
