#!/usr/bin/env python3
"""Pin the digests of every output bucket in ``digests.json``.

    python3 bench/record_digests.py [WORKLOAD ...]

Runs every bucket of every kind once, unshuffled, and refuses to pin a
workload whose outputs fail any other check.  Re-record only when a change
means to alter the CLI's output; the pinned digests are what shows that a
speed-up left every answer byte-identical.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def record(wl: workloads.Workload) -> dict[str, list[str]]:
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=run.OUT_DIR) as work:
        ctx, _ = run.make_context(wl, 0, Path(work), repeat_setup=False)
        every = range(workloads.orbit_bucket_count(len(ctx.pool)))
        pinned = {}
        for kind in workloads.KINDS:
            if kind.startswith("orbit"):
                ctx.ops[kind] = workloads.orbit_ops(kind, ctx.paths, ctx.pool, list(every))
            results = run.run_pass(ctx, kind, shuffle=False)
            checks.check_outputs(results, ctx.expected, ctx.oracle)
            bad = [r for r in results if r.failure]
            if bad:
                raise SystemExit(f"{wl.name}: {len(bad)} {kind} outputs fail, e.g. {bad[0].failure}")
            digests = checks.bucket_digests(results)
            pinned[kind] = [digests[b] for b in sorted(digests)]
            print(f"{wl.name} {kind}: {len(results)} outputs in {len(digests)} buckets", file=sys.stderr)
    return pinned


def main(argv: list[str]) -> int:
    if not run.use_checkout():
        return 2
    run.OUT_DIR.mkdir(exist_ok=True)
    names = argv or list(workloads.WORKLOADS)
    path = checks.DIGESTS_FILE
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in names:
        data[name] = record(workloads.WORKLOADS[name])
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
