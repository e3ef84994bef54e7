#!/usr/bin/env python3
"""Layered benchmark of the flowcomplex CLI: classify, verify and orbit queries.

    python3 bench/run.py --workload saddle_nest --seed 1 --seconds 8 --trace 0

Run it from the root of a source checkout; it imports ``src/flowcomplex``
and the naive oracle in ``tests/``.  Set-up builds the workload's documents
with the package and writes them to files under ``.bench_out/``; every
measured operation is a real ``flowcomplex.cli.main([...])`` call on those
files.  Load is one closed loop in one process and one thread: each call
starts after the previous one returns.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the passes
with spans at every layer boundary and prints the per-layer metrics.  Every
output is checked (see ``checks.py``).  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prefixes each metric
with its workload name.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import tracing
import workloads
from checks import Result
from speed import Speed
from workloads import KINDS, WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
ORACLE = "naive_oracle"
# set-up is repeated at least SETUP_MIN_REPS times and for SETUP_MIN_SECONDS
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0
# every kind gets at least this many passes, so each operation's time is a
# median of at least three repeats
MIN_PASSES = 3
# passes of each kind per pass of an orbit kind: on the gallery workloads a
# classify or verify pass is one call of up to 1.5 s, whose median needs more
# repeats than the 100+ queries of an orbit pass
PASS_WEIGHT = {"classify": 2.0, "verify": 2.0, "orbit": 1.0, "orbit_gen": 1.0}
# the seconds of calls that count as much as one weighted pass
PASS_SECONDS = 1.0
SCALING_SIZES = (10, 20, 40)
SCALING_MIN_SECONDS = 0.5

END_TO_END = (
    ("classify_s", "s"),
    ("verify_s", "s"),
    ("orbit_p50_ms", "ms"),
    ("orbit_p90_ms", "ms"),
    ("gen_orbit_p50_ms", "ms"),
    ("gen_orbit_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_exponent")):
        return "1"
    return "count"


@dataclass
class Context:
    """Everything a pass needs, built once per run."""

    wl: Workload
    cli: object
    ops: dict[str, list[Op]]
    rng: random.Random
    pinned: dict[str, list[str]]
    expected: dict[str, bool]
    oracle: Callable[[Op], tuple[frozenset[str], bool]]
    paths: list[str]
    pool: list[tuple[int, str]]
    ids: int
    doc_bytes: int
    work: Path
    speed: Speed

    def describe(self) -> str:
        docs = len(self.ops["classify"])
        return f"{docs} document{'s' if docs != 1 else ''}, {self.ids} ids, {self.doc_bytes} B"


def invoke(cli, argv: tuple[str, ...]) -> tuple[int, str, str, float, float]:
    """One CLI call with stdout and stderr captured; returns rc, out, err, start, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        seconds = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), start, seconds


def run_ops(ctx: Context, ops: list[Op]) -> list[Result]:
    results = []
    for op in ops:
        rc, out, err, start, seconds = invoke(ctx.cli, op.argv)
        r = Result(op, rc, out, seconds, start)
        if rc != 0:
            r.fail(f"exit code {rc}: {err.strip()[-200:]}")
        results.append(r)
    return results


def run_pass(ctx: Context, kind: str, shuffle: bool = True) -> list[Result]:
    ops = list(ctx.ops[kind])
    if shuffle:
        ctx.rng.shuffle(ops)
    gc.collect()
    return run_ops(ctx, ops)


class Stream:
    """The passes of one kind, run a chunk at a time."""

    def __init__(self, ctx: Context, kind: str):
        self.ctx, self.kind = ctx, kind
        self.passes: list[list[Result]] = []
        self.queue: list[Op] = []
        self.per_pass = len(ctx.ops[kind])
        self.spent = 0.0

    @property
    def done(self) -> int:
        """Number of complete passes."""
        return len(self.passes) - bool(self.queue)

    def progress(self) -> float:
        """Passes run so far, counting the one under way in part."""
        return self.done + (self.per_pass - len(self.queue)) / self.per_pass * bool(self.queue)

    def pass_seconds(self) -> float:
        """Time of the last complete pass (0 before there is one)."""
        return pass_seconds(self.passes[self.done - 1]) if self.done else 0.0

    def step(self) -> None:
        if not self.queue:
            self.queue = list(self.ctx.ops[self.kind])
            self.ctx.rng.shuffle(self.queue)
            self.passes.append([])
        chunk, self.queue = self.queue[:workloads.BUCKET_SIZE], self.queue[workloads.BUCKET_SIZE:]
        results = run_ops(self.ctx, chunk)
        self.passes[-1] += results
        self.spent += pass_seconds(results)

    def credit(self) -> float:
        """How far this kind has got: its weighted passes or its seconds of
        calls over PASS_SECONDS, whichever is less.  A kind with cheap passes
        thus keeps its turns until it has had its share of time too."""
        return min(self.progress() / PASS_WEIGHT[self.kind], self.spent / PASS_SECONDS)


def set_up(wl: Workload, work: Path, repeat: bool):
    """Import the package and build and write the documents.

    With ``repeat`` this is done SETUP_MIN_REPS times and for at least
    SETUP_MIN_SECONDS.  Each repetition drops the package from
    ``sys.modules`` first, so the import is timed every time; the last
    one's modules are used afterwards.
    """
    times: list[tuple[float, float]] = []  # (start, seconds)
    while not times or repeat and (len(times) < SETUP_MIN_REPS or sum(t for _, t in times) < SETUP_MIN_SECONDS):
        # the oracle binds to the package's enums, so it goes with the package
        for name in [m for m in sys.modules if m == ORACLE or m == tracing.PKG or m.startswith(tracing.PKG + ".")]:
            del sys.modules[name]
        start = time.perf_counter()
        fcx = importlib.import_module(tracing.PKG)
        cli = importlib.import_module(f"{tracing.PKG}.cli")
        texts = workloads.documents(fcx, wl)
        paths = workloads.write_documents(wl.name, texts, work)
        times.append((start, time.perf_counter() - start))
    return fcx, cli, texts, paths, times


def make_context(wl: Workload, seed: int, work: Path, speed: Speed, repeat_setup: bool) -> tuple[Context, list[tuple[float, float]]]:
    fcx, cli, texts, paths, setup_times = set_up(wl, work, repeat_setup)
    # imported after the last set-up so that it binds to the same modules
    naive_oracle = importlib.import_module(ORACLE)
    complexes = [fcx.parse(text) for text in texts]
    rng = random.Random(seed)
    pool = workloads.orbit_pool([fc.all_ids for fc in complexes])
    buckets = workloads.sample_buckets(rng, len(pool))
    ops = {kind: workloads.document_ops(kind, paths) for kind in ("classify", "verify")}
    for kind in ("orbit", "orbit_gen"):
        ops[kind] = workloads.orbit_ops(kind, paths, pool, buckets)
        if len(ops[kind]) < 100:
            raise SystemExit(f"error: {wl.name} gives only {len(ops[kind])} orbit queries per pass")
    entry = fcx.gallery.GALLERY_BY_NAME[wl.gallery] if wl.gallery else None

    def oracle(op: Op) -> tuple[frozenset[str], bool]:
        return naive_oracle.naive_extended_orbit(complexes[op.doc], op.start, fcx.Direction.BOTH)

    ctx = Context(
        wl=wl,
        cli=cli,
        ops=ops,
        rng=rng,
        pinned=checks.load_pinned(wl.name),
        expected=dict(entry.expected) if entry else {},
        oracle=oracle,
        paths=paths,
        pool=pool,
        ids=sum(len(fc.all_ids) for fc in complexes),
        doc_bytes=sum(len(t.encode("utf-8")) for t in texts),
        work=work,
        speed=speed,
    )
    return ctx, setup_times


def checked(ctx: Context, results: list[Result]) -> list[Result]:
    checks.check_outputs(results, ctx.expected)
    checks.check_digests(results, ctx.pinned)
    return results


def check_with_oracle(ctx: Context, results: list[Result]) -> None:
    """Compare one pass of plain orbit answers with the naive oracle, untimed."""
    checks.check_outputs(results, ctx.expected, ctx.oracle)


def pass_seconds(results: list[Result]) -> float:
    return sum(r.seconds for r in results)


def measure(ctx: Context, seconds: float, setup_times: list[tuple[float, float]]) -> tuple[dict, list[Result], list[str]]:
    """Timed passes for ``seconds``, then one untimed pass for peak memory.

    The kinds are interleaved a chunk at a time: each step runs the next
    chunk of the kind with the least ``Stream.credit``, so every metric
    samples the whole run rather than one stretch of it.  A pass is not
    begun if its last one took longer than the time left, unless the kind
    has fewer than MIN_PASSES; passes under way when time is up are
    finished, since their digests are checked a whole bucket at a time.
    """
    streams = [Stream(ctx, kind) for kind in KINDS]
    start = time.perf_counter()
    while True:
        left = seconds - (time.perf_counter() - start)
        ready = [s for s in streams if s.queue or s.done < MIN_PASSES or 0 < s.pass_seconds() <= left]
        if not ready:
            break
        min(ready, key=Stream.credit).step()
    ctx.speed.stop()
    passes = {s.kind: s.passes for s in streams}
    for kind_passes in passes.values():
        for p in kind_passes:
            checked(ctx, p)
    check_with_oracle(ctx, passes["orbit"][0])

    peak_mb, mem = peak_rss(ctx)

    medians = {kind: op_medians(kind_passes, ctx.speed.scaled) for kind, kind_passes in passes.items()}
    orbit = query_percentiles(medians["orbit"], passes["orbit"])
    gen = query_percentiles(medians["orbit_gen"], passes["orbit_gen"])
    values = {
        "classify_s": sum(medians["classify"].values()),
        "verify_s": sum(medians["verify"].values()),
        "orbit_p50_ms": orbit["p50"],
        "orbit_p90_ms": orbit["p90"],
        "gen_orbit_p50_ms": gen["p50"],
        "gen_orbit_p90_ms": gen["p90"],
        "setup_s": statistics.median(ctx.speed.scale(s, t) for s, t in setup_times),
        "peak_mem_mb": peak_mb,
    }
    size = ctx.describe()
    notes = {
        "classify_s": f"{repeats_note(passes['classify'])}, summed over documents; {size}",
        "verify_s": f"{repeats_note(passes['verify'])}, summed over documents; {size}",
        "orbit_p50_ms": f"{orbit['note']}; {size}",
        "orbit_p90_ms": f"{orbit['note']}; {size}",
        "gen_orbit_p50_ms": f"{gen['note']}; {size}",
        "gen_orbit_p90_ms": f"{gen['note']}; {size}",
        "setup_s": f"median of {len(setup_times)} set-ups (import, build, emit, write); {size}",
        "peak_mem_mb": f"peak RSS of a fresh interpreter over one classify+verify pass; {size}",
    }
    results = [r for ps in passes.values() for p in ps for r in p] + [mem]
    metrics = {name: (values[name], unit, notes[name]) for name, unit in END_TO_END}
    lines = [
        f"  times are scaled to reference speed; the host ran at {1 / ctx.speed.median_factor():.3f}x "
        f"the reference time over {len(ctx.speed.took)} reference samples (see speed.py)"
    ]
    return metrics, results, lines


def op_medians(passes: list[list[Result]], scaled: Callable[[Result], float]) -> dict[tuple, float]:
    """Each operation's median scaled time (s) over its repeats.

    Every pass runs each operation once, so an operation's repeats are
    spread over the run; the median of its repeats shrugs off a burst of
    host load that a single repeat met.
    """
    repeats: dict[tuple, list[float]] = defaultdict(list)
    for p in passes:
        for r in p:
            repeats[r.op.argv].append(scaled(r))
    return {argv: statistics.median(v) for argv, v in repeats.items()}


def repeats_note(passes: list[list[Result]]) -> str:
    fewest = min(Counter(r.op.argv for p in passes for r in p).values())
    return f"each call the median of {fewest}+ repeats ({len(passes)} passes)"


def query_percentiles(medians: dict[tuple, float], passes: list[list[Result]]) -> dict:
    """p50 and p90 in ms over the sampled queries, each at its median latency."""
    summary = checks.latency_summary([v * 1e3 for v in medians.values()])
    summary["note"] = f"n={summary['n']} queries, {repeats_note(passes)}"
    return summary


def peak_rss(ctx: Context) -> tuple[float, Result]:
    """Peak RSS (MB) of an untimed classify+verify pass in a child interpreter."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("peak_rss.py")), str(ROOT / "src"), *ctx.paths],
        capture_output=True,
        text=True,
        check=False,
    )
    op = Op("peak_rss", 0, 0, ("peak_rss.py",), 0)
    r = Result(op, child.returncode, child.stdout, 0.0)
    if child.returncode != 0:
        r.fail(f"exit code {child.returncode}: {child.stderr.strip()[-200:]}")
        return 0.0, r
    return int(child.stdout.split()[-1]) * 1024 / 1e6, r


def tracemalloc_peak(ctx: Context) -> tuple[float, list[Result]]:
    """Python-heap peak (MB) over one untraced classify+verify pass."""
    gc.collect()
    tracemalloc.start()
    try:
        results = run_pass(ctx, "classify", shuffle=False) + run_pass(ctx, "verify", shuffle=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    checked(ctx, [r for r in results if r.op.kind == "classify"])
    checked(ctx, [r for r in results if r.op.kind == "verify"])
    return peak / 1e6, results


def scaling(ctx: Context) -> tuple[float, list[str], list[Result]]:
    """Untraced ``classify`` on nested_saddles_disk at each of SCALING_SIZES."""
    fcx = sys.modules[tracing.PKG]
    sizes, times, lines, results = [], [], [], []
    for n in SCALING_SIZES:
        text = fcx.emit(fcx.build("nested_saddles_disk", {"n": n}))
        path = ctx.work / f"scaling-{n}.fc"
        path.write_text(text, encoding="utf-8")
        op = Op("scaling", 0, 0, ("classify", str(path)), 0)
        samples = []
        while sum(samples) < SCALING_MIN_SECONDS or not samples:
            results += run_ops(ctx, [op])
            samples.append(results[-1].seconds)
        ids = len(fcx.parse(text).all_ids)
        sizes.append(ids)
        times.append(statistics.median(samples))
        lines.append(
            f"  scaling nested_saddles_disk n={n}: {ids} ids, {len(text.encode('utf-8'))} B, "
            f"classify {times[-1]:.6f} s (median of {len(samples)})"
        )
    return checks.fit_exponent(sizes, times), lines, results


def traced(ctx: Context, seconds: float, seed: int) -> tuple[dict, list[Result], list[str]]:
    """Rounds of one untraced classify+verify and one traced pass of every kind."""
    tracer = tracing.Tracer()
    rounds: list[dict[str, float]] = []
    results: list[Result] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not rounds:
        plain = checked(ctx, run_pass(ctx, "classify")) + checked(ctx, run_pass(ctx, "verify"))
        results += plain
        bounds, walls = {}, {}
        tracer.install()
        try:
            for kind in KINDS:
                lo = len(tracer.spans)
                t0 = time.perf_counter()
                rs = run_pass(ctx, kind)
                walls[kind] = time.perf_counter() - t0
                bounds[kind] = (lo, len(tracer.spans))
                results += checked(ctx, rs)
                if kind == "orbit" and not rounds:
                    first_orbit = rs
                if kind in ("classify", "verify"):
                    walls[kind + "_ops"] = pass_seconds(rs)
        finally:
            tracer.uninstall()
        spans, counters = tracer.take()
        m = tracing.layer_metrics(spans, counters)
        traced_cv = walls["classify_ops"] + walls["verify_ops"]
        m["trace.overhead_ratio"] = traced_cv / pass_seconds(plain)
        m["trace.self_sum_ratio"] = m.pop("trace.self_sum_s") / sum(walls[k] for k in KINDS)
        rounds.append(m)

    check_with_oracle(ctx, first_orbit)
    exponent, scaling_lines, scaling_results = scaling(ctx)
    results += scaling_results
    heap_peak, mem_results = tracemalloc_peak(ctx)
    results += mem_results

    metrics = {
        "workload.ids": (ctx.ids, "count", ctx.describe()),
        "workload.bytes": (ctx.doc_bytes, "B", ctx.describe()),
    }
    for name in rounds[0]:
        value = statistics.median(r[name] for r in rounds)
        metrics[name] = (value, per_layer_unit(name), f"median of {len(rounds)} traced rounds")
    metrics["memory.tracemalloc_peak_mb"] = (heap_peak, "MB", f"one classify+verify pass; {ctx.describe()}")
    metrics["scaling.classify_exponent"] = (exponent, "1", "log-log slope over " + ", ".join(
        f"n={n}" for n in SCALING_SIZES))

    lines = [f"  last traced round, largest self times per pass ({ctx.describe()}):"]
    selfs = tracing.span_self(spans)
    for kind in KINDS:
        lo, hi = bounds[kind]
        top = tracing.top_layers(spans, selfs, lo, hi)
        total = sum(selfs[lo:hi]) or 1.0
        lines.append(f"    {kind}: " + ", ".join(f"{n} {s:.4f} s ({s / total:.0%})" for n, s in top))
    path = OUT_DIR / f"spans-{ctx.wl.name}-seed{seed}.jsonl.gz"
    count = tracing.write_spans(path, spans, bounds)
    lines.append(f"  wrote {count} spans of the last round to {path.relative_to(ROOT)}")
    return metrics, results, lines + scaling_lines


def use_checkout() -> bool:
    """Put the checkout's package and test oracle on ``sys.path``."""
    if not (ROOT / "src" / tracing.PKG / "__init__.py").is_file():
        print(f"error: no src/{tracing.PKG} under {ROOT}; run from a source checkout", file=sys.stderr)
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return True


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool):
    OUT_DIR.mkdir(exist_ok=True)
    speed = Speed()
    with tempfile.TemporaryDirectory(prefix=f"{wl.name}-", dir=OUT_DIR) as work:
        if trace:
            ctx, _ = make_context(wl, seed, Path(work), speed, repeat_setup=False)
            return traced(ctx, seconds, seed)
        # reference samples interrupt every call, so only untraced runs take them
        speed.start()
        try:
            ctx, setup_times = make_context(wl, seed, Path(work), speed, repeat_setup=True)
            return measure(ctx, seconds, setup_times)
        finally:
            speed.stop()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out_metrics: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        metrics, results, lines = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        bad = [r for r in results if r.failure]
        attempted += len(results)
        failed += len(bad)
        print(f"# {name} seed={args.seed} trace={args.trace}")
        for metric, (value, unit, note) in metrics.items():
            print(f"  {metric:<58} {value:>14.6f} {unit:<5}  {note}")
        ratio = len(bad) / len(results) if results else 0.0
        print(f"  {'fail_ratio':<58} {ratio:>14.6f} {'1':<5}  {len(bad)} failed / {len(results)} attempted")
        for line in lines:
            print(line)
        for r in bad[:5]:
            print(f"FAILED {' '.join(r.op.argv)}: {r.failure}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit, _) in metrics.items():
            out_metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
