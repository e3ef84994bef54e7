"""Golden output digests: the classification and theorem output of the
gallery and the acceptance sweep, and of the documents of about 10^4 ids
that ``tests/test_scale.py`` checks, and every extended orbit of the gallery
and part of the sweep, each pinned as one SHA-256.

A speed-up must leave the digests unchanged.  A change that means to alter
output re-pins them: run ``python3 tests/test_golden.py`` from the
repository root (with ``src`` on ``PYTHONPATH``), check that the changed
verdicts, witnesses, theorem details and orbits are the intended ones, paste
the printed ``GOLDEN_DIGEST``, ``SCALE_DIGEST`` and ``ORBIT_DIGEST`` lines
over the ones below and say in ``CHANGES.md`` why they moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import flowcomplex
from flowcomplex import (
    GALLERY,
    ClassificationReport,
    Direction,
    Expansion,
    FlowComplex,
    TheoremResult,
    build,
    classification_report,
    random_complex,
    verify_theorems,
)

GOLDEN_DIGEST = "e8dd3f4c655a0190d346559f18d099c50bd9c2064fd9c08bd1aa16632710db98"
SCALE_DIGEST = "b77568ba61abe015c860914322d503f0c4858edca6fa5b05c7a82380f7b47f65"
ORBIT_DIGEST = "966b0e310913be21b1fb74bb60d5f7627f1d59ee48c7ac8fd494da0ea95ecac9"

# gallery flows of about 10^4 ids each: (name, n)
SCALE_DOCUMENTS = (("nested_saddles_disk", 2000), ("double_center_sphere", 830))


def digest(outputs: Iterable[tuple[ClassificationReport, list[TheoremResult]]]) -> str:
    """SHA-256 over complexes in order: per complex, the sorted-key JSON of
    its classification report and the JSON of its theorem rows, each
    followed by a NUL byte."""
    h = hashlib.sha256()
    for report, results in outputs:
        rows = [(t.theorem, t.status.value, t.detail) for t in results]
        for text in (json.dumps(report.as_dict(), sort_keys=True), json.dumps(rows)):
            h.update(text.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def outputs(complexes: Iterable[FlowComplex]) -> Iterable[tuple[ClassificationReport, list[TheoremResult]]]:
    for fc in complexes:
        yield classification_report(fc), verify_theorems(fc)


def output_digest() -> str:
    """``digest`` of the 9 gallery flows (default parameters), then
    ``random_complex`` seeds 0..999."""
    complexes = [build(entry.name) for entry in GALLERY]
    complexes += [random_complex(seed) for seed in range(1000)]
    return digest(outputs(complexes))


def scale_digest() -> str:
    """``digest`` of the ``SCALE_DOCUMENTS``, in order."""
    return digest(outputs(build(name, {"n": n}) for name, n in SCALE_DOCUMENTS))


def orbit_digest() -> str:
    """SHA-256 over the 9 gallery flows (default parameters), then
    ``random_complex`` seeds 0..199: per complex, the plain then the
    generalized engine; per engine, every id in sorted order; per id, every
    ``Direction``: the JSON of the extended orbit's start, direction, sorted
    members, sorted ``added_round`` items, depth and ``self_readded``,
    followed by a NUL byte."""
    h = hashlib.sha256()
    complexes = [build(entry.name) for entry in GALLERY]
    complexes += [random_complex(seed) for seed in range(200)]
    for fc in complexes:
        for engine in (Expansion.plain(fc), Expansion.generalized(fc)):
            for xid in sorted(fc.all_ids):
                for direction in Direction:
                    ext = engine.orbit(xid, direction)
                    row = [ext.start, ext.direction.value, sorted(ext.members), sorted(ext.added_round.items()), ext.depth, ext.self_readded]
                    h.update(json.dumps(row).encode("utf-8"))
                    h.update(b"\0")
    return h.hexdigest()


def test_output_digest_is_pinned():
    assert output_digest() == GOLDEN_DIGEST


def test_orbit_digest_is_pinned():
    assert orbit_digest() == ORBIT_DIGEST


def run_as_script(runs: list[tuple[str, dict[str, str]]]) -> list[tuple[int, str]]:
    """Run this file as a script once per ``(interpreter, environment
    variables)``, side by side: each run's exit code and stdout."""
    src = str(Path(flowcomplex.__file__).resolve().parent.parent)
    procs = [
        subprocess.Popen([exe, __file__], stdout=subprocess.PIPE, text=True, env={**os.environ, **env, "PYTHONPATH": src})
        for exe, env in runs
    ]
    try:
        outs = [proc.communicate(timeout=300)[0] for proc in procs]
        return [(proc.returncode, out) for proc, out in zip(procs, outs)]
    finally:
        for proc in procs:
            proc.kill()  # a no-op for a run that has ended


PINNED = f'GOLDEN_DIGEST = "{GOLDEN_DIGEST}"\nSCALE_DIGEST = "{SCALE_DIGEST}"\nORBIT_DIGEST = "{ORBIT_DIGEST}"\n'


def test_digests_do_not_depend_on_the_string_hash():
    """The three digests, each computed by this file as a script under
    ``PYTHONHASHSEED`` 0 and 4242."""
    runs = [(sys.executable, {"PYTHONHASHSEED": str(seed)}) for seed in (0, 4242)]
    assert run_as_script(runs) == [(0, PINNED)] * len(runs)


def other_interpreters() -> list[str]:
    """Per ``python3.N`` version with N >= 10 other than the running one, the
    first interpreter of that name on ``PATH`` that starts."""
    found: dict[int, str] = {}
    for directory in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        for path in sorted(Path(directory).glob("python3.*")):
            match = re.fullmatch(r"python3\.(\d+)", path.name)
            minor = int(match[1]) if match else 0
            if minor < 10 or minor == sys.version_info.minor or minor in found:
                continue
            try:
                run = subprocess.run([path, "-c", "import sys; print(sys.version_info[1])"], capture_output=True, text=True, timeout=60)
            except (OSError, subprocess.SubprocessError):
                continue
            if run.returncode == 0 and run.stdout == f"{minor}\n":
                found[minor] = str(path)
    return list(found.values())


def test_digests_hold_on_the_other_interpreters():
    """The three digests, computed by this file as a script under each other
    ``python3.N`` on ``PATH`` (the records lean on ``dataclasses``
    internals that differ between versions)."""
    import pytest  # here, not at the top: the script runs where pytest may be missing

    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.N with N >= 10 on PATH")
    outputs = run_as_script([(exe, {}) for exe in interpreters])
    assert dict(zip(interpreters, outputs)) == {exe: (0, PINNED) for exe in interpreters}


if __name__ == "__main__":
    print(f'GOLDEN_DIGEST = "{output_digest()}"')
    print(f'SCALE_DIGEST = "{scale_digest()}"')
    print(f'ORBIT_DIGEST = "{orbit_digest()}"')
