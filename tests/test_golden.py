"""Golden output digests: the classification and theorem output of the
gallery and the acceptance sweep, and of the documents of about 10^4 ids
that ``tests/test_scale.py`` checks, each pinned as one SHA-256.

A speed-up must leave both digests unchanged.  A change that means to alter
output re-pins them: run ``python3 tests/test_golden.py`` from the
repository root (with ``src`` on ``PYTHONPATH``), check that the changed
verdicts, witnesses and theorem details are the intended ones, paste the
printed ``GOLDEN_DIGEST`` and ``SCALE_DIGEST`` lines over the ones below and
say in ``CHANGES.md`` why they moved.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable

import flowcomplex
from flowcomplex import (
    GALLERY,
    ClassificationReport,
    FlowComplex,
    TheoremResult,
    build,
    classification_report,
    random_complex,
    verify_theorems,
)

GOLDEN_DIGEST = "e8dd3f4c655a0190d346559f18d099c50bd9c2064fd9c08bd1aa16632710db98"
SCALE_DIGEST = "b77568ba61abe015c860914322d503f0c4858edca6fa5b05c7a82380f7b47f65"

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


def test_output_digest_is_pinned():
    assert output_digest() == GOLDEN_DIGEST


def test_digests_do_not_depend_on_the_string_hash():
    """Both digests, each computed by this file as a script under
    ``PYTHONHASHSEED`` 0 and 4242; the two runs go side by side."""
    src = str(Path(flowcomplex.__file__).resolve().parent.parent)
    runs = [
        subprocess.Popen(
            [sys.executable, __file__],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
        )
        for seed in (0, 4242)
    ]
    try:
        outputs = [(run.communicate(timeout=300)[0], run.returncode) for run in runs]
    finally:
        for run in runs:
            run.kill()  # a no-op for a run that has ended
    for out, returncode in outputs:
        assert (returncode, out) == (0, f'GOLDEN_DIGEST = "{GOLDEN_DIGEST}"\nSCALE_DIGEST = "{SCALE_DIGEST}"\n')


if __name__ == "__main__":
    print(f'GOLDEN_DIGEST = "{output_digest()}"')
    print(f'SCALE_DIGEST = "{scale_digest()}"')
