"""Golden output digest: the classification and theorem output of the
gallery and the acceptance sweep, pinned as one SHA-256.

A speed-up must leave this digest unchanged.  A change that means to alter
output re-pins it: run ``python3 tests/test_golden.py`` from the repository
root (with ``src`` on ``PYTHONPATH``), check that the changed verdicts,
witnesses and theorem details are the intended ones, paste the printed
digest into ``GOLDEN_DIGEST`` and say in ``CHANGES.md`` why it moved.
"""

from __future__ import annotations

import hashlib
import json

from flowcomplex import GALLERY, build, classification_report, random_complex, verify_theorems

GOLDEN_DIGEST = "e8dd3f4c655a0190d346559f18d099c50bd9c2064fd9c08bd1aa16632710db98"


def output_digest() -> str:
    """SHA-256 over the 9 gallery flows (default parameters), then
    ``random_complex`` seeds 0..999: per complex, the sorted-key JSON of its
    classification report and the JSON of its theorem rows, each followed
    by a NUL byte."""
    h = hashlib.sha256()
    complexes = [build(entry.name) for entry in GALLERY]
    complexes += [random_complex(seed) for seed in range(1000)]
    for fc in complexes:
        rows = [(t.theorem, t.status.value, t.detail) for t in verify_theorems(fc)]
        for text in (json.dumps(classification_report(fc).as_dict(), sort_keys=True), json.dumps(rows)):
            h.update(text.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def test_output_digest_is_pinned():
    assert output_digest() == GOLDEN_DIGEST


if __name__ == "__main__":
    print(output_digest())
