"""Classification and the theorem harness on gallery flows of about 10^4
ids (``SCALE_DOCUMENTS`` in ``tests/test_golden.py``), where the naive
oracles cannot run: a pinned output digest, the round trip through the text
format, the harness itself, sampled per-seed fixpoints, and how often
two-sided extended orbits are joined."""

from __future__ import annotations

import pytest

from flowcomplex import (
    Classifier,
    Direction,
    TheoremStatus,
    build,
    classification_report,
    classify,
    emit,
    parse,
    verify_theorems,
)
from flowcomplex.orbits import Expansion
from test_classify import classifier_orbit, set_scans_match_the_per_id_scans
from test_golden import SCALE_DIGEST, SCALE_DOCUMENTS, digest


@pytest.fixture(scope="module")
def scale():
    """Each scale document with its report and theorem results."""
    out = []
    for name, n in SCALE_DOCUMENTS:
        fc = build(name, {"n": n})
        out.append((fc, classification_report(fc), verify_theorems(fc)))
    return out


def test_scale_output_digest_is_pinned(scale):
    assert digest((report, results) for _, report, results in scale) == SCALE_DIGEST


def test_round_trip_at_scale(scale):
    for fc, _, _ in scale:
        assert parse(emit(fc)) == fc


def test_no_theorem_is_violated_at_scale(scale):
    for fc, _, results in scale:
        assert 9900 < len(fc.all_ids) < 10100
        violated = [r.theorem for r in results if r.status is TheoremStatus.VIOLATION]
        assert violated == []


def test_reach_matches_the_per_seed_fixpoint_at_scale(scale):
    for fc, _, _ in scale:
        cls = Classifier(fc)
        plain = Expansion.plain(fc)
        for xid in sorted(fc.all_ids)[::97]:
            fwd, bwd = plain.orbit(xid, Direction.FORWARD), plain.orbit(xid, Direction.BACKWARD)
            assert classifier_orbit(cls, xid, Direction.FORWARD) == (fwd.members, fwd.self_readded), xid
            assert classifier_orbit(cls, xid, Direction.BACKWARD) == (bwd.members, bwd.self_readded), xid
            # orbit(xid, BOTH) is the union of these two runs
            both = (fwd.members | bwd.members, fwd.self_readded or bwd.self_readded)
            assert classifier_orbit(cls, xid, Direction.BOTH) == both, xid


def test_two_sided_reach_is_decided_once_per_row_pair(scale, monkeypatch):
    """Ids whose forward and backward payloads are the same shared rows share
    one decision (subset test or union) and one frozenset, however many ids
    they are."""
    decided = []
    join = classify._join

    def counted(fwd, bwd):
        decided.append((id(fwd), id(bwd)))
        return join(fwd, bwd)

    monkeypatch.setattr(classify, "_join", counted)
    counts = []
    for fc, _, _ in scale:
        decided.clear()
        cls = Classifier(fc)
        ids = sorted(fc.all_ids)
        answers = {xid: cls.members(xid) for xid in ids}
        # the tables those answers were read from
        fwd_table, bwd_table = cls._plain.payloads(True), cls._plain.payloads(False)
        pairs: dict[tuple[int, int], list[str]] = {}
        for xid in ids:
            fwd, bwd = fwd_table.get(xid), bwd_table.get(xid)
            if fwd is not None and bwd is not None:
                pairs.setdefault((id(fwd), id(bwd)), []).append(xid)
        assert sorted(decided) == sorted(pairs)
        for sharing in pairs.values():
            inside = [answers[xid] for xid in sharing if xid in answers[xid]]
            assert len({id(members) for members in inside}) <= 1
        counts.append((len(decided), sum(map(len, pairs.values()))))
    # (two-sided decisions, ids firing on both sides) per document
    assert counts == [(1, 5997), (1660, 4980)]


def test_set_scans_match_the_per_id_scans_at_scale(scale):
    for fc, _, _ in scale:
        set_scans_match_the_per_id_scans(fc)


@pytest.mark.parametrize(
    "name, n, chains, closed",
    [("comb_torus", 3333, 0, []), ("nested_saddles_disk", 2000, 1, [5997])],
    ids=["comb_torus-3333-0", "nested_saddles_disk-2000-1"],
)
def test_reports_and_theorems_make_no_per_id_scan(name, n, chains, closed, monkeypatch):
    """A report plus every theorem check asks no per-point recurrence question
    and closes no member set of a lone lead one at a time, saddle chain or
    not: the calls are counted, not timed."""
    calls = {"_recurrent": 0, "extended_recurrent_point": 0}
    for method_name in calls:
        method = getattr(Classifier, method_name)

        def counted(self, *args, method=method, **kwargs):
            calls[method.__name__] += 1
            return method(self, *args, **kwargs)

        monkeypatch.setattr(Classifier, method_name, counted)
    sizes = []
    closure = classify.orbit_set_closure

    def counted_closure(fc, members):
        members = tuple(members)
        sizes.append(len(members))
        return closure(fc, members)

    monkeypatch.setattr(classify, "orbit_set_closure", counted_closure)
    fc = build(name, {"n": n})
    assert len(fc.saddle_chains) == chains and 9900 < len(fc.all_ids) < 10100
    classification_report(fc)
    verify_theorems(fc)
    assert calls == {"_recurrent": 0, "extended_recurrent_point": 0}
    # each of the two Classifiers closes the member sets that are not a lone lead's, once each
    assert sizes == closed * 2
    # the counters see a per-id query
    Classifier(fc).extended_recurrent_point(sorted(fc.all_ids)[0], True)
    assert calls == {"_recurrent": 1, "extended_recurrent_point": 1}
