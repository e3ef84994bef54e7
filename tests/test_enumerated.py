"""Every small document up to the bound of ``enumerate_docs``, judged whole.

Each complex that passes ``validate`` must round-trip through ``emit``,
agree with the naive oracles, closures included, and get no VIOLATION from
the theorem harness.  ``validate`` still admits some flows that no surface carries;
those are listed in ``SURVIVORS``, exactly, so that the list can only
shrink as ``validate`` learns their rules.
"""

from collections import Counter

from enumerate_docs import complex_of, docs
from flowcomplex import Classifier, Direction, Expansion, TheoremStatus, closure_of, emit, parse, validate, verify_theorems
from naive_oracle import (
    naive_blocks,
    naive_closure,
    naive_dichotomy,
    naive_extended_pap,
    naive_extended_recurrent,
    naive_extension,
    naive_open_ids,
    naive_periodic_leads,
    naive_recurrent_flow,
)


def judged_vector(fc):
    """The seven verdict booleans of ``fc``, after asserting that its text
    round-trips and that its answers are the naive oracles'."""
    assert parse(emit(fc)) == fc
    cls, ref = Classifier(fc), Classifier(fc)
    report = cls.report()
    assert report.recurrent == naive_recurrent_flow(fc)
    assert report.extended_recurrent == naive_extended_recurrent(ref, generalized=False)
    assert report.generalized_recurrent == naive_extended_recurrent(ref, generalized=True)
    pap, pair = naive_extended_pap(fc)
    assert (report.extended_pap.verdict, report.extended_pap.witness and report.extended_pap.witness.ids) == (pap, pair)
    assert list(cls.blocks().items()) == list(naive_blocks(ref).items())
    assert list(cls.iter_periodic_leads()) == naive_periodic_leads(ref)
    assert list(cls.open_ids) == naive_open_ids(ref)
    plain = Expansion.plain(fc)
    for xid in sorted(fc.all_ids):
        assert closure_of(fc, xid) == naive_closure(fc, xid) == fc.closure(xid), xid
        for direction in Direction:
            run, naive = plain.orbit(xid, direction), naive_extension(fc, xid, direction)
            assert (run.members, run.added_round, run.depth, run.self_readded) == (
                naive.members,
                naive.added_round,
                naive.depth,
                naive.self_readded,
            ), (xid, direction)
        assert cls.members(xid) == naive_extension(fc, xid, Direction.BOTH).members, xid
        if report.extended_recurrent and not cls.extension_closed(xid):
            assert cls.dichotomy(xid) is naive_dichotomy(fc, xid), xid
    return tuple(v["verdict"] for v in report.as_dict().values())


# The admitted documents that get a VIOLATION, as ``enumerate_docs`` tuples.
# Two kinds, each seen first in its smallest member:
# - a sink or source that no class limits onto, beside a periodic orbit
#   (``rclosed-singularity-structure``): the projective plane with a sink
#   and one periodic orbit;
# - two homoclinic loops at a saddle, with a center or a sink or source that
#   nothing reaches (``extended-recurrence-implies-nonwandering``): the
#   torus with a center, a saddle and the two loops.
SURVIVORS = {
    ("sphere", ("center", "sink"), ((),), ()),
    ("sphere", ("center", "sink"), ((),), (("o", 0), ("s", 0))),
    ("sphere", ("center", "sink"), ((),), (("o", 0), ("o", 0))),
    ("sphere", ("center", "sink"), ((), ()), ()),
    ("sphere", ("center", "sink"), ((), ()), (("o", 0), ("s", 0))),
    ("sphere", ("center", "sink"), ((), ()), (("o", 0), ("o", 0))),
    ("sphere", ("center", "sink"), ((), ()), (("o", 0), ("o", 1))),
    ("sphere", ("center", "source"), ((),), ()),
    ("sphere", ("center", "source"), ((),), (("o", 0), ("s", 0))),
    ("sphere", ("center", "source"), ((),), (("o", 0), ("o", 0))),
    ("sphere", ("center", "source"), ((), ()), ()),
    ("sphere", ("center", "source"), ((), ()), (("o", 0), ("s", 0))),
    ("sphere", ("center", "source"), ((), ()), (("o", 0), ("o", 0))),
    ("sphere", ("center", "source"), ((), ()), (("o", 0), ("o", 1))),
    ("sphere", ("sink", "sink"), ((),), ()),
    ("sphere", ("sink", "sink"), ((),), (("o", 0), ("s", 0))),
    ("sphere", ("sink", "sink"), ((),), (("o", 0), ("o", 0))),
    ("sphere", ("sink", "sink"), ((), ()), ()),
    ("sphere", ("sink", "sink"), ((), ()), (("o", 0), ("s", 0))),
    ("sphere", ("sink", "sink"), ((), ()), (("o", 0), ("o", 0))),
    ("sphere", ("sink", "sink"), ((), ()), (("o", 0), ("o", 1))),
    ("sphere", ("sink", "source"), ((),), ()),
    ("sphere", ("sink", "source"), ((),), (("o", 0), ("s", 0))),
    ("sphere", ("sink", "source"), ((),), (("o", 0), ("s", 1))),
    ("sphere", ("sink", "source"), ((),), (("o", 0), ("o", 0))),
    ("sphere", ("sink", "source"), ((), ()), ()),
    ("sphere", ("sink", "source"), ((), ()), (("o", 0), ("s", 0))),
    ("sphere", ("sink", "source"), ((), ()), (("o", 0), ("s", 1))),
    ("sphere", ("sink", "source"), ((), ()), (("o", 0), ("o", 0))),
    ("sphere", ("sink", "source"), ((), ()), (("o", 0), ("o", 1))),
    ("sphere", ("source", "source"), ((),), ()),
    ("sphere", ("source", "source"), ((),), (("o", 0), ("s", 0))),
    ("sphere", ("source", "source"), ((),), (("o", 0), ("o", 0))),
    ("sphere", ("source", "source"), ((), ()), ()),
    ("sphere", ("source", "source"), ((), ()), (("o", 0), ("s", 0))),
    ("sphere", ("source", "source"), ((), ()), (("o", 0), ("o", 0))),
    ("sphere", ("source", "source"), ((), ()), (("o", 0), ("o", 1))),
    ("torus", ("center", "saddle"), ((1, 1), (1, 1)), ()),
    ("torus", ("center", "saddle"), ((1, 1), (1, 1)), (("s", 0), ("s", 1))),
    ("torus", ("saddle", "sink"), ((0, 0), (0, 0)), ()),
    ("torus", ("saddle", "sink"), ((0, 0), (0, 0)), (("s", 0), ("s", 1))),
    ("torus", ("saddle", "source"), ((0, 0), (0, 0)), ()),
    ("torus", ("saddle", "source"), ((0, 0), (0, 0)), (("s", 0), ("s", 1))),
    ("projective plane", ("sink",), ((),), ()),
    ("projective plane", ("sink",), ((),), (("o", 0), ("o", 0))),
    ("projective plane", ("sink",), ((), ()), ()),
    ("projective plane", ("sink",), ((), ()), (("o", 0), ("o", 0))),
    ("projective plane", ("sink",), ((), ()), (("o", 0), ("o", 1))),
    ("projective plane", ("source",), ((),), ()),
    ("projective plane", ("source",), ((),), (("o", 0), ("o", 0))),
    ("projective plane", ("source",), ((), ()), ()),
    ("projective plane", ("source",), ((), ()), (("o", 0), ("o", 0))),
    ("projective plane", ("source",), ((), ()), (("o", 0), ("o", 1))),
    ("Klein bottle", ("center", "saddle"), ((1, 1), (1, 1)), ()),
    ("Klein bottle", ("center", "saddle"), ((1, 1), (1, 1)), (("s", 0), ("s", 1))),
    ("Klein bottle", ("saddle", "sink"), ((0, 0), (0, 0)), ()),
    ("Klein bottle", ("saddle", "sink"), ((0, 0), (0, 0)), (("s", 0), ("s", 1))),
    ("Klein bottle", ("saddle", "source"), ((0, 0), (0, 0)), ()),
    ("Klein bottle", ("saddle", "source"), ((0, 0), (0, 0)), (("s", 0), ("s", 1))),
}

# How many admitted documents reach each vector of the seven verdicts, in
# ``ClassificationReport`` field order: non-wandering, recurrent, extended
# recurrent, extended p.a.p., extended R-closed, regular, generalized recurrent
T, F = True, False
ATLAS = {(F, F, F, F, F, T, F): 237, (F, F, T, T, T, T, T): 12, (T, T, T, T, T, T, T): 108}
# extended R-closed yet neither non-wandering nor recurrent breaks the
# paper's chain; only a survivor may reach it
FORBIDDEN = (F, F, T, T, T, T, T)


def test_every_small_document_that_validates_is_judged_sound():
    seen, admitted, found, atlas, forbidden = 0, 0, set(), Counter(), set()
    for doc in docs():
        seen += 1
        fc = complex_of(doc)
        if not validate(fc).ok:
            continue
        admitted += 1
        vector = judged_vector(fc)
        atlas[vector] += 1
        if vector == FORBIDDEN:
            forbidden.add(doc)
        if any(r.status is TheoremStatus.VIOLATION for r in verify_theorems(fc)):
            found.add(doc)
    assert (seen, admitted) == (6624, 357)
    assert found == SURVIVORS
    assert forbidden <= SURVIVORS
    assert atlas == ATLAS
