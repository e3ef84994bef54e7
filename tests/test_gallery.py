import pytest

from flowcomplex import (
    GALLERY,
    GalleryError,
    PreconditionError,
    SizeParams,
    build,
    classification_report,
    gallery_names,
    random_complex,
    validate,
)


def test_gallery_names_are_stable():
    assert gallery_names() == (
        "sphere_meridian",
        "genus2_mixed",
        "nested_saddles_disk",
        "genus2_double_irrational",
        "double_center_sphere",
        "sphere_limit_cycle",
        "plus_saddle",
        "halfdisk_sphere",
        "comb_torus",
    )


@pytest.mark.parametrize("entry", GALLERY, ids=lambda e: e.name)
def test_expected_partial_reports_match(entry):
    fc = build(entry.name, None)
    assert validate(fc).ok
    report = classification_report(fc)
    for key, expected in entry.expected.items():
        assert getattr(report, key).verdict == expected, key


def test_unknown_entry_and_bad_params():
    with pytest.raises(GalleryError):
        build("klein_bottle_special", None)
    with pytest.raises(GalleryError):
        build("comb_torus", {"n": 1})
    with pytest.raises(GalleryError):
        build("nested_saddles_disk", {"n": 0})
    with pytest.raises(GalleryError):
        build("double_center_sphere", {"n": 0})
    with pytest.raises(GalleryError):
        build("sphere_meridian", {"n": 3})


@pytest.mark.parametrize(
    "name, params, message",
    [
        # each would fail with a bare TypeError or ValueError
        ([], None, r"^unknown gallery entry \[\]$"),
        ({"n": 3}, None, r"^unknown gallery entry \{'n': 3\}$"),
        ("comb_torus", 5, "^comb_torus parameters are a mapping of names to ints, not 5$"),
        ("comb_torus", ["n"], r"^comb_torus parameters are a mapping of names to ints, not \['n'\]$"),
    ],
)
def test_gallery_build_rejects_a_name_or_parameters_of_the_wrong_type(name, params, message):
    with pytest.raises(GalleryError, match=message):
        build(name, params)


@pytest.mark.parametrize("value", ["3", 2.5, True, None])
def test_gallery_sizes_must_be_ints(value):
    with pytest.raises(GalleryError, match=f"comb_torus parameter 'n' must be an int, not {value!r}"):
        build("comb_torus", {"n": value})


def test_smallest_truncations_build():
    assert validate(build("nested_saddles_disk", {"n": 2})).ok
    assert validate(build("comb_torus", {"n": 2})).ok
    assert validate(build("double_center_sphere", {"n": 1})).ok


def test_builders_are_deterministic():
    for entry in GALLERY:
        assert build(entry.name, None) == build(entry.name, None)


def test_random_complex_deterministic_in_seed():
    for seed in (0, 1, 17, 999):
        assert random_complex(seed) == random_complex(seed)
    assert random_complex(0, SizeParams(profile="sphere")) == random_complex(0, SizeParams(profile="sphere"))


@pytest.mark.parametrize(
    "args, message",
    [
        # random.Random(None) would seed from the operating system
        ((None,), "seed must be an int, not None"),
        (((1, 2),), r"seed must be an int, not \(1, 2\)"),
        ((True,), "seed must be an int, not True"),
        ((1, None), "size must be a SizeParams, not None"),
    ],
)
def test_random_complex_takes_an_int_seed_and_size_params(args, message):
    with pytest.raises(PreconditionError, match=message):
        random_complex(*args)


def test_random_complex_validates_across_seeds():
    for seed in range(250):
        fc = random_complex(seed)
        assert validate(fc).ok, seed


def test_random_profiles():
    with pytest.raises(ValueError):
        random_complex(0, SizeParams(profile="moebius"))
    fc = random_complex(5, SizeParams(profile="torus-irrational"))
    assert fc.surface.genus == 1


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"profile": "bogus"}, "unknown profile 'bogus'"),
        ({"max_depth": -1}, "max_depth must be non-negative"),
        ({"max_repeats": 0}, "max_repeats must be at least 1"),
        ({"max_depth": "2"}, "^SizeParams max_depth must be an int, not '2'$"),
        ({"max_repeats": 2.5}, "^SizeParams max_repeats must be an int, not 2.5$"),
        ({"profile": ["x"]}, r"^SizeParams profile must be a str, not \['x'\]$"),
    ],
)
def test_size_params_are_checked_on_construction(knobs, message):
    # each would otherwise fail inside the generator with a bare ValueError
    # or TypeError on some seeds, or at the first call
    with pytest.raises(PreconditionError, match=message):
        SizeParams(**knobs)
