import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns.errors import InputError
from ftdesigns.perm import (Permutation, compose, format_cycles, inverse, parse_cycles, power,
                            row_keys)
from oracles import identity, scalar_parse_cycles


def test_involution_squared_is_identity():
    p = parse_cycles("(1,2)", 2)
    assert compose(p, p).is_identity()


def test_three_cycle_squared():
    p = parse_cycles("(1,2,3)", 3)
    assert compose(p, p) == parse_cycles("(1,3,2)", 3)


def test_identity_law():
    p = parse_cycles("(1,4)(2,3,5)", 5)
    assert compose(p, identity(5)) == p
    assert compose(identity(5), p) == p


def test_composition_order():
    # compose(p, q) applies p first
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    assert compose(p, q)(0) == 2


def test_degree_mismatch():
    with pytest.raises(InputError):
        compose(identity(3), identity(4))


def test_not_a_bijection():
    with pytest.raises(InputError):
        Permutation([0, 0, 1])
    with pytest.raises(InputError):
        Permutation([0, 3])


@pytest.mark.parametrize("images", [[0.5, 1.7], [1.0, 0.0], ["1", "0"], [True, False],
                                    [0, 2**70]],
                         ids=["fractions", "whole-floats", "strings", "bools", "past-int64"])
def test_images_must_be_integers(images):
    # no float is truncated (else [0.5, 1.7] is the identity), no string
    # parsed, and an image past int64 is no raw OverflowError
    with pytest.raises(InputError, match="must be integers"):
        Permutation(images)


def test_integer_images_of_any_width_are_accepted():
    assert Permutation(np.array([1, 0], dtype=np.uint16)) == Permutation([1, 0])
    assert Permutation(range(3)).is_identity()
    assert Permutation([]).degree == 0


@pytest.mark.parametrize("images", [[1, 1, 0], [1, 2, 1], [0, 0], [2, 2, 2]])
def test_cycles_of_a_wrapped_non_bijection_raise(images):
    # `_wrap` takes its array unchecked; the walk from a point must not loop
    # forever when it never comes back to that point
    p = Permutation._wrap(np.array(images))
    for read in (Permutation.cycles, Permutation.order, repr):
        with pytest.raises(InputError, match="not a bijection"):
            read(p)


@st.composite
def permutations(draw, max_degree=40):
    n = draw(st.integers(min_value=1, max_value=max_degree))
    images = draw(st.permutations(range(n)))
    return Permutation(list(images))


@given(permutations())
def test_inverse_law(p):
    assert compose(p, inverse(p)).is_identity()
    assert compose(inverse(p), p).is_identity()


@given(st.data())
def test_associativity(data):
    n = data.draw(st.integers(min_value=1, max_value=25))
    ps = [Permutation(list(data.draw(st.permutations(range(n))))) for _ in range(3)]
    p, q, r = ps
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(permutations(max_degree=20), st.integers(min_value=-6, max_value=6))
def test_power_matches_repeated_composition(p, k):
    expected = identity(p.degree)
    step = p if k >= 0 else inverse(p)
    for _ in range(abs(k)):
        expected = compose(expected, step)
    assert power(p, k) == expected


@given(permutations())
def test_cycle_round_trip(p):
    assert parse_cycles(format_cycles(p), p.degree) == p


def test_parse_rejects_garbage():
    # a point is ASCII digits: a space inside one does not run two together
    for bad in ["(1,2", "1,2)", "(1,2)(2,3)", "(0,1)", "(1,1)", "(1 2)", "(1 2,3)", "(1,2 3)",
                "(1_0,2)", "(+1,2)", "(\u0661,2)", "(1,,2)", "(,)"]:
        with pytest.raises(InputError):
            parse_cycles(bad, 20)


def test_parse_takes_whitespace_between_cycles_and_around_points():
    assert parse_cycles(" (1, 2) ( 3 ,4 )\t", 5) == parse_cycles("(1,2)(3,4)", 5)
    for empty in ["", " ", "( )", " () "]:
        assert parse_cycles(empty, 5).is_identity()


_POINTS = st.integers(0, 14) | st.sampled_from([2**63 - 1, 2**63, 2**64 + 1, 10**25])
_SPACE = st.sampled_from(["", "", " ", "\t", "\u2003"])


@st.composite
def _cycle_texts(draw):
    """Cycle notation that parses, or fails in any of its ways: points out
    of range (past int64 too), repeated in a cycle or in two cycles."""
    cycles = draw(st.lists(st.lists(_POINTS, max_size=5), max_size=5))
    out = ""
    for cyc in cycles:
        pts = [draw(_SPACE) + str(p) + draw(_SPACE) for p in cyc] or [draw(_SPACE)]
        out += draw(_SPACE) + "(" + ",".join(pts) + ")"
    return out + draw(_SPACE), draw(st.integers(1, 12))


@settings(max_examples=300, deadline=None)
@given(_cycle_texts())
def test_parse_matches_the_scalar_reader(case):
    text, degree = case
    try:
        want = scalar_parse_cycles(text, degree)
    except InputError as exc:
        with pytest.raises(InputError) as err:
            parse_cycles(text, degree)
        assert str(err.value) == str(exc)
    else:
        assert parse_cycles(text, degree) == want


def test_parse_reads_a_point_past_int64_as_out_of_range():
    # the last is past Python's 4300-digit int conversion limit too
    for text in ("(1,18446744073709551617)", "(2)(9223372036854775808,1)",
                 "(1," + "9" * 5000 + ")"):
        with pytest.raises(InputError, match="out of range 1..5"):
            parse_cycles(text, 5)
    # the first failing cycle names the error
    with pytest.raises(InputError, match="repeated point"):
        parse_cycles("(1,1)(2,18446744073709551617)", 5)
    with pytest.raises(InputError, match="out of range"):
        parse_cycles("(2,18446744073709551617,2)(1,1)", 5)


def test_one_indexed_shift():
    p = parse_cycles("(1,2,3)", 3)
    assert list(p.images) == [1, 2, 0]


def test_element_order():
    assert parse_cycles("(1,2)(3,4,5)", 5).order() == 6
    assert identity(4).order() == 1


def test_images_are_read_only():
    p = parse_cycles("(1,2)", 3)
    with pytest.raises(ValueError):
        p.images[0] = 2


@st.composite
def _short_rows(draw):
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.uint32]))
    width = draw(st.integers(1, 8 // np.dtype(dtype).itemsize))
    # a small range gives equal rows and equal prefixes, the full range high bytes
    points = st.integers(0, 3) | st.integers(0, int(np.iinfo(dtype).max))
    rows = draw(st.lists(st.lists(points, min_size=width, max_size=width), max_size=30))
    return np.array(rows, dtype=dtype).reshape(len(rows), width)


@settings(max_examples=200, deadline=None)
@given(_short_rows())
def test_row_keys_of_short_rows_keep_the_byte_order(rows):
    keys = row_keys(rows)
    assert keys.dtype == np.uint64
    void = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    assert np.array_equal(np.argsort(keys, kind="stable"), np.argsort(void, kind="stable"))
    assert np.array_equal(keys[:, None] == keys[None, :],
                          (rows[:, None] == rows[None, :]).all(axis=2))


@pytest.mark.parametrize("dtype,width", [(np.uint8, 9), (np.uint16, 5), (np.uint32, 3),
                                         (np.uint16, 22)])
def test_row_keys_of_wider_rows_stay_void(dtype, width):
    rows = np.arange(4 * width, dtype=dtype).reshape(4, width)
    keys = row_keys(rows)
    assert keys.dtype == np.dtype((np.void, width * np.dtype(dtype).itemsize))
    assert len(np.unique(keys)) == 4
