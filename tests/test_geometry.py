import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns import suzuki
from ftdesigns.errors import ConstructionError, InputError
from ftdesigns.gfield import GF
from ftdesigns.suzuki import _normalise_rows, circles, ovoid_points, suzuki_action

from oracles import (apply_matrix, field_inverse, normalize_point, ovoid_generator_images,
                     plane_sections)


def test_gf2_is_parity():
    f = GF(1)
    assert f.size == 2
    assert f.mul(1, 1) == 1


def test_gf8_generator_order():
    f = GF(3)
    x = 2  # the class of x
    powers = {f.pow(x, i) for i in range(1, 8)}
    assert len({f.pow(x, i) for i in range(7)}) == 7
    assert f.pow(x, 7) == 1


def test_gf8_defining_relation():
    f = GF(3)
    x = 2
    assert f.mul(f.mul(x, x), x) == x ^ 1  # x^3 = x + 1


def test_field_range_check():
    with pytest.raises(InputError):
        GF(0)
    with pytest.raises(InputError):
        GF(17)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_field_axioms_exhaustive(m):
    f = GF(m)
    els = list(range(f.size))
    for a in els:
        assert f.mul(a, 1) == a
        if a:
            assert f.mul(a, field_inverse(f, a)) == 1
    for a in els:
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)


@settings(max_examples=60)
@given(st.integers(min_value=5, max_value=9), st.data())
def test_field_axioms_random(m, data):
    f = GF(m)
    a = data.draw(st.integers(min_value=0, max_value=f.size - 1))
    b = data.draw(st.integers(min_value=0, max_value=f.size - 1))
    c = data.draw(st.integers(min_value=0, max_value=f.size - 1))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
    if a:
        assert f.mul(a, field_inverse(f, a)) == 1


@pytest.mark.parametrize("m", range(1, 17))
def test_pinned_polynomials_are_primitive(m):
    GF(m)  # table construction raises if x fails to generate


def test_ovoid_point_count():
    ov = ovoid_points(8)
    assert len(ov.points) == 65


def test_ovoid_contains_expected_points():
    ov = ovoid_points(8)
    assert (0, 0, 0, 1) in ov.points   # the distinguished point
    assert (1, 0, 0, 0) in ov.points   # s = t = 0


def test_ovoid_rejects_bad_q():
    for q in [4, 7, 16, 2]:
        with pytest.raises(InputError):
            ovoid_points(q)


@pytest.mark.parametrize("point", [(3, 5, 1, 6), (0, 7, 0, 2), (0, 0, 4, 4), (0, 0, 0, 5)])
def test_row_normaliser_picks_one_representative(point):
    f = GF(3)
    scaled = f.mul_array(np.arange(1, 8)[:, None], np.array(point)[None, :])
    rows = _normalise_rows(f, scaled)
    assert (rows == rows[0]).all()
    assert rows[0][np.flatnonzero(rows[0])[0]] == 1


@pytest.mark.parametrize("q", [8, 32])
def test_generators_match_the_scalar_action(q):
    reference = ovoid_generator_images(ovoid_points(q), suzuki.suzuki_matrices(q))
    assert [g.images.tolist() for g in suzuki_action(q).generators] == reference


def test_a_matrix_off_the_ovoid_is_rejected(monkeypatch):
    # swapping the coordinates s and t does not preserve the ovoid
    swap = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    ov = ovoid_points(8)
    first = next(p for p in ov.points
                 if normalize_point(ov.field, apply_matrix(ov.field, p, swap)) not in ov.points)
    monkeypatch.setattr(suzuki, "suzuki_matrices", lambda q: [swap])
    with pytest.raises(ConstructionError,
                       match=re.escape(f"generator matrix does not preserve the ovoid at {first}")):
        suzuki_action(8)


def test_no_three_collinear_q8():
    ov = ovoid_points(8)
    f = ov.field
    pts = ov.points
    for a, b, c in combinations(range(65), 3):
        # rank of the 3x4 matrix over GF(8) must be 3
        rows = [list(pts[a]), list(pts[b]), list(pts[c])]
        rank = 0
        cols = 4
        r = 0
        for col in range(cols):
            piv = next((i for i in range(r, 3) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = field_inverse(f, rows[r][col])
            rows[r] = [f.mul(inv, x) for x in rows[r]]
            for i in range(3):
                if i != r and rows[i][col]:
                    coef = rows[i][col]
                    rows[i] = [x ^ f.mul(coef, y) for x, y in zip(rows[i], rows[r])]
            r += 1
        assert r == 3, (a, b, c)


def test_plane_sections_q8(suzuki8):
    circ = circles(8)
    assert len(circ) == 520
    assert all(len(c) == 9 for c in circ)


def test_circles_match_the_per_plane_sections():
    circ = circles(8)
    assert circ.shape == (520, 9) and circ.dtype == np.uint8
    assert list(map(tuple, circ.tolist())) == plane_sections(ovoid_points(8))


def test_every_pair_on_q_plus_1_circles():
    circ = circles(8).tolist()
    count = {}
    for c in circ:
        for pr in combinations(c, 2):
            count[pr] = count.get(pr, 0) + 1
    assert len(count) == 65 * 64 // 2
    assert set(count.values()) == {9}


def test_pair_count_identity():
    # sum over circles of C(q+1,2) = C(q^2+1,2) * (q+1)
    circ = circles(8)
    assert len(circ) * 36 == (65 * 64 // 2) * 9


def test_suzuki_action_order(suzuki8):
    act, _ = suzuki8
    assert act.degree == 65
    assert act.order == 64 * 65 * 7


def test_suzuki_two_transitive(suzuki8):
    from ftdesigns.actions import point_stabilizer_gens
    from ftdesigns.bsgs import bsgs_build, orbit

    act, _ = suzuki8
    stab = point_stabilizer_gens(act, 0)
    assert bsgs_build(stab, 65).order() == 448   # q^2 (q-1)
    rest = orbit(stab, 1, 65)
    assert len(rest) == 64


def test_generators_preserve_circles(suzuki8):
    act, _ = suzuki8
    circ = set(map(tuple, circles(8).tolist()))
    for g in act.generators:
        for c in circ:
            assert tuple(sorted(g(x) for x in c)) in circ


def test_circles_single_orbit(suzuki8):
    from ftdesigns.designs import set_orbit

    act, _ = suzuki8
    circ = list(map(tuple, circles(8).tolist()))
    assert sorted(map(tuple, set_orbit(act.generators, circ[0]).tolist())) == circ
