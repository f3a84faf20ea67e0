import re
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from ftdesigns.actions import SubdegreeProfile
from ftdesigns.designs import ParameterSet, prime_factors
from ftdesigns.errors import InputError
from ftdesigns.families import g2_params, suzuki_params
from ftdesigns.groupdata import orders_table
from ftdesigns.pipeline import (STATUS_FEASIBLE, STATUS_INDEX, STATUS_SUBDEGREE,
                                CandidateRecord, action_for, emit_count_summary,
                                emit_report, enumerate_all, enumerate_parameters,
                                group_counts, index_divides_filter, run_filters,
                                subdegree_filter)
from oracles import prime_table

LAMBDAS_M11 = [3, 5, 7, 11]


@pytest.mark.parametrize("args,message", [
    (("M11", "nope"), "no subgroup 'nope' under M11"),
    (("M23", "M11", 7), "no subgroup 'M11' nr 7 under M23"),
])
def test_action_for_names_a_missing_subgroup(args, message):
    with pytest.raises(InputError, match=re.escape(message)):
        action_for(*args)


def test_action_for_needs_the_nr_of_a_shared_subgroup_name():
    # the catalog holds McL's M22 as nr 2 and nr 3
    message = "subgroup 'M22' under McL is ambiguous: nr 2, 3"
    with pytest.raises(InputError, match=re.escape(message)):
        action_for("McL", "M22")


def test_enumerate_m11_point_stabilizer():
    assert [p.astuple() for p in enumerate_parameters(7920, 720, LAMBDAS_M11)] == [
        (11, 55, 15, 3, 3)]


def test_enumerate_m11_second_class():
    got = [p.astuple() for p in enumerate_parameters(7920, 144, LAMBDAS_M11)]
    assert got == [(55, 99, 18, 10, 3), (55, 165, 30, 10, 5), (55, 363, 66, 10, 11)]


def test_enumerate_small_case_by_hand():
    # |G| = 60, |H| = 12, lambda = 3: divisors of gcd(12, 12) = 12 with 3 | r
    # leave r = 6 as the only survivor of all six constraints.
    got = [p.astuple() for p in enumerate_parameters(60, 12, [3])]
    assert got == [(5, 10, 6, 3, 3)]


def test_enumerate_rejects_non_divisor():
    with pytest.raises(InputError):
        enumerate_parameters(100, 7, [3])


def test_factorisation_takes_any_positive_value():
    from ftdesigns.pipeline import _divisors

    assert prime_factors(2**4 * 3**2 * 5 * 73) == [(2, 4), (3, 2), (5, 1), (73, 1)]
    assert prime_factors(3 * 79) == [(3, 1), (79, 1)]
    assert prime_factors(8191**2) == [(8191, 2)]
    assert prime_factors(1) == []
    assert _divisors(12) == [1, 2, 3, 4, 6, 12]
    assert _divisors(3 * 79) == [1, 3, 79, 237]
    for n in (0, -6):
        with pytest.raises(InputError, match=f"cannot factor {n}"):
            prime_factors(n)


@given(st.integers(1, 10**6))
def test_prime_factors_against_a_sieve(n):
    is_prime = prime_table(10**6)
    factors = prime_factors(n)
    assert prod(p**e for p, e in factors) == n
    assert all(is_prime[p] and e > 0 for p, e in factors)
    primes = [p for p, _ in factors]
    assert primes == sorted(set(primes))


@pytest.mark.parametrize("q", [8, 32, 128, 8192])
def test_enumeration_finds_the_suzuki_tits_tuple(q):
    # Sz(q) on the q^2+1 ovoid points; gcd(r, lambda) = gcd(q^2, q-1) = 1
    found = enumerate_parameters(q**2 * (q**2 + 1) * (q - 1), q**2 * (q - 1), [q - 1],
                                 coprime_mode=True)
    assert suzuki_params(q).params in found


@pytest.mark.parametrize("q", [4, 16])
def test_enumeration_finds_the_g2_tuple(q):
    order = q**6 * (q**6 - 1) * (q**2 - 1)
    target = g2_params(q).params
    assert target in enumerate_parameters(order, order // target.v, [q + 1])


def test_enumerate_output_is_set_like():
    # iteration order of divisors must not matter: results are sorted
    a = enumerate_parameters(10200960, 40320, [3, 5, 7, 11, 23])
    assert a == sorted(a, key=lambda p: (p.lam, p.b))
    assert len(a) == 19


def test_every_emitted_tuple_satisfies_identities():
    for rec in enumerate_all():
        rec.params.check_identities()
        assert rec.params.v < rec.params.b


def test_group_counts_match_published_table():
    counts = group_counts(enumerate_all())
    expected = {"M11": 4, "M22": 5, "M22:2": 3, "M23": 43, "M24": 8, "J1": 6,
                "J2": 3, "J2:2": 3, "HS": 19, "HS:2": 9, "McL": 6, "O'N": 6,
                "Co3": 9}
    assert counts == expected
    assert sum(counts.values()) == 124


def test_zero_groups_are_zero():
    counts = group_counts(enumerate_all())
    for name in ["M12", "M12:2", "J3", "J3:2", "J4", "Suz", "Suz:2", "McL:2",
                 "Ru", "He", "He:2", "Ly", "O'N:2", "Co1", "Co2", "Fi22",
                 "Fi22:2", "Fi23", "Fi24'", "Fi24':2", "HN", "HN:2", "Th",
                 "B", "M"]:
        assert name not in counts


def test_subdegree_filter_table_rows():
    rec = CandidateRecord("M23", "2^4:A7", 3, ParameterSet(253, 414, 36, 22, 3))
    out = subdegree_filter(rec, SubdegreeProfile([(1, 1), (112, 1), (140, 1)]))
    assert out.status == STATUS_SUBDEGREE and out.witness == 112

    out2 = subdegree_filter(rec, SubdegreeProfile([(1, 1), (42, 1), (210, 1)]))
    assert out2.status == STATUS_SUBDEGREE and out2.witness == 42


def test_subdegree_filter_arithmetic_example():
    # 27 does not divide 3*22 = 66
    rec = CandidateRecord("X", "Y", 1, ParameterSet(100, 225, 27, 12, 3))
    out = subdegree_filter(rec, SubdegreeProfile([(1, 1), (22, 1), (77, 1)]))
    assert out.status == STATUS_SUBDEGREE and out.witness == 22


def test_subdegree_filter_survivor():
    rec = CandidateRecord("M23", "L3(4).2_2", 2, ParameterSet(253, 4554, 126, 7, 3))
    out = subdegree_filter(rec, SubdegreeProfile([(1, 1), (42, 1), (210, 1)]))
    assert out.status == STATUS_FEASIBLE


def test_subdegree_filter_idempotent():
    rec = CandidateRecord("M23", "2^4:A7", 3, ParameterSet(253, 414, 36, 22, 3))
    once = subdegree_filter(rec, SubdegreeProfile([(1, 1), (112, 1), (140, 1)]))
    twice = subdegree_filter(once, SubdegreeProfile([(1, 1), (42, 1), (210, 1)]))
    assert twice == once


def test_index_filter_m11():
    rec = CandidateRecord("M11", "A6.2_3", 1, ParameterSet(11, 22, 11, 5, 5))
    out = index_divides_filter(rec, [720, 660, 144, 120, 48], 7920)
    assert out.status == STATUS_FEASIBLE   # index 11 divides 22


def test_index_filter_eliminates():
    rec = CandidateRecord("M11", "A6.2_3", 1, ParameterSet(11, 23, 11, 5, 5))
    out = index_divides_filter(rec, [720, 660, 144, 120, 48], 7920)
    assert out.status == STATUS_INDEX


def test_index_filter_group_order_b():
    # b = |G|: every index divides
    rec = CandidateRecord("M11", "A6.2_3", 1, ParameterSet(11, 7920, 11, 5, 5))
    out = index_divides_filter(rec, [720, 660, 144, 120, 48], 7920)
    assert out == rec


def test_emit_report_empty():
    assert emit_report([]) == ("group,subgroup,nr,v,b,r,k,lambda,status,witness\n")


def test_emit_report_markdown():
    rec = CandidateRecord("M11", "A6.2_3", 1, ParameterSet(11, 55, 15, 3, 3))
    text = emit_report([rec], fmt="markdown")
    assert text.startswith("| group |")
    assert "| M11 |" in text


def test_emit_report_rejects_unknown_format():
    with pytest.raises(InputError):
        emit_report([], fmt="html")


def test_count_summary_lists_every_group():
    text = emit_count_summary([])
    assert text.count("\n") == 40   # header + 38 groups + total
    assert text.endswith("TOTAL,0\n")


def test_goldens_table3():
    from importlib import resources

    golden = resources.files("ftdesigns.data").joinpath("goldens/table3.csv").read_text()
    assert emit_count_summary(enumerate_all()) == golden


def test_goldens_table5():
    from importlib import resources

    golden = resources.files("ftdesigns.data").joinpath("goldens/table5.csv").read_text()
    assert emit_report(enumerate_all()) == golden


def test_goldens_table4(profiles):
    from importlib import resources

    from ftdesigns.pipeline import emit_eliminated

    golden = resources.files("ftdesigns.data").joinpath("goldens/table4.csv").read_text()
    filtered = run_filters(enumerate_all(), profiles=profiles)
    assert emit_eliminated(filtered) == golden


def test_goldens_subdegrees(profiles):
    from importlib import resources

    golden = resources.files("ftdesigns.data").joinpath("goldens/subdegrees.csv").read_text()
    rows = {}
    for line in golden.splitlines()[1:]:
        g, h, nr, deg, prof = line.split(",")
        rows[(g, h, int(nr))] = (int(deg), prof)
    assert set(rows) == set(profiles)
    for key, (deg, prof) in rows.items():
        assert str(profiles[key]) == prof
        assert sum(l * m for l, m in profiles[key].entries) == deg


def test_include_lambda_2_widens_search():
    base = len(enumerate_all())
    widened = len(enumerate_all(include_lambda_2=True))
    assert widened >= base


def test_coprime_mode_runs():
    recs = enumerate_parameters(44352000, 252000, [3], coprime_mode=True)
    for p in recs:
        assert p.lam == 3 and p.r % 3 != 0


@st.composite
def _tuples_past_the_other_cuts(draw):
    """(v, b, r, k, lambda) with r = lambda(v-1)/(k-1) and b = vr/k
    integral, 2 < k < v-1 and v < b, with lambda | r or gcd(r, lambda) = 1
    as the pipeline's two modes ask."""
    lam = draw(st.integers(2, 40))
    k = draw(st.integers(3, 60))
    lam_divides_r = draw(st.booleans())
    # (k-1) | lambda(v-1) exactly when (k-1)/gcd(lambda, k-1) divides v-1
    step = (k - 1) // gcd(lam, k - 1)
    found = []
    for t in range(1, 400):
        v = 1 + t * step
        r = lam * (v - 1) // (k - 1)
        in_mode = r % lam == 0 if lam_divides_r else gcd(r, lam) == 1
        if in_mode and (v * r) % k == 0 and k < v - 1 and v < v * r // k:
            found.append((v, v * r // k, r, k, lam))
    assume(found)
    return draw(st.sampled_from(found))


@settings(max_examples=300, deadline=None)
@given(_tuples_past_the_other_cuts())
def test_lambda_v_below_r_squared_follows_from_the_other_cuts(t):
    # k < v gives lambda < r, so lambda v = lambda + r(k-1) < rk, and v < b
    # gives k < r: the enumeration needs no lambda v < r^2 cut of its own
    v, b, r, k, lam = t
    assert lam * v < r * r
    ParameterSet(*t).check_identities()


def test_orders_table_consistency_with_enumeration():
    # v = |G| / |H| for each emitted record matches the subgroup order
    table = {r.name: r for r in orders_table()}
    for rec in enumerate_all():
        grp = table[rec.group]
        m = next(m for m in grp.maximals if m.nr == rec.nr)
        assert grp.order // m.order == rec.params.v
