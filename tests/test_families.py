import os
import subprocess
import sys
from pathlib import Path

import pytest

from ftdesigns.errors import InputError
from ftdesigns.families import (g2_orbit_forcing, g2_params, is_fermat_prime,
                                is_mersenne_prime,
                                lemma38_block_stabilizer_order, suzuki_params)


def test_mersenne():
    assert is_mersenne_prime(7)
    assert is_mersenne_prime(31)
    assert is_mersenne_prime(127)
    assert not is_mersenne_prime(511)    # 7 * 73
    assert not is_mersenne_prime(11)     # prime but not 2^p - 1
    assert not is_mersenne_prime(15)


def test_mersenne_exponents_up_to_127():
    primes = [p for p in range(1, 128) if is_mersenne_prime(2**p - 1)]
    assert primes == [2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127]


def test_fermat():
    assert is_fermat_prime(5)
    assert is_fermat_prime(17)
    assert is_fermat_prime(3)
    assert is_fermat_prime(257)
    assert not is_fermat_prime(2)        # 2^0 + 1, but 0 is not 2^t
    assert not is_fermat_prime(9)
    assert not is_fermat_prime(33)       # 2^5 + 1, exponent not a power of 2
    assert not is_fermat_prime(4294967297)  # F5 = 641 * 6700417


def test_fermat_numbers_f0_to_f10():
    prime = [is_fermat_prime(2**2**t + 1) for t in range(11)]
    assert prime == [True] * 5 + [False] * 6


def test_family_arithmetic_does_not_load_sympy():
    code = ("import sys; from ftdesigns.families import suzuki_params; "
            "suzuki_params(32); print('sympy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "False\n"


def test_suzuki_params_q8():
    fam = suzuki_params(8)
    assert fam.params.astuple() == (65, 520, 64, 8, 7)
    assert fam.condition_holds


def test_suzuki_params_q32():
    fam = suzuki_params(32)
    assert fam.params.astuple() == (1025, 32800, 1024, 32, 31)
    assert fam.condition_holds
    fam.params.check_identities()


def test_suzuki_condition_windows():
    assert suzuki_params(8).condition_holds
    assert suzuki_params(32).condition_holds
    assert suzuki_params(128).condition_holds
    assert not suzuki_params(512).condition_holds


def test_suzuki_params_rejects_even_exponent():
    for q in (4, 16, 64, 7, 2):
        with pytest.raises(InputError):
            suzuki_params(q)


def test_g2_params_q4():
    fam = g2_params(4)
    assert fam.params.astuple() == (2016, 20475, 325, 32, 5)
    assert fam.condition_holds


def test_g2_params_q16():
    fam = g2_params(16)
    p = fam.params
    assert p.v == 16**3 * (16**3 - 1) // 2 == 8386560
    assert p.b == 17 * (16**6 - 1)
    assert p.r == 17 * 4097
    assert p.k == 2048
    assert p.lam == 17
    assert fam.condition_holds
    assert p.r * (p.k - 1) == p.lam * (p.v - 1)


def test_g2_params_q8_condition_fails():
    assert not g2_params(8).condition_holds   # 9 = 3^2


def test_g2_params_rejects_odd_or_small():
    for q in (3, 2, 5):
        with pytest.raises(InputError):
            g2_params(q)


def test_orbit_forcing_q4():
    forcing = g2_orbit_forcing(4)
    assert forcing.orbit_lengths == [1040, 975]
    assert forcing.k_j == [16, 15]
    assert forcing.r_j == [5, 5]
    assert forcing.b_j == 325
    assert 325 * 16 == 1040 * 5
    assert 325 * 15 == 975 * 5
    assert sum(forcing.k_j) == 31   # k - 1


@pytest.mark.parametrize("q", [4, 16, 64])
def test_orbit_lengths_partition_non_base_points(q):
    forcing = g2_orbit_forcing(q)
    v = q**3 * (q**3 - 1) // 2
    assert sum(forcing.orbit_lengths) == v - 1
    # every 1-design identity b_j k_j = v_j r_j
    for length, k, r in zip(forcing.orbit_lengths, forcing.k_j, forcing.r_j):
        assert forcing.b_j * k == length * r


def test_lemma38_values():
    assert lemma38_block_stabilizer_order(4, 1) == 12288
    assert lemma38_block_stabilizer_order(4, 2) == 24576
    assert lemma38_block_stabilizer_order(16, 1) == 251658240


@pytest.mark.parametrize("q", [4, 16])
def test_lemma38_consistency_with_group_order(q):
    # value(q, 1) * b = q^6 (q^2-1)(q^6-1)
    value = lemma38_block_stabilizer_order(q, 1)
    b = (q + 1) * (q**6 - 1)
    assert value * b == q**6 * (q * q - 1) * (q**6 - 1)


def test_lemma38_g24_order():
    assert lemma38_block_stabilizer_order(4, 1) * g2_params(4).params.b == 251596800


def test_lemma38_rejects_bad_f1():
    with pytest.raises(InputError):
        lemma38_block_stabilizer_order(4, 3)


def test_family_params_all_identities():
    for fam in (suzuki_params(8), suzuki_params(32), g2_params(4), g2_params(16)):
        fam.params.check_identities()
        assert fam.params.v < fam.params.b
