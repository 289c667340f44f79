import json
import math

import pytest

from wordlab.growth_functions import (
    GrowthTable,
    SuperlinearWitness,
    build_superlinear_witness,
    check_growth_properties,
    cumulative_sum,
    discrete_derivative,
    verify_witness,
)

N = 20_000


@pytest.fixture(scope="module")
def witness():
    g = GrowthTable.from_function(lambda n: n * n, N)
    return build_superlinear_witness(g)


def test_discrete_derivative_trivial():
    t = GrowthTable([0, 2, 3, 4], 3)
    d, flag = discrete_derivative(t)
    assert d.values[1:] == [0, 1, 1]
    assert flag == "f_prime_at_1_set_to_0"


def test_derivative_cumsum_roundtrip(witness):
    d, _ = discrete_derivative(witness.f)
    back = cumulative_sum(d, witness.f(1))
    assert back.values == witness.f.values


def test_witness_d_sequence(witness):
    ds = sorted(witness.d.items())
    assert ds[0] == (2, 2)
    for (i, a), (j, b) in zip(ds, ds[1:]):
        assert j == i + 1 and b > 4 * a and b & (b - 1) == 0


def test_witness_f_rules(witness):
    f = witness.f
    assert f(1) == 2 and f(2) == 3
    for i, di in witness.d.items():
        if 2 * di <= f.n_max:
            assert f(2 * di) == i * f(di)
    # derivative at a doubling point: f'(2 d_i) = (i-1) f(d_i) - (d_i - 1)
    d, _ = discrete_derivative(f)
    for i, di in witness.d.items():
        if 2 * di <= f.n_max:
            assert d(2 * di) == (i - 1) * f(di) - (di - 1)
            assert d(2 * di) >= 1


def test_witness_omega(witness):
    om = witness.omega
    for n in (1, 3, 4, 5, 31, 32, 33, N):
        expect = 0
        for i, di in witness.d.items():
            if 2 * di <= n:
                expect = max(expect, i)
        assert om[n] == expect


def test_witness_factorial_constraint(witness):
    for n in range(witness.n0, N + 1):
        assert math.factorial(witness.omega[n]) * 2 * (n + 1) < n * n
    if witness.n0 > 1:
        n = witness.n0 - 1
        assert math.factorial(witness.omega[n]) * 2 * (n + 1) >= n * n


def test_witness_growth_properties(witness):
    f = witness.f
    for n in range(1, N):
        assert f(n) < f(n + 1)
    for n in range(1, N // 2 + 1):
        assert f(2 * n) <= f(n) ** 2
    for n in range(1, N + 1):
        assert f(n) <= 2 * (n + 1) * math.factorial(witness.omega[n])
    for n in range(witness.n0, N + 1):
        assert f(n) < n * n


def test_check_growth_properties_affine():
    rep = check_growth_properties(GrowthTable.from_function(lambda n: n + 1, 500))
    assert rep["nondecreasing"] and rep["submultiplicative"]
    assert rep["violating_pairs"] == []
    assert rep["doubling_note"] == "finite diagnostic only"


def test_check_growth_properties_detects_violation():
    # f(n)=1 except a spike makes f(m+n) > f(m)f(n)
    vals = [0] + [1] * 10
    vals[6] = 5
    rep = check_growth_properties(GrowthTable(vals, 10))
    assert not rep["submultiplicative"]
    assert any(m + n == 6 for m, n in rep["violating_pairs"])


def test_not_superlinear_rejected():
    g = GrowthTable.from_function(lambda n: n, 1000)
    with pytest.raises(ValueError):
        build_superlinear_witness(g)


def test_horizon_too_short():
    with pytest.raises(ValueError):
        build_superlinear_witness(GrowthTable.from_function(lambda n: n * n, 8))


def test_table_validation():
    with pytest.raises(ValueError):
        GrowthTable([0, 1], 2)
    t = GrowthTable.from_name("n^2", 10)
    assert t(3) == 9
    with pytest.raises(ValueError):
        t(11)


# builds a real witness, corrupts one f value, and runs the growth check
# through the CLI; the parent test runs this under python -O
_CORRUPTED_CHECK = """
import sys
from wordlab import cli, growth_functions as gf

assert sys.flags.optimize
real = gf.build_superlinear_witness

def corrupted(g):
    w = real(g)
    w.f.values[100] += 1
    try:
        gf.verify_witness(w)
    except AssertionError as e:
        print("direct:", e)
    return gf.verify_witness(w)

cli.build_superlinear_witness = corrupted
sys.exit(cli.parse_and_dispatch(["growth", "--n-max", "1000", "check"]))
"""


def test_verify_witness_fails_under_python_O(run_python_O):
    proc = run_python_O(_CORRUPTED_CHECK)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "direct: f(n) != f(n-1) + 1 at n=100\n"
    doc = json.loads(proc.stderr)
    assert doc["witness"] == {"failed_assertion": "f(n) != f(n-1) + 1 at n=100"}


def test_verify_witness_names_failing_n(witness):
    from dataclasses import replace
    vals = list(witness.f.values)
    vals[777] += 1
    bad = replace(witness, f=GrowthTable(vals, witness.f.n_max))
    with pytest.raises(AssertionError, match="n=777"):
        verify_witness(bad)
