import json
import math
import random
import time
import tracemalloc
from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest

from wordlab.growth_functions import (
    GrowthTable,
    _first_negative,
    _last_negative,
    build_superlinear_witness,
    check_growth_properties,
    discrete_derivative,
    verify_witness,
    witness_properties,
)

N = 20_000


def cumulative_sum(deriv, f1):
    """Inverse of discrete_derivative given f(1); reproduces f exactly."""
    vals = [0, f1]
    for n in range(2, deriv.n_max + 1):
        vals.append(vals[-1] + deriv.values[n])
    return GrowthTable(vals, deriv.n_max)


def verify_witness_per_n(w):
    """Oracle for verify_witness: every invariant checked n by n on the
    tabulated f, omega and g, in the same order and with the same messages."""
    N = w.f.n_max
    v = w.f.values
    ds = sorted(w.d.items())
    for (i, di), (j, dj) in zip(ds, ds[1:]):
        if not (j == i + 1 and dj > 4 * di):
            raise AssertionError("d-sequence must grow by factors > 4 (d_%d=%d, d_%d=%d)"
                                 % (i, di, j, dj))
    for i, di in ds:
        if not (di > 1 and di & (di - 1) == 0):
            raise AssertionError("each d_i must be a power of 2 > 1 (d_%d=%d)" % (i, di))
    if v[1] != 2:
        raise AssertionError("f(1) = %d, expected 2" % v[1])
    two_d = {2 * di: i for i, di in w.d.items()}
    for n in range(2, N + 1):
        if n in two_d:
            if v[n] != two_d[n] * v[n // 2]:
                raise AssertionError("f(2 d_i) != i f(d_i) at n=%d" % n)
        elif v[n] != v[n - 1] + 1:
            raise AssertionError("f(n) != f(n-1) + 1 at n=%d" % n)
    om = 0
    for n in range(1, N + 1):
        om = two_d.get(n, om)
        if w.omega[n] != om:
            raise AssertionError("omega(n) != max{i : 2 d_i <= n} at n=%d" % n)
    for n in range(1, N):
        if not v[n] < v[n + 1]:
            raise AssertionError("f must be strictly increasing (fails at n=%d)" % n)
    for n in range(1, N // 2 + 1):
        if not v[2 * n] <= v[n] * v[n]:
            raise AssertionError("f(2n) <= f(n)^2 fails at n=%d" % n)
    for n in range(1, N + 1):
        if not v[n] <= 2 * (n + 1) * math.factorial(w.omega[n]):
            raise AssertionError("telescoping bound fails at n=%d" % n)
    for n in range(w.n0, N + 1):
        if not math.factorial(w.omega[n]) * 2 * (n + 1) < w.g.values[n]:
            raise AssertionError("factorial constraint fails at n=%d" % n)
        if not v[n] < w.g.values[n]:
            raise AssertionError("f(n) < g(n) fails at n=%d" % n)


def growth_properties_per_n(v, N):
    """Oracle for check_growth_properties: nondecreasing,
    strictly_increasing_from and every pair (m, n), m <= n, m + n <= N, with
    f(m+n) > f(m) f(n), found by walking every n and every pair (a row of
    pairs at a time in int64, exact while |f| < 2^31)."""
    nondecreasing = all(v[n] <= v[n + 1] for n in range(1, N))
    strict_from = None
    for n in range(N - 1, 0, -1):
        if v[n] >= v[n + 1]:
            break
        strict_from = n
    a = np.array(v, dtype=np.int64)
    assert np.abs(a).max() < 2**31
    bad = []
    for m in range(1, N // 2 + 1):
        n = np.arange(m, N - m + 1)
        bad.extend((m, int(x)) for x in n[a[m + n] > a[m] * a[n]])
    return nondecreasing, strict_from, bad


def _agrees_with_oracle(table):
    rep = check_growth_properties(table)
    nondecreasing, strict_from, bad = growth_properties_per_n(table.values,
                                                              table.n_max)
    assert rep["nondecreasing"] == nondecreasing
    assert rep["strictly_increasing_from"] == strict_from
    assert rep["submultiplicative"] == (not bad)
    assert rep["violating_pair"] is None or tuple(rep["violating_pair"]) in bad
    return rep


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
    assert rep["violating_pair"] is None
    assert rep["strictly_increasing_from"] == 1
    assert rep["doubling_note"] == "finite diagnostic only"
    assert "doubling_ratios" not in rep


def test_strictly_increasing_from():
    for vals, start in (([0, 1, 1, 2, 3], 2), ([0, 1, 2, 3, 3], None),
                        ([0, 5], None), ([0, 2, 1, 3], 2)):
        t = GrowthTable(vals, len(vals) - 1)
        assert check_growth_properties(t)["strictly_increasing_from"] == start


def test_check_growth_properties_detects_violation():
    # f(n)=1 except a spike makes f(m+n) > f(m)f(n)
    vals = [0] + [1] * 10
    vals[6] = 5
    rep = check_growth_properties(GrowthTable(vals, 10))
    assert not rep["submultiplicative"]
    m, n = rep["violating_pair"]
    assert m <= n and m + n == 6


def _random_tables(rng, count):
    """Seeded tables of up to 40 values: sorted, arbitrary (some negative),
    rising by random steps, lines with a few points moved, and runs of up to
    12 points of random slopes with random jumps between them."""
    for t in range(count):
        N = rng.randint(1, 40)
        kind = t % 5
        if kind == 0:
            v = sorted(rng.randint(0, 60) for _ in range(N))
        elif kind == 1:
            v = [rng.randint(-3, 30) for _ in range(N)]
        elif kind == 2:
            v = list(accumulate((rng.choice((0, 0, 1, 1, 2, 5))
                                 for _ in range(N - 1)), initial=rng.randint(1, 4)))
        elif kind == 3:
            b, c = rng.randint(0, 3), rng.randint(-2, 4)
            v = [b * n + c for n in range(1, N + 1)]
            for _ in range(rng.randint(0, 2)):
                v[rng.randrange(N)] += rng.randint(-3, 6)
        else:
            v, x = [], rng.randint(-2, 6)
            while len(v) < N:
                b, x = rng.choice((0, 0, 1, 2, 3, 7)), x + rng.randint(-3, 8)
                for _ in range(min(rng.randint(1, 12), N - len(v))):
                    v.append(x)
                    x += b
        yield GrowthTable([0] + v, N)


def test_growth_properties_match_pair_oracle_on_random_tables():
    verdicts = set()
    for t in _random_tables(random.Random(13), 5000):
        rep = _agrees_with_oracle(t)
        verdicts.add((rep["nondecreasing"], rep["submultiplicative"]))
        # the coalesced runs of one slope reproduce the values
        assert GrowthTable.from_pieces(t.pieces, t.n_max).values == t.values
        assert all(a == 0 and b >= 0 for _, a, b, _ in t.pieces)
    assert len(verdicts) == 4


@pytest.mark.parametrize("n_max", [300, 2048, 10**4])
def test_growth_properties_match_pair_oracle_on_witness(n_max):
    w = build_superlinear_witness(GrowthTable.from_name("n^2", n_max))
    rep = _agrees_with_oracle(w.f)
    assert rep["violating_pair"] == [1, 255]
    assert _agrees_with_oracle(GrowthTable(w.f.values, n_max)) == rep


def test_witness_properties_cross_check_monotonicity():
    w = build_superlinear_witness(GrowthTable.from_name("n^2", 2048))
    rep = witness_properties(w)
    assert rep["witness_checks"] is w.checks
    assert rep["f_properties"]["nondecreasing"] is True
    # a witness whose f drops after n = 3, as no verified witness does
    dropped = replace(w, segments=[(1, 1, 0), (4, -2, 0)])
    with pytest.raises(AssertionError, match=r"^f\(3\) > f\(4\) "):
        witness_properties(dropped)


def test_growth_properties_need_rising_lines():
    with pytest.raises(ValueError, match="b >= 0"):
        check_growth_properties(GrowthTable.from_name("n^2", 10))
    with pytest.raises(ValueError, match="b >= 0"):
        check_growth_properties(GrowthTable.from_pieces([(1, 0, -1, 9)], 5))


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


def test_table_from_pieces_matches_rule():
    rules = {"id": lambda n: n, "n^2": lambda n: n * n,
             "nlogn": lambda n: n * max(1, n.bit_length() - 1)}
    for name, rule in rules.items():
        for n_max in (1, 2, 3, 4, 5, 1000):
            t = GrowthTable.from_name(name, n_max)
            assert t.values == GrowthTable.from_function(rule, n_max).values
            assert [t(n) for n in range(1, n_max + 1)] == t.values[1:]


def test_ergodic_names_match_criterion_09_table():
    # `ergodic --f 2^ceil-sqrt` and criterion 09 read the same table
    two_to_ceil_sqrt = GrowthTable.from_function(
        lambda n: 2 ** (math.isqrt(n) + (0 if math.isqrt(n)**2 == n else 1)),
        1024)
    assert GrowthTable.from_name("2^ceil-sqrt", 1024).values \
        == two_to_ceil_sqrt.values
    assert GrowthTable.from_name("const-2", 5).values == [0, 2, 2, 2, 2, 2]
    with pytest.raises(ValueError, match="choose from 2\\^ceil-sqrt, const-2"):
        GrowthTable.from_name("2^n", 8)


def test_nlogn_exact_at_2_pow_60():
    # math.floor(math.log2(2**60 - 1)) is 60: the float rounds up
    n = 2**60 - 1
    t = GrowthTable.from_name("nlogn", 2**61)
    assert t(n) == n * 59 == n * (n.bit_length() - 1)
    assert t(n + 1) == (n + 1) * 60


def test_first_and_last_negative_brute_force():
    rng = random.Random(7)
    small = [(a, b, c, lo, lo + k) for a in range(4) for b in range(-9, 10)
             for c in range(-9, 10) for lo in (-3, 0, 2) for k in (-1, 0, 1, 3, 7)]
    wide = [(rng.randint(0, 3), rng.randint(-60, 60), rng.randint(-300, 300),
             lo, lo + rng.randint(-1, 40))
            for lo in (rng.randint(-40, 40) for _ in range(3000))]
    for a, b, c, lo, hi in small + wide:
        neg = [n for n in range(lo, hi + 1) if a * n * n + b * n + c < 0]
        assert _first_negative(a, b, c, lo, hi) == (neg[0] if neg else None)
        assert _last_negative(a, b, c, lo, hi) == (neg[-1] if neg else None)


def test_superlinear_from_matches_per_n():
    def per_n(v, n_max):
        bad = [n for n in range(1, n_max) if v[n + 1] * n < v[n] * (n + 1)]
        return bad[-1] + 1 if bad else 1
    bumpy = GrowthTable.from_function(
        lambda n: n * n if n > 50 else (7 * n if n % 3 else 100 * n), 3000)
    for g in (bumpy, GrowthTable.from_pieces([(1, 1, 0, 100)], 3000),
              GrowthTable.from_function(lambda n: n * n + 100, 3000)):
        w = build_superlinear_witness(g)
        assert w.superlinear_from == per_n(g.values, 3000) > 1


def _corruptions(w):
    """Seeded corruptions of the segment form: each segment constant +-1,
    each segment omega + 1, each d_i doubled, n0 - 1, and g lowered to (n - B)^2 + 1 (as one piece)
    or at n = B alone (as a table) to 1 or to 2 omega(B)! (B+1), where the
    strict factorial constraint fails with equality; B = (n0 + N) / 2.
    The rules fix every segment constant from d, and for such an f the
    doubling and telescoping bounds hold, so their failing branches are
    covered by the brute-force test above."""
    for k, (lo, c, K) in enumerate(w.segments):
        for piece in ((lo, c + 1, K), (lo, c - 1, K), (lo, c, K + 1)):
            segs = list(w.segments)
            segs[k] = piece
            yield replace(w, segments=segs)
    for i in w.d:
        yield replace(w, d={**w.d, i: 2 * w.d[i]})
    if w.n0 > 1:
        yield replace(w, n0=w.n0 - 1)
    N = w.g.n_max
    B = (w.n0 + N) // 2
    yield replace(w, g=GrowthTable.from_pieces([(1, 1, -2 * B, B * B + 1)], N))
    for low in (1, 2 * math.factorial(w.omega[B]) * (B + 1)):
        vals = list(w.g.values)
        vals[B] = low
        yield replace(w, g=GrowthTable(vals, N))


def _verdict(check, w):
    try:
        check(w)
    except AssertionError as e:
        return str(e)
    return None


@pytest.mark.parametrize("name,n_max", [
    ("n^2", 16), ("n^2", 100), ("n^2", 1000), ("n^2", 4097), ("n^2", 10**5),
    ("nlogn", 1000), ("nlogn", 8192), ("nlogn", 10**5)])
def test_segment_checker_matches_per_n_oracle(name, n_max):
    w = build_superlinear_witness(GrowthTable.from_name(name, n_max))
    assert _verdict(verify_witness_per_n, w) is None
    for bad in _corruptions(w):
        got = _verdict(verify_witness, bad)
        assert got is not None and got == _verdict(verify_witness_per_n, bad)


def test_n_squared_at_10_to_12():
    tracemalloc.start()
    t0 = time.perf_counter()
    w = build_superlinear_witness(GrowthTable.from_name("n^2", 10**12))
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert w.d == {i: 2 ** (3 * i - 5) for i in range(2, 15)}
    assert w.d[14] == 137438953472
    assert w.n0 == 5 and w.superlinear_from == 1
    assert elapsed < 1 and peak < 1 << 20


# builds a real witness, corrupts the constant of its third segment, and
# runs the growth check through the CLI; the parent test runs this under
# python -O
_CORRUPTED_CHECK = """
import sys
from dataclasses import replace
from wordlab import cli, growth_functions as gf

assert sys.flags.optimize
real = gf.build_superlinear_witness

def corrupted(g):
    w = real(g)
    segs = list(w.segments)
    lo, c, K = segs[2]
    segs[2] = (lo, c + 1, K)
    w = replace(w, segments=segs)
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
    assert proc.stdout == "direct: f(2 d_i) != i f(d_i) at n=32\n"
    doc = json.loads(proc.stderr)
    assert doc["witness"] == {"failed_assertion": "f(2 d_i) != i f(d_i) at n=32"}


def test_verify_witness_names_failing_n(witness):
    segs = list(witness.segments)
    lo, c, K = segs[3]
    assert lo == 256
    segs[3] = (lo, c - 1, K)
    with pytest.raises(AssertionError, match="n=256"):
        verify_witness(replace(witness, segments=segs))


def test_growth_properties_of_convex_table_in_time():
    # n^2 + 2 changes slope at every step: 2,048 pieces to N = 4096.  The
    # pair loop stops once low_i times every later low_j bounds max f
    N = 4096
    table = GrowthTable([0] + [n * n + 2 for n in range(1, N + 1)], N)
    t0 = time.perf_counter()
    rep = check_growth_properties(table)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.2, elapsed
    assert rep == _agrees_with_oracle(table)
    assert rep["submultiplicative"] and rep["violating_pair"] is None
