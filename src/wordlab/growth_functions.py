# Tabulated integer growth functions and the superlinear-complexity
# candidate f.
#
# Symbols:
#   g     a superlinear function (g(n)/n eventually increasing)
#   d_i   an increasing sequence of powers of 2 with d_{i+1} > 4 d_i, d_2 > 1
#   omega(n) = max{ i : 2 d_i <= n }   (max of the empty set is 0)
#   f(1) = 2;  f(n) = f(n-1)+1 for n not of the form 2 d_i;  f(2 d_i) = i f(d_i)
#
# The construction needs omega(n)! < g(n) / (2(n+1)) for large n; the builder
# certifies this on the whole tabulated range from a recorded threshold n0.

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass
class GrowthTable:
    """f(n) for n = 1..n_max, arbitrary-precision integers."""

    values: list            # values[n] = f(n); index 0 unused
    n_max: int

    def __post_init__(self):
        if self.n_max < 1 or len(self.values) != self.n_max + 1:
            raise ValueError("table must cover 1..n_max contiguously")

    def __call__(self, n):
        if not (1 <= n <= self.n_max):
            raise ValueError("n=%d outside table range 1..%d" % (n, self.n_max))
        return self.values[n]

    @classmethod
    def from_function(cls, fn, n_max):
        vals = [0] + [int(fn(n)) for n in range(1, n_max + 1)]
        return cls(vals, n_max)

    @classmethod
    def from_name(cls, name, n_max):
        """Closed-form pickers: "id", "n^2", "nlogn"."""
        if name == "id":
            return cls.from_function(lambda n: n, n_max)
        if name in ("n^2", "n2", "square"):
            return cls.from_function(lambda n: n * n, n_max)
        if name in ("nlogn", "n log n"):
            return cls.from_function(lambda n: max(1, n * max(1, math.floor(math.log2(n)))), n_max)
        raise ValueError("unknown growth function %r" % name)


def discrete_derivative(table):
    """f'(n) = f(n) - f(n-1); f'(1) is reported as 0 (flagged).

    Returns (GrowthTable, flag) where flag records the f'(1) convention.
    """
    vals = [0, 0]
    for n in range(2, table.n_max + 1):
        vals.append(table.values[n] - table.values[n - 1])
    return GrowthTable(vals, table.n_max), "f_prime_at_1_set_to_0"


def cumulative_sum(deriv, f1):
    """Inverse of discrete_derivative given f(1); reproduces f exactly."""
    vals = [0, f1]
    for n in range(2, deriv.n_max + 1):
        vals.append(vals[-1] + deriv.values[n])
    return GrowthTable(vals, deriv.n_max)


def check_growth_properties(table, pair_limit=2_000_000):
    """Monotonicity, submultiplicativity, and doubling-ratio diagnostics.

    Submultiplicativity means f(m+n) <= f(m) f(n); all tested violating
    pairs are returned.  The doubling profile f(2n)/f(n) is a finite
    diagnostic only (polynomial boundedness is an asymptotic statement
    that no finite table can settle).
    """
    v = table.values
    N = table.n_max
    nondecreasing = all(v[n] <= v[n + 1] for n in range(1, N))
    strict_from = None
    for start in range(1, N):
        if all(v[n] < v[n + 1] for n in range(start, N)):
            strict_from = start
            break
    violations = []
    # test all pairs when affordable, else a deterministic stride sample
    total_pairs = (N - 1) * N // 2
    stride = max(1, int(math.isqrt(max(1, total_pairs // pair_limit))))
    tested = 0
    for m in range(1, N, stride):
        for n in range(m, N - m + 1, stride):
            tested += 1
            if v[m + n] > v[m] * v[n]:
                violations.append((m, n))
    doubling = [(n, Fraction(v[2 * n], v[n])) for n in range(1, N // 2 + 1)]
    return {
        "nondecreasing": nondecreasing,
        "strictly_increasing_from": strict_from,
        "submultiplicative": not violations,
        "violating_pairs": violations,
        "pairs_tested": tested,
        "doubling_ratios": doubling,
        "doubling_note": "finite diagnostic only",
    }


@dataclass
class SuperlinearWitness:
    g: GrowthTable
    d: dict                      # i -> d_i, starting at i = 2
    f: GrowthTable
    omega: list                  # omega[n] for n in 0..n_max (index 0 unused)
    n0: int                      # factorial constraint certified for all n >= n0
    superlinear_from: int = 0    # g(n)/n nondecreasing from here on
    checks: dict = field(default_factory=dict)


def _superlinear_threshold(g):
    """Smallest T with g(n+1)/(n+1) >= g(n)/n for all n >= T, or None."""
    v = g.values
    T = 1
    for n in range(1, g.n_max):
        if v[n + 1] * n < v[n] * (n + 1):
            T = n + 1
    if T >= g.n_max:
        return None
    return T


def build_superlinear_witness(g):
    """Greedy-minimal d-sequence and the function f it defines.

    d_2 is the smallest admissible power of 2 (> 1); each d_{i+1} is the
    smallest power of 2 exceeding 4 d_i whose onset still satisfies the
    factorial constraint omega(n)! < g(n)/(2(n+1)).  The constraint is then
    certified for every tabulated n >= n0, with n0 minimal; no such n0
    means the horizon is too short.
    """
    N = g.n_max
    if N < 16:
        raise ValueError("horizon: range too short to place d_2")
    threshold = _superlinear_threshold(g)
    if threshold is None:
        raise ValueError("g is not superlinear on the tabulated range")

    d = {}
    i = 2
    last = None
    while True:
        # d_2 only needs to exceed 1; afterwards d_{i+1} > 4 d_i
        cand = 2
        while last is not None and cand <= 4 * last:
            cand *= 2
        # feasibility: with omega = i from n = 2*cand on, the factorial
        # constraint i! * 2(n+1) < g(n) must hold from some point of the
        # regime onwards (the recorded n0 absorbs early failures)
        fact_i = math.factorial(i)
        placed = False
        while 2 * cand <= N:
            if any(fact_i * 2 * (n + 1) < g.values[n] for n in range(2 * cand, N + 1)):
                d[i] = cand
                last = cand
                placed = True
                break
            cand *= 2
        if not placed:
            break
        i += 1

    if 2 not in d:
        raise ValueError("horizon: could not place d_2 on the tabulated range")

    two_d = {2 * di: i for i, di in d.items()}
    omega = [0] * (N + 1)
    cur = 0
    jumps = sorted(two_d.items())
    jptr = 0
    for n in range(1, N + 1):
        while jptr < len(jumps) and jumps[jptr][0] <= n:
            cur = jumps[jptr][1]
            jptr += 1
        omega[n] = cur

    fvals = [0, 2]
    for n in range(2, N + 1):
        if n in two_d:
            i = two_d[n]
            fvals.append(i * fvals[n // 2])
        else:
            fvals.append(fvals[n - 1] + 1)
    f = GrowthTable(fvals, N)

    # factorial constraint omega(n)! < g(n)/(2(n+1)) for all n >= n0, n0 minimal.
    # vectorized where everything fits in int64, exact python ints otherwise.
    fact = [math.factorial(omega[n]) for n in range(N + 1)]
    ok = [False] * (N + 1)
    if max(fact) * 2 * (N + 1) < 2**62 and max(g.values) < 2**62:
        fa = np.array(fact, dtype=np.int64)
        ga = np.array(g.values, dtype=np.int64)
        ns = np.arange(N + 1, dtype=np.int64)
        oka = fa * 2 * (ns + 1) < ga
        ok = oka.tolist()
    else:
        for n in range(1, N + 1):
            ok[n] = fact[n] * 2 * (n + 1) < g.values[n]
    n0 = None
    for n in range(N, 0, -1):
        if not ok[n]:
            n0 = n + 1
            break
    if n0 is None:
        n0 = 1
    if n0 > N:
        raise ValueError("horizon: factorial constraint never stabilizes on the range")

    w = SuperlinearWitness(g=g, d=d, f=f, omega=omega, n0=n0,
                           superlinear_from=threshold)
    verify_witness(w)
    return w


def verify_witness(w):
    """All displayed invariants of the construction, checked on the range.

    A failed invariant raises AssertionError explicitly, so the checks hold
    under python -O too."""
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
    # strict monotonicity: at n = 2 d_i this is f'(2d_i) = (i-1) f(d_i) - (d_i - 1) >= 1
    for n in range(1, N):
        if not v[n] < v[n + 1]:
            raise AssertionError("f must be strictly increasing (fails at n=%d)" % n)
    # f(2n) <= f(n)^2
    for n in range(1, N // 2 + 1):
        if not v[2 * n] <= v[n] * v[n]:
            raise AssertionError("f(2n) <= f(n)^2 fails at n=%d" % n)
    # telescoping bound f(n) <= 2(n+1) omega(n)!
    for n in range(1, N + 1):
        if not v[n] <= 2 * (n + 1) * math.factorial(w.omega[n]):
            raise AssertionError("telescoping bound fails at n=%d" % n)
    # factorial constraint beyond n0, hence f(n) < g(n) there
    for n in range(w.n0, N + 1):
        if not math.factorial(w.omega[n]) * 2 * (n + 1) < w.g.values[n]:
            raise AssertionError("factorial constraint fails at n=%d" % n)
        if not v[n] < w.g.values[n]:
            raise AssertionError("f(n) < g(n) fails at n=%d" % n)
    w.checks = {
        "d_sequence": dict(ds),
        "n0": w.n0,
        "f_below_g_from_n0": True,
        "strictly_increasing": True,
        "doubling_square_bound": True,
        "telescoping_bound": True,
    }
    return w.checks
