# Integer growth functions and the superlinear-complexity candidate f.
#
# Symbols:
#   g     a superlinear function (g(n)/n eventually increasing)
#   d_i   an increasing sequence of powers of 2 with d_{i+1} > 4 d_i, d_2 > 1
#   omega(n) = max{ i : 2 d_i <= n }   (max of the empty set is 0)
#   f(1) = 2;  f(n) = f(n-1)+1 for n not of the form 2 d_i;  f(2 d_i) = i f(d_i)
#
# The construction needs omega(n)! < g(n) / (2(n+1)) for large n; the builder
# certifies this on the whole range 1..n_max from a recorded threshold n0.
#
# Nothing here walks the range n by n.  A table is held as integer quadratic
# pieces (one for n^2, one per dyadic block for n floor(log2 n), the runs of
# one slope for a table of values), the witness f as segments between the
# jumps 2 d_i, where f(n) = n + c and omega(n) = K are constant.  On a run
# inside one segment and one piece each invariant is the sign of an integer
# quadratic a n^2 + b n + c, a >= 0, whose first or last negative point lies
# at the run's ends or at the vertex, or is bisected.  Submultiplicativity of
# lines of slope >= 0 is decided at the vertices of the regions where m, n
# and m + n lie in given pieces.  So the cost is set by the number of pieces.

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import itemgetter

_lo = itemgetter(0)


def _at(items, n):
    """The piece or segment (lo, ...) of a sorted list that covers n."""
    return items[bisect_right(items, n, key=_lo) - 1]


def _ranges(items, n_max):
    """Yield (item, hi) for each piece or segment, hi its last n."""
    for k, item in enumerate(items):
        yield item, (items[k + 1][0] - 1 if k + 1 < len(items) else n_max)


def _runs(lo, hi, *starts):
    """Split [lo, hi] at every start in the given lists; yield (s, e)."""
    cuts = sorted({x for st in starts for x in st if lo < x <= hi})
    return zip([lo] + cuts, [x - 1 for x in cuts] + [hi])


def _first_negative(a, b, c, lo, hi):
    """Smallest n in [lo, hi] with a n^2 + b n + c < 0 (a >= 0), or None.

    The quadratic is convex, so on the integers it does not increase from
    lo up to its integer minimiser m, and fails somewhere iff it fails at m;
    the first failure is then bisected in [lo, m]."""
    def q(n):
        return (a * n + b) * n + c
    if lo > hi:
        return None
    if q(lo) < 0:
        return lo
    if a == 0:
        m = hi if b < 0 else lo
    else:
        m = min(max(-b // (2 * a), lo), hi)
        if m < hi and q(m + 1) < q(m):
            m += 1
    if q(m) >= 0:
        return None
    ok, bad = lo, m                       # q(ok) >= 0 > q(bad)
    while bad - ok > 1:
        mid = (ok + bad) // 2
        if q(mid) < 0:
            bad = mid
        else:
            ok = mid
    return bad


def _last_negative(a, b, c, lo, hi):
    """Largest n in [lo, hi] with a n^2 + b n + c < 0 (a >= 0), or None."""
    n = _first_negative(a, -b, c, -hi, -lo)
    return None if n is None else -n


class GrowthTable:
    """g(n) for n = 1..n_max in exact integers, held as quadratic pieces.

    ``pieces`` lists (lo, a, b, c) with lo increasing from 1: g(n) is
    a n^2 + b n + c (a >= 0) from lo up to the next piece's lo - 1, and the
    last piece reaches n_max.  The pieces of a table built from values are
    its maximal runs of one slope b >= 0, (lo, 0, b, v[lo] - b lo); a point
    followed by a step down is a piece of its own.  ``values`` (values[n] =
    g(n), index 0 unused) is tabulated from the pieces only when it is first
    read.
    """

    def __init__(self, values, n_max):
        if n_max < 1 or len(values) != n_max + 1:
            raise ValueError("table must cover 1..n_max contiguously")
        self.n_max = n_max
        self._values = values
        self._pieces = None

    @classmethod
    def from_pieces(cls, pieces, n_max):
        """A table held as the given (lo, a, b, c) pieces on 1..n_max."""
        if n_max < 1 or not pieces or pieces[0][0] != 1 or pieces[-1][0] > n_max \
                or any(p[0] >= q[0] for p, q in zip(pieces, pieces[1:])):
            raise ValueError("pieces must start at 1 and increase within 1..n_max")
        t = cls.__new__(cls)
        t.n_max, t._values, t._pieces = n_max, None, pieces
        return t

    @property
    def pieces(self):
        if self._pieces is None:
            v, N = self._values, self.n_max
            self._pieces, lo = [], 1
            while lo <= N:
                b, hi = max(v[min(lo + 1, N)] - v[lo], 0), lo
                while hi < N and v[hi + 1] - v[hi] == b:
                    hi += 1
                self._pieces.append((lo, 0, b, v[lo] - b * lo))
                lo = hi + 1
        return self._pieces

    @property
    def values(self):
        if self._values is None:
            vals = [0]
            for (lo, a, b, c), hi in _ranges(self._pieces, self.n_max):
                vals.extend((a * n + b) * n + c for n in range(lo, hi + 1))
            self._values = vals
        return self._values

    def __call__(self, n):
        if not (1 <= n <= self.n_max):
            raise ValueError("n=%d outside table range 1..%d" % (n, self.n_max))
        _, a, b, c = _at(self.pieces, n)
        return (a * n + b) * n + c

    @classmethod
    def from_function(cls, fn, n_max):
        vals = [0] + [int(fn(n)) for n in range(1, n_max + 1)]
        return cls(vals, n_max)

    @classmethod
    def from_name(cls, name, n_max):
        """One of the closed forms in _NAMED."""
        if name not in _NAMED:
            raise ValueError("unknown growth function %r; choose from %s"
                             % (name, ", ".join(sorted(_NAMED))))
        return cls.from_pieces(_NAMED[name](n_max), n_max)


# name -> the pieces of that function on 1..N.  "nlogn" is
# n max(1, floor(log2 n)), with floor(log2 n) = n.bit_length() - 1 in exact
# integers: n on 1..3, then k n on each block 2^k..2^(k+1)-1.
# "2^ceil-sqrt" is 2^(k+1) for k^2 < n <= (k+1)^2.
_NAMED = {
    "id": lambda N: [(1, 0, 1, 0)],
    "n^2": lambda N: [(1, 1, 0, 0)],
    "nlogn": lambda N: [(1, 0, 1, 0)] + [
        (2 ** k, 0, k, 0) for k in range(2, max(2, N.bit_length()))],
    "2^ceil-sqrt": lambda N: [(k * k + 1, 0, 0, 2 ** (k + 1))
                              for k in range(math.isqrt(max(N, 1) - 1) + 1)],
    "const-2": lambda N: [(1, 0, 0, 2)],
}


def discrete_derivative(table):
    """f'(n) = f(n) - f(n-1); f'(1) is reported as 0 (flagged).

    Returns (GrowthTable, flag) where flag records the f'(1) convention.
    """
    v = table.values
    vals = [0, 0]
    for n in range(2, table.n_max + 1):
        vals.append(v[n] - v[n - 1])
    return GrowthTable(vals, table.n_max), "f_prime_at_1_set_to_0"


def _violating_pair(P, N):
    """The first [m, n], m <= n, with f(m+n) > f(m) f(n), or None, for f
    given as pieces (lo, hi, b, c), f(n) = b n + c with b >= 0.

    For m, n and m + n = s in pieces i, j and k the gap f(m) f(n) - f(s) is
    linear along m and along n and concave along s = const (-b_i b_j m^2),
    so it is least at a vertex of the region, where two of the lines
    m, n, s = const meet: an integer point.  For i = j the gap is symmetric
    and m <= n is not imposed.  As f rises along each piece, (i, j) is
    skipped when f(lo_i), f(lo_j) >= 0 and their product bounds f up to the
    end of the piece that holds min(hi_i + hi_j, N).  Once low_i >= 0 and
    low_i min(low_j, low_j+1, ...) >= max f, every later j is skipped too,
    so the loop over j stops there."""
    starts = [p[0] for p in P]
    low = [b * lo + c for lo, _, b, c in P]
    top = list(accumulate((b * hi + c for _, hi, b, c in P), max))
    rest = list(accumulate(reversed(low), min))[::-1]      # rest[j] = min(low[j:])
    for i, (li, hi_i, bi, ci) in enumerate(P):
        for j in range(i, len(P)):
            lj, hj, bj, cj = P[j]
            if li + lj > N or (low[i] >= 0 and rest[j] >= 0
                               and low[i] * rest[j] >= top[-1]):
                break
            s_hi = min(hi_i + hj, N)
            k_hi = bisect_right(starts, s_hi) - 1
            if min(low[i], low[j]) >= 0 and low[i] * low[j] >= top[k_hi]:
                continue
            for lk, hk, bk, ck in P[bisect_right(starts, li + lj) - 1:k_hi + 1]:
                sl, sh = max(lk, li + lj), min(hk, s_hi)
                corners = [(m, n) for m in (li, hi_i) for n in (lj, hj, sl - m, sh - m)]
                corners += [(s - n, n) for n in (lj, hj) for s in (sl, sh)]
                for m, n in corners:
                    if li <= m <= hi_i and lj <= n <= hj and sl <= m + n <= sh \
                            and (bi * m + ci) * (bj * n + cj) < bk * (m + n) + ck:
                        return sorted((m, n))
    return None


def check_growth_properties(table):
    """Monotonicity and submultiplicativity of f, decided exactly on its
    pieces, which must be lines of slope b >= 0 (those of a table of values
    and of the witness f are); a violating pair (m, n) is the witness.  The
    doubling profile f(2n)/f(n) is asymptotic, so it is only noted.
    """
    N, P = table.n_max, []
    for (lo, a, b, c), hi in _ranges(table.pieces, N):
        if a or b < 0:
            raise ValueError("growth properties need pieces b n + c with b >= 0, "
                             "not %d n^2 + %d n + %d from n=%d" % (a, b, c, lo))
        P.append((lo, hi, b, c))
    # f(hi) - f(hi + 1) at each junction; inside a piece f stays level or rises
    drops = [(hi, b * hi + c - b2 * lo2 - c2)
             for (_, hi, b, c), (lo2, _, b2, c2) in zip(P, P[1:])]
    last = max([hi - 1 for lo, hi, b, _ in P if b == 0 and hi > lo]
               + [hi for hi, d in drops if d >= 0], default=0)
    pair = _violating_pair(P, N)
    return {
        "nondecreasing": all(d <= 0 for _, d in drops),
        "strictly_increasing_from": last + 1 if last + 1 < N else None,
        "submultiplicative": pair is None,
        "violating_pair": pair,
        "doubling_note": "finite diagnostic only",
    }


def witness_properties(w):
    """The witness's checks and the growth properties of its f.  f is
    strictly increasing by verify_witness, so a decrease that
    check_growth_properties finds between its pieces raises AssertionError
    naming the first n with f(n) > f(n + 1)."""
    props = check_growth_properties(w.f)
    if not props["nondecreasing"]:
        n = next(hi for _, hi in _ranges(w.f.pieces, w.f.n_max)
                 if hi < w.f.n_max and w.f(hi) > w.f(hi + 1))
        raise AssertionError("f(%d) > f(%d) in a strictly increasing witness"
                             % (n, n + 1))
    return {"witness_checks": w.checks, "f_properties": props}


@dataclass
class SuperlinearWitness:
    g: GrowthTable
    d: dict                      # i -> d_i, starting at i = 2
    segments: list               # (lo, c, K): f(n) = n + c and omega(n) = K
                                 # from lo up to the next segment's lo - 1
    n0: int                      # factorial constraint certified for all n >= n0
    superlinear_from: int = 0    # g(n)/n nondecreasing from here on
    checks: dict = field(default_factory=dict)

    @cached_property
    def f(self):
        return GrowthTable.from_pieces(
            [(lo, 0, 1, c) for lo, c, _ in self.segments], self.g.n_max)

    @cached_property
    def omega(self):
        """omega[n] for n in 0..n_max (index 0 unused), tabulated when read."""
        om = [0]
        for (lo, _, K), hi in _ranges(self.segments, self.g.n_max):
            om.extend([K] * (hi - lo + 1))
        return om


def _superlinear_threshold(g):
    """Smallest T with g(n+1)/(n+1) >= g(n)/n for all n >= T, or None.

    Inside a piece g(n+1) n - g(n)(n+1) = a n(n+1) - c; the n just before a
    piece's start is checked on its own."""
    last = None
    for (lo, a, _, c), hi in _ranges(g.pieces, g.n_max):
        n = _last_negative(a, a, -c, lo, hi - 1)
        if n is not None:
            last = n
        if hi < g.n_max and g(hi + 1) * hi < g(hi) * (hi + 1):
            last = hi
    T = 1 if last is None else last + 1
    return None if T >= g.n_max else T


def _runs_on(g, segments, lo):
    """Yield (s, e, segment, piece) for each run of [lo, n_max] that lies in
    one segment and one piece of g."""
    pieces = g.pieces
    for s, e in _runs(lo, g.n_max, [x[0] for x in segments], [p[0] for p in pieces]):
        yield s, e, _at(segments, s), _at(pieces, s)


def _factorial_gap(piece, K):
    """(a, b, c) of g(n) - 2 K! (n+1) - 1 on a piece of g: negative exactly
    where the factorial constraint K! 2(n+1) < g(n) fails."""
    _, a, b, c = piece
    F = 2 * math.factorial(K)
    return a, b - F, c - F - 1


def _holds_somewhere(g, K, lo):
    """Whether K! 2(n+1) < g(n) for some n in [lo, n_max].  The gap is convex
    on each piece of g, so it is >= 0 somewhere on a run iff at an end."""
    for piece, hi in _ranges(g.pieces, g.n_max):
        if hi >= lo:
            a, b, c = _factorial_gap(piece, K)
            if any((a * n + b) * n + c >= 0 for n in (max(piece[0], lo), hi)):
                return True
    return False


def build_superlinear_witness(g):
    """Greedy-minimal d-sequence and the function f it defines.

    d_2 is the smallest admissible power of 2 (> 1); each d_{i+1} is the
    smallest power of 2 exceeding 4 d_i whose onset still satisfies the
    factorial constraint omega(n)! < g(n)/(2(n+1)).  The constraint is then
    certified for every n >= n0 up to n_max, with n0 minimal; no such n0
    means the horizon is too short.
    """
    N = g.n_max
    if N < 16:
        raise ValueError("horizon: range too short to place d_2")
    threshold = _superlinear_threshold(g)
    if threshold is None:
        raise ValueError("g is not superlinear on the tabulated range")

    # d_i is placed when, with omega = i from n = 2 d_i on, the factorial
    # constraint holds somewhere in [2 d_i, N] (the recorded n0 absorbs early
    # failures).  A larger candidate only shrinks that range, so only the
    # least candidate is tried: 2, then 8 d_i (the least power of 2 > 4 d_i).
    d = {}
    i, cand = 2, 2
    while 2 * cand <= N and _holds_somewhere(g, i, 2 * cand):
        d[i] = cand
        i, cand = i + 1, 8 * cand
    if not d:
        raise ValueError("horizon: could not place d_2 on the tabulated range")

    segments = [(1, 1, 0)]               # f(n) = n + 1 before the first jump
    for i, di in d.items():
        segments.append((2 * di, i * (di + _at(segments, di)[1]) - 2 * di, i))

    last = None
    for s, e, (_, _, K), piece in _runs_on(g, segments, 1):
        n = _last_negative(*_factorial_gap(piece, K), s, e)
        if n is not None:
            last = n
    n0 = 1 if last is None else last + 1
    if n0 > N:
        raise ValueError("horizon: factorial constraint never stabilizes on the range")

    w = SuperlinearWitness(g=g, d=d, segments=segments, n0=n0,
                           superlinear_from=threshold)
    verify_witness(w)
    return w


def verify_witness(w):
    """All displayed invariants of the construction on 1..n_max.

    Checked segment by segment in the order below; a failure names the
    smallest failing n of the first failing invariant, and raises
    AssertionError explicitly, so the checks hold under python -O too.
    - f(n) = f(n-1) + 1 holds inside a segment, so the rules need checking
      only at segment starts and at the jumps 2 d_i; omega likewise.
    - Strict monotonicity can fail only at a segment start s, where it is
      f'(s) >= 1 (at s = 2 d_i, f'(s) = (i-1) f(d_i) - (d_i - 1)).
    - f(2n) <= f(n)^2 on a run where n lies in one segment (f = n + c) and 2n
      in one segment (f = 2n + c2) is n^2 + (2c - 2) n + c^2 - c2 >= 0.
    - The telescoping bound f(n) <= 2(n+1) K! is linear on a segment.
    - From n0 on, on a run in one segment and one piece of g, the factorial
      constraint K! 2(n+1) < g(n) and f(n) < g(n) are quadratics in n.
    """
    N = w.g.n_max
    segs = w.segments
    starts = [s for s, _, _ in segs]
    if starts[0] != 1 or starts[-1] > N or any(
            a >= b for a, b in zip(starts, starts[1:])):
        raise AssertionError("segments must start at 1 and increase within 1..%d" % N)
    if w.n0 < 1:
        raise AssertionError("n0 = %d is below 1" % w.n0)
    ds = sorted(w.d.items())
    for (i, di), (j, dj) in zip(ds, ds[1:]):
        if not (j == i + 1 and dj > 4 * di):
            raise AssertionError("d-sequence must grow by factors > 4 (d_%d=%d, d_%d=%d)"
                                 % (i, di, j, dj))
    for i, di in ds:
        if not (di > 1 and di & (di - 1) == 0):
            raise AssertionError("each d_i must be a power of 2 > 1 (d_%d=%d)" % (i, di))

    def f(n):
        return n + _at(segs, n)[1]
    if f(1) != 2:
        raise AssertionError("f(1) = %d, expected 2" % f(1))
    two_d = {2 * di: i for i, di in ds if 2 * di <= N}
    for n in sorted(set(starts[1:]) | set(two_d)):
        if n in two_d:
            if f(n) != two_d[n] * f(n // 2):
                raise AssertionError("f(2 d_i) != i f(d_i) at n=%d" % n)
        elif f(n) != f(n - 1) + 1:
            raise AssertionError("f(n) != f(n-1) + 1 at n=%d" % n)
    for n in sorted(set(starts) | set(two_d)):
        if _at(segs, n)[2] != max([i for m, i in two_d.items() if m <= n], default=0):
            raise AssertionError("omega(n) != max{i : 2 d_i <= n} at n=%d" % n)
    for s in starts[1:]:
        if not f(s - 1) < f(s):
            raise AssertionError("f must be strictly increasing (fails at n=%d)"
                                 % (s - 1))
    for s, e in _runs(1, N // 2, starts, [(x + 1) // 2 for x in starts]):
        c, c2 = _at(segs, s)[1], _at(segs, 2 * s)[1]
        n = _first_negative(1, 2 * c - 2, c * c - c2, s, e)
        if n is not None:
            raise AssertionError("f(2n) <= f(n)^2 fails at n=%d" % n)
    for (lo, c, K), hi in _ranges(segs, N):
        F = 2 * math.factorial(K)
        n = _first_negative(0, F - 1, F - c, lo, hi)
        if n is not None:
            raise AssertionError("telescoping bound fails at n=%d" % n)
    # factorial constraint beyond n0, hence f(n) < g(n) there
    for s, e, (_, c, K), piece in _runs_on(w.g, segs, w.n0):
        n1 = _first_negative(*_factorial_gap(piece, K), s, e)
        _, ga, gb, gc = piece
        n2 = _first_negative(ga, gb - 1, gc - c - 1, s, e)
        if n1 is not None and (n2 is None or n1 <= n2):
            raise AssertionError("factorial constraint fails at n=%d" % n1)
        if n2 is not None:
            raise AssertionError("f(n) < g(n) fails at n=%d" % n2)
    w.checks = {
        "d_sequence": dict(ds),
        "n0": w.n0,
        "f_below_g_from_n0": True,
        "strictly_increasing": True,
        "doubling_square_bound": True,
        "telescoping_bound": True,
    }
    return w.checks
