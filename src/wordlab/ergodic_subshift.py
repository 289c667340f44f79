# The strictly-ergodic construction driven by a growth function f:
#
#   b = f(1) = alphabet size, c_0 = 1, N_k = b c_0 ... c_k
#   branch rule:  N_k^2 <= 2 f(2^{k+2})  ->  c_{k+1} = N_k
#                 N_k^2 >  2 f(2^{k+2})  ->  c_{k+1} = floor(2 f(2^{k+2})/N_k),
#                                            c_{k+2} = 1
#   invariants:   1 <= c_{k+1} <= N_k,   f(2^k) <= N_k <= 2 f(2^{k+1})
#
#   W(0) = Sigma, W(k+1) = W(k) C(k) with C(k) subset of W(k), |C(k)| = c_k;
#   U(k) is an ordered queue; when c_k = 1 and the head u_1 fits (|u_1| <= 2^k)
#   the chosen C(k) = {v} has prefix u_1 and the head is consumed.
#
#   I_n = [a_n, b_n] = convex hull of {phi_u(w) : w in W(n)}, Delta_n = b_n - a_n
#     I_{n+1} <= I_n + [0, d/2^{n+1}]          (d = |u|)
#     Delta_{n+1} <= Delta_n + d/2^{n+1},  and <= Delta_n/2 + d/2^{n+1} if c_n = 1
#   The intervals come from the product itself: with p, s the first and last
#   d-1 letters,  Phi_u(wv) = Phi_u(w) + Phi_u(v) + Phi_u(s(w) p(v)),  so the
#   counts over W(k+1) are a |W(k)| x |C(k)| table over the counts of W(k).
#
#   Every factor of the subshift splits into W-blocks with increasing then
#   decreasing levels (binary-expansion decomposition).

import random
import string
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .growth_functions import GrowthTable, check_growth_properties
from .words_core import (
    _SET_MEMBER_BYTES,
    _words_bytes,
    check_budget,
    count_occurrences,
)


@dataclass
class ErgodicParams:
    f: GrowthTable = None
    max_level: int = 8
    choice_policy: str = "lexicographic"   # or "seeded-random"
    seed: int = 0
    max_bytes: int = None

    def __post_init__(self):
        if self.f is None:
            raise ValueError("a growth table f is required")
        if self.f(1) < 2:
            raise ValueError("f(1) = alphabet size must be >= 2")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        if self.choice_policy not in ("lexicographic", "seeded-random"):
            raise ValueError("unknown choice_policy %r" % self.choice_policy)
        rep = check_growth_properties(self.f)
        if not rep["nondecreasing"]:
            raise ValueError("f must be non-decreasing")
        if not rep["submultiplicative"]:
            raise ValueError("f must be submultiplicative on the tabulated "
                             "range; f(m+n) > f(m) f(n) at (m, n) = (%d, %d)"
                             % tuple(rep["violating_pair"]))


@dataclass
class CSequence:
    c: list
    N: list
    ones: set


def build_c_sequence(params):
    """c_0..c_K and N_k = b c_0...c_k by the exact branch rule."""
    f, K = params.f, params.max_level
    if f.n_max < 2 ** (K + 2):
        raise ValueError("horizon: f must be tabulated through 2^(K+2) = %d "
                         "(have %d)" % (2 ** (K + 2), f.n_max))
    b = f(1)
    c, N = [1], [b]
    forced_one = set()
    for k in range(K):
        if (k + 1) in forced_one:
            nxt = 1
        elif N[k] ** 2 <= 2 * f(2 ** (k + 2)):
            nxt = N[k]
        else:
            nxt = (2 * f(2 ** (k + 2))) // N[k]
            forced_one.add(k + 2)
        c.append(nxt)
        N.append(N[k] * nxt)
    ones = {k for k, v in enumerate(c) if v == 1}
    # invariants
    for k in range(K):
        if not 1 <= c[k + 1] <= N[k]:
            raise AssertionError("c_%d out of range" % (k + 1))
    for k in range(K + 1):
        if not f(2 ** k) <= N[k] <= 2 * f(2 ** (k + 1)):
            raise AssertionError("N_%d sandwich fails" % k)
    if ones == {0}:
        raise ValueError("no k >= 1 with c_k = 1 on the tabulated range: "
                         "f is not subexponential there, or the horizon is "
                         "too short")
    return CSequence(c=c, N=N, ones=ones)


@dataclass
class ErgodicLevel:
    k: int
    W: list                       # sorted
    C: list = None                # the chosen subset C(k), sorted


class DeepestLevel:
    """Level K, whose words W(K) = W(K-1) C(K-1) are not built with the
    levels: the verifiers read W(K-1) and C(K-1) only.  W is built on first
    read, after the byte budget is checked, and kept; it cannot be set."""

    C = None

    def __init__(self, below, params):
        self.k = below.k + 1
        self._below = below
        self._params = params
        self._W = None

    @property
    def W(self):
        if self._W is None:
            below = self._below
            check_budget(_words_bytes(len(below.W) * len(below.C), 2 ** self.k),
                         self._params.max_bytes, "W(%d) needs about" % self.k)
            # sorted lists of 2^(K-1)-letter words: w + c ascends with (w, c)
            self._W = [w + c for w in below.W for c in below.C]
        return self._W


@dataclass
class ErgodicLevels:
    params: ErgodicParams
    cseq: CSequence
    levels: list
    alphabet: str
    run_log: list = field(default_factory=list)

    @property
    def deepest(self):
        return len(self.levels) - 1

    def W(self, k):
        return self.levels[k].W

    def is_word(self, m, u):
        """Is u in W(m)?  A bisect in the sorted W(m), or at the deepest
        level in W(K-1) and C(K-1), so W(K) is never listed."""
        if m < self.deepest:
            return _in_sorted(self.W(m), u)
        h = 2 ** (m - 1)
        return _in_sorted(self.W(m - 1), u[:h]) and _in_sorted(self.levels[m - 1].C, u[h:])


def _in_sorted(words, u):
    i = bisect_left(words, u)
    return words[i:i + 1] == [u]


def build_ergodic_levels(params, cseq=None):
    """Levels 0..K with the queue bookkeeping and a JSON-ready run log.

    Levels 0..K-1 are built with their chosen C(k); level K is a
    DeepestLevel.  The queue holds at least two words at every level (it
    starts with the b >= 2 letters, and each step appends |W(k+1)| >= 2
    words and consumes at most one), so the head at K is in it before W(K)
    would be appended: W(K) never enters the queue, and only its size is
    added to the queue length."""
    cseq = cseq or build_c_sequence(params)
    K = params.max_level
    b = params.f(1)
    if b > len(string.ascii_lowercase):
        raise ValueError("alphabet size %d exceeds 26 letters" % b)
    alphabet = string.ascii_lowercase[:b]
    check_budget(sum(_words_bytes(cseq.N[max(k - 1, 0)], 2 ** k) for k in range(K)),
                 params.max_bytes, "levels need about")
    rng = random.Random(params.seed)
    lex = params.choice_policy == "lexicographic"

    W = sorted(alphabet)
    queue = list(W) if lex else rng.sample(W, len(W))
    levels = []
    log = []
    for k in range(K):
        c_k = cseq.c[k]
        head = queue[0]
        consume = (c_k == 1) and (2 ** k >= len(head))
        if consume:
            cand = sorted(v for v in W if v.startswith(head))
            if not cand:
                raise AssertionError("construction invariant violated: no word "
                                     "of W(%d) has prefix %r" % (k, head))
            C = [cand[0] if lex else rng.choice(cand)]
        else:
            C = sorted(W)[:c_k] if lex else sorted(rng.sample(W, c_k))
        levels.append(ErgodicLevel(k=k, W=W, C=C))
        log.append({"k": k, "c_k": c_k, "W_size": len(W), "queue_head": head,
                    "queue_len": len(queue), "consumed_head": consume})
        queue = queue[1:] if consume else queue
        if k + 1 < K:
            W = sorted(w + v for w in W for v in C)
            if len(W) != len(levels[-1].W) * c_k:
                raise AssertionError("W(%d) lost words" % (k + 1))
            queue = queue + (list(W) if lex else rng.sample(W, len(W)))
    # the queue after level K-1 consumed its head, with W(K) appended
    size = len(W) * len(C)
    levels.append(DeepestLevel(levels[-1], params))
    log.append({"k": K, "c_k": cseq.c[K], "W_size": size, "queue_head": queue[0],
                "queue_len": len(queue) + size, "consumed_head": False})
    return ErgodicLevels(params=params, cseq=cseq, levels=levels,
                         alphabet=alphabet, run_log=log)


@dataclass
class FrequencyInterval:
    u: str
    n: int
    a: Fraction
    b: Fraction

    @property
    def delta(self):
        return self.b - self.a


def _count_extremes(levels, u, n_hi):
    """[(min, max) of Phi_u over W(k) for k = 0..n_hi], by the level recursion.

    An occurrence of u (d = |u|) in a product wv lies in w, in v, or across
    the junction, and then inside s(w) p(v), where p and s take the first
    and last d-1 letters (the whole word if it is shorter).  Neither half of
    s(w) p(v) holds an occurrence of its own, so at every length
        Phi_u(wv) = Phi_u(w) + Phi_u(v) + Phi_u(s(w) p(v)).
    Levels are scanned directly up to k0, the first whose words are at
    least d-1 long.  Above it p(wv) = p(w) and s(wv) = s(v), so each word
    carries a prefix id and a suffix id into the fixed string lists of W(k0),
    and the counts of W(k+1) = W(k) C(k) are the |W(k)| x |C(k)| table
        cnt[i] + cnt[c_j] + J[suf_i, pre_{c_j}],
    raveled row by row, with the junction count J taken once per distinct
    (suffix, prefix) pair.  W(k) and C(k) are sorted lists of words of one
    length, so that order is the sorted W(k), and a C(k) member is placed
    by its rank there."""
    r = len(u) - 1
    k0 = 0
    while 2 ** k0 < r:
        k0 += 1
    out = []
    for k in range(min(k0, n_hi) + 1):
        cnt = np.array([count_occurrences(u, w) for w in levels.W(k)],
                       dtype=np.int64)
        out.append((int(cnt.min()), int(cnt.max())))
    if n_hi <= k0:
        return out
    words = levels.W(k0)
    pre_str, pre = np.unique([w[:r] for w in words], return_inverse=True)
    suf_str, suf = np.unique([w[len(w) - r:] for w in words], return_inverse=True)
    J = np.full((len(suf_str), len(pre_str)), -1, dtype=np.int64)
    for k in range(k0, n_hi):
        W, C = levels.W(k), levels.levels[k].C
        ci = np.array([bisect_left(W, c) for c in C], dtype=np.int64)
        rows, cols = suf[:, None], pre[ci][None, :]
        for a in np.unique(rows).tolist():
            for b in np.unique(cols).tolist():
                if J[a, b] < 0:
                    J[a, b] = count_occurrences(u, suf_str[a] + pre_str[b])
        cnt = (cnt[:, None] + cnt[ci][None, :] + J[rows, cols]).ravel()
        pre, suf = np.repeat(pre, len(C)), np.tile(suf[ci], len(suf))
        out.append((int(cnt.min()), int(cnt.max())))
    return out


def _interval(u, n, extremes):
    lo, hi = extremes
    return FrequencyInterval(u=u, n=n, a=Fraction(lo, 2 ** n),
                             b=Fraction(hi, 2 ** n))


def interval_rows(levels, u):
    """(n, a_n, b_n, Delta_n) rows for every built level, exact rationals,
    all levels from one pass of the recursion."""
    n_lo = 0
    while 2 ** n_lo < len(u):
        n_lo += 1
    ext = _count_extremes(levels, u, levels.deepest)
    return [(n, iv.a, iv.b, iv.delta)
            for n in range(n_lo, levels.deepest + 1)
            for iv in [_interval(u, n, ext[n])]]


def verify_interval_nesting(levels, u):
    """a_n monotone, the two Delta recursions, and the explicit window bound
    Delta_{n+1} <= 2^{-k_n} Delta_{n0} + d (2^{-(n0+1)} + ... + 2^{-(n+1)})
    for every window [n0, n], all in exact rationals."""
    rows = interval_rows(levels, u)
    if len(rows) < 3:
        raise ValueError("need at least 3 built levels covering |u|")
    d = len(u)
    ns = [r[0] for r in rows]
    a = {r[0]: r[1] for r in rows}
    b = {r[0]: r[2] for r in rows}
    delta = {r[0]: r[3] for r in rows}
    S = levels.cseq.ones
    mono = all(a[n1] >= a[n0] for n0, n1 in zip(ns, ns[1:]))
    contain = all(a[n1] >= a[n0] and b[n1] <= b[n0] + Fraction(d, 2 ** n1)
                  for n0, n1 in zip(ns, ns[1:]))
    rec1 = all(delta[n1] <= delta[n0] + Fraction(d, 2 ** n1)
               for n0, n1 in zip(ns, ns[1:]))
    rec2 = all(delta[n + 1] <= delta[n] / 2 + Fraction(d, 2 ** (n + 1))
               for n in ns[:-1] if n in S and n + 1 in delta)
    window = True
    for i, n0 in enumerate(ns):
        for n in ns[i:-1]:
            k_n = len([m for m in S if n0 <= m <= n])
            tail = sum(Fraction(1, 2 ** (m + 1)) for m in range(n0, n + 1))
            if delta[n + 1] > Fraction(delta[n0], 2 ** k_n) + d * tail:
                window = False
    report = {
        "u": u, "d": d, "levels": ns,
        "a_monotone": bool(mono),
        "containment": bool(contain),
        "delta_recursion_all_n": bool(rec1),
        "delta_recursion_S": bool(rec2),
        "window_bound": bool(window),
        "intervals": [(n, str(a[n]), str(b[n]), str(delta[n])) for n in ns],
        "pass": bool(mono and contain and rec1 and rec2 and window),
    }
    return report


# ---------------------------------------------------------------------------
# binary-expansion decomposition of factors

def _prefix_blocks(v, levels):
    """v a nonempty prefix of a W(t) word -> blocks of decreasing levels."""
    blocks = []
    while v:
        m = len(v).bit_length() - 1          # 2^m <= |v|
        head, v = v[:2 ** m], v[2 ** m:]
        if not levels.is_word(m, head):
            raise AssertionError("prefix block is not in W(%d)" % m)
        blocks.append((m, head))
    return blocks


def _suffix_blocks(v, levels):
    """v a nonempty suffix of a built word -> blocks of increasing levels."""
    out = []
    while v:
        L = len(v)
        if L & (L - 1) == 0 and levels.is_word(L.bit_length() - 1, v):
            out.append((L.bit_length() - 1, v))
            break
        t = (L - 1).bit_length()             # 2^{t-1} < |v| <= 2^t
        tail = v[-(2 ** (t - 1)):]
        if not levels.is_word(t - 1, tail):
            raise AssertionError("suffix block is not in W(%d)" % (t - 1))
        out.append((t - 1, tail))
        v = v[:-(2 ** (t - 1))]
    return out[::-1]


def decompose_factor(levels, v):
    """v = u_1...u_r w_1...w_s with u_i in W(n_i), w_j in W(m_j),
    n_1 < ... < n_r and m_1 > ... > m_s, via the binary-expansion procedure.
    The host, the first W(t) word holding v at the least such t, is read off
    the products of the sorted W(t-1) and C(t-1), which come in order."""
    if not v:
        raise ValueError("empty factor")
    for t in range((len(v) - 1).bit_length(), levels.deepest + 1):
        words = levels.W(0) if t == 0 else (
            w + c for w in levels.W(t - 1) for c in levels.levels[t - 1].C)
        host = next((w for w in words if v in w), None)
        if host is not None:
            break
    else:
        raise ValueError("not a factor of any built word (deepest level %d)"
                         % levels.deepest)
    if levels.is_word(t, v):
        inc, dec = [], [(t, v)]
    else:
        # t >= 1 and, by minimality of t, every occurrence straddles the middle
        h = 2 ** (t - 1)
        i = host.find(v)
        if not i < h < i + len(v):
            raise AssertionError("occurrence does not straddle the middle")
        inc = _suffix_blocks(v[:h - i], levels)
        dec = _prefix_blocks(v[h - i:], levels)
    # the blocks are consecutive slices of v, each checked as it was cut,
    # and the w-block levels fall with the binary expansion; a 2^m suffix
    # that is no W(m) word splits into two W(m-1) blocks
    inc_levels = [m for m, _ in inc]
    if inc_levels != sorted(set(inc_levels)):
        raise AssertionError("u-block levels are not increasing")
    return {"v": v, "blocks": inc + dec, "r": len(inc), "s": len(dec),
            "minimal_level": t}


# ---------------------------------------------------------------------------
# finite reflections of the complexity sandwich and the frequency limit
#
# Covering argument.  A length-n factor of a word wc of W(k+1) = W(k) C(k)
# lies in w, in c, or across the junction, and then in s(w) p(c), where p
# and s take the first and last n-1 letters (the whole word when it is
# shorter).  By induction, every length-n factor of a W(K) word is a letter
# or a window of such a junction string at some level k < K.  Conversely
# every W(k+1) word is a prefix of a W(K) word, so every window of a
# junction string at a level k < K is a factor of W(K).


def _split_products(levels, j, n, seen):
    """Add to seen the length-n windows across the junction of
    W(j+1) = W(j) C(j): the products {s_i(w) : w in W(j)} . {p_{n-i}(c) :
    c in C(j)} over the splits 1 <= i <= 2^j with 1 <= n-i <= 2^j, since
    W(j+1) pairs every w with every c.  The byte budget is checked before
    each product is added."""
    W, C = levels.W(j), levels.levels[j].C
    for i in range(max(1, n - 2 ** j), min(2 ** j, n - 1) + 1):
        sufs, pres = {w[-i:] for w in W}, {c[:n - i] for c in C}
        need = len(seen) + len(sufs) * len(pres)
        check_budget(need * (n + _SET_MEMBER_BYTES), levels.params.max_bytes,
                     "up to %d factors of %d letters need about" % (need, n))
        seen.update(s + p for s in sufs for p in pres)
    return seen


def _factor_counts(levels, n):
    """(count at depth K-1, count at depth K) of the distinct length-n
    factors of the W(K-1) and the W(K) words, K the deepest level.  For
    n >= 2, by the covering argument, they are the union of the split
    products of the levels j below the depth.  The depth K-1 count is the
    size of that union before level K-1 is added."""
    K = levels.deepest
    if n == 1:
        return len(levels.alphabet), len(levels.alphabet)
    seen = set()
    for j in range(K - 1):
        _split_products(levels, j, n, seen)
    prev = len(seen)
    return prev, len(_split_products(levels, K - 1, n, seen))


def verify_sandwich(levels, k_max=None):
    """Dyadic-scale reflection of f <= p <= n f: for each k <= k_max,
    f(2^k) <= |W(k+1)| and |W(k)| <= p_built(2^k) <= 2^k |W(k+1)|, where
    p_built counts the length-2^k factors of the deepest level K and p_prev,
    reported beside it, those of level K-1.  The label is "stabilized" where
    the two agree, else "lower bound": both count factors of built words, so
    each is a lower bound on the subshift's p(2^k).  Both counts come from
    one pass of split products (_factor_counts) at n = 2^k only.  k_max
    defaults to K-2 and is at most K-1 (where the depth K-1 count only reads
    |W(K-1)|)."""
    f = levels.params.f
    K = levels.deepest
    k_max = K - 2 if k_max is None else min(k_max, K - 1)
    if k_max < 0:
        raise ValueError("need k_max >= 0")
    report = {}
    for k in range(0, k_max + 1):
        prev, count = _factor_counts(levels, 2 ** k)
        sizes = {"W_k": levels.cseq.N[max(k - 1, 0)], "W_k1": levels.cseq.N[k]}
        lower = f(2 ** k) <= sizes["W_k1"]
        upper = sizes["W_k"] <= count <= 2 ** k * sizes["W_k1"]
        report[k] = {"f_2k": f(2 ** k), "p_built": count, "p_prev": prev,
                     "label": "stabilized" if count == prev else "lower bound",
                     **sizes, "lower_ok": bool(lower), "count_ok": bool(upper)}
        if not (lower and upper):
            raise AssertionError("sandwich fails at k=%d" % k)
    return report


def _window_extremes(levels, u, n):
    """(min, max) of Phi_u over the length-2^n windows of the W(n+3) words.
    By the covering argument such a window is a letter (n = 0) or a window
    across a junction at some level j < n+3, so it lies in the split
    products of levels n-1..n+2 (none below n-1 has a split of 2^n)."""
    if n == 0:
        windows = levels.alphabet
    else:
        windows = set()
        for j in range(n - 1, n + 3):
            _split_products(levels, j, 2 ** n, windows)
    counts = [count_occurrences(u, x) for x in windows]
    return min(counts), max(counts)


def verify_frequency_deviation(levels, u, n):
    """Every length-2^n window of every W(n+3) word stays within the bound
    assembled from the finite interval data:
        |phi_u(xi) - mid| < min_t (err_t + 2^{t+1}/N) + (2n+1) d / N
    where N = 2^n, mid = midpoint of the deepest I_k, and err_t bounds
    |phi_u(z) - mid| over W(k) for k in [t, deepest]."""
    if n + 3 > levels.deepest:
        raise ValueError("need level n+3 = %d built" % (n + 3))
    d = len(u)
    N = 2 ** n
    if d > N:
        raise ValueError("|u| must be <= 2^n")
    rows = interval_rows(levels, u)
    a = {r[0]: r[1] for r in rows}
    b = {r[0]: r[2] for r in rows}
    deepest = rows[-1][0]
    mid = (a[deepest] + b[deepest]) / 2
    best = None
    for t in [r[0] for r in rows if r[0] <= n]:
        err_t = max(max(mid - a[k], b[k] - mid) for k in a if k >= t)
        cand = err_t + Fraction(2 ** (t + 1), N)
        if best is None or cand < best[0]:
            best = (cand, t)
    bound = best[0] + Fraction((2 * n + 1) * d, N)
    lo_phi, hi_phi = _window_extremes(levels, u, n)
    max_dev = max(abs(Fraction(lo_phi, N) - mid), abs(Fraction(hi_phi, N) - mid))
    ok = max_dev < bound
    return {"u": u, "n": n, "N": N, "mid": str(mid), "t_star": best[1],
            "bound": str(bound), "max_deviation": str(max_dev),
            "pass": bool(ok)}
