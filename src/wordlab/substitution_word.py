# The two-letter substitution family over {a,b}:
#
#   alpha_0 = a, beta_0 = b
#   alpha_{j+1} = (alpha_j^2 beta_j)^{n_{j+1}},  beta_{j+1} = (beta_j^2 alpha_j)^{n_{j+1}}
#   N_k = |alpha_k| = prod_j 3 n_j,   Ntilde_k = N_k - 3 N_{k-1} = 3(n_k - 1) N_{k-1}
#
# w is the limit of the alpha_k (each alpha_k is a prefix of alpha_{k+1}).
# Facts used as oracles here:
#   * every factor of w of length <= Ntilde_k is a window of alpha_k beta_k
#     or beta_k alpha_k, and conversely every such window is a factor
#   * every factor of length 7 N_k contains both alpha_k beta_k and
#     beta_k alpha_k, giving Rec_w(Ntilde_k) <= 7 N_k
#   * alpha_k beta_k and beta_k alpha_k have no period d <= Ntilde_k
#   * alpha_k and beta_k have period 3 N_{k-1}, so every length-n factor of
#     the two masters already lies in their junction windows
#     alpha_k[-r:] beta_k[:r] and beta_k[-r:] alpha_k[:r], r = 3 N_{k-1} + n - 1
#
# The exponent gamma >= 1 drives n_{j+1} = max{2, ceil(N_j^{gamma-1}/3)}.

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .words_core import (
    _SET_MEMBER_BYTES,
    WindowCensus,
    _pattern_window_stats,
    check_budget,
    max_bytes_budget,
    min_period,
    occurrence_positions,
)


def integer_root(x, q):
    """floor(x^(1/q)) for non-negative integers, exact."""
    if x < 0 or q < 1:
        raise ValueError("bad root arguments")
    if x in (0, 1) or q == 1:
        return x
    if q == 2:
        return math.isqrt(x)
    # integer Newton from above: 2^ceil(bits/q) > x^(1/q), and each step
    # stays >= floor(x^(1/q)) (AM-GM) until the iterate stops decreasing
    r = 1 << -(-x.bit_length() // q)
    while True:
        s = ((q - 1) * r + x // r ** (q - 1)) // q
        if s >= r:
            return r
        r = s


def ceil_rational_power_over_3(N, expo):
    """max{2, ceil(N^expo / 3)} with expo a non-negative Fraction, exact.

    m = ceil(N^expo/3) is the least integer with (3m)^q >= N^p, expo = p/q.
    """
    expo = Fraction(expo)
    if expo < 0:
        raise ValueError("exponent must be >= 0")
    p, q = expo.numerator, expo.denominator
    target = N**p
    r = integer_root(target, q)
    x = r if r**q == target else r + 1     # x = ceil(N^expo)
    return max(2, (x + 2) // 3)


@dataclass
class SubstParams:
    gamma: Fraction = None
    n_list: list = None                    # explicit n_1, n_2, ... (all >= 2)
    max_bytes: int = None

    def __post_init__(self):
        if (self.gamma is None) == (self.n_list is None):
            raise ValueError("give exactly one of gamma or n_list")
        if self.gamma is not None:
            self.gamma = Fraction(self.gamma)
            if self.gamma < 1:
                raise ValueError("gamma must be >= 1")
        if self.n_list is not None and any(n < 2 for n in self.n_list):
            raise ValueError("all n_j must be >= 2")


def choose_n_sequence(params, J=None):
    """(n_j) for j = 1..J plus the j_1 report for N_j^gamma <= N_{j+1} <= 2 N_j^gamma.

    With gamma given: n_1 = 2, n_{j+1} = max{2, ceil(N_j^(gamma-1)/3)}.
    J defaults to the deepest level whose master words fit the byte budget.
    """
    if J is not None and J < 1:
        raise ValueError("depth: need at least one level, got %d" % J)
    budget = max_bytes_budget(params.max_bytes)
    ns = []
    Ns = [1]
    j = 0
    while True:
        if params.n_list is not None:
            if j >= len(params.n_list):
                if J is not None:
                    raise ValueError("depth: n_list gives %d levels, %d asked"
                                     % (len(params.n_list), J))
                break
            nxt = params.n_list[j]
        elif j == 0:
            nxt = 2
        else:
            nxt = ceil_rational_power_over_3(Ns[-1], params.gamma - 1)
        N_next = Ns[-1] * 3 * nxt
        if J is None and 2 * N_next > budget:
            break
        check_budget(2 * N_next, params.max_bytes, "level %d master words need" % (j + 1))
        ns.append(nxt)
        Ns.append(N_next)
        j += 1
        if J is not None and j >= J:
            break
    if not ns:
        raise ValueError("budget: cannot build even level 1")

    j1 = None
    if params.gamma is not None:
        p, q = params.gamma.numerator, params.gamma.denominator
        ok = [Ns[j] ** p <= Ns[j + 1] ** q <= (2**q) * Ns[j] ** p
              for j in range(1, len(Ns) - 1)]
        j1 = len(Ns) - 1
        for j in range(len(ok), 0, -1):
            if not ok[j - 1]:
                break
            j1 = j
    return ns, Ns[1:], j1


class _Masters:
    """levels.alpha or levels.beta: word k of one side, read through the
    levels, so that swapping the two attributes swaps the words read."""

    def __init__(self, levels, side):
        self._levels, self._side = levels, side

    def __getitem__(self, k):
        return self._levels._word(k, self._side)


@dataclass
class SubstLevels:
    """n_j, N_k and Ntilde_k for k = 0..K, and the master words alpha[k],
    beta[k] read from the recursion: a level below K is built from the level
    under it on first read and kept; level K, at least 80 % of the master
    bytes since N_K >= 6 N_{K-1}, is built on every read, one word at a
    time, and never kept.  Junction windows, membership queries and the
    complexity census read level k - 1 only."""
    params: SubstParams
    n: list                      # n[j] for j = 1..K (index 0 unused)
    N: list                      # N[k] for k = 0..K, N[0] = 1
    Nt: list                     # Nt[k] = Ntilde_k for k = 1..K (index 0 is 0)
    K: int
    j1: int = None
    alpha: _Masters = field(init=False, repr=False)
    beta: _Masters = field(init=False, repr=False)
    _kept: dict = field(default_factory=dict, repr=False)
    _census: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.alpha, self.beta = _Masters(self, 0), _Masters(self, 1)

    def _word(self, k, side):
        """alpha_k (side 0) or beta_k (side 1)."""
        if not 0 <= k <= self.K:
            raise IndexError("level %d not built" % k)
        if k == self.K:
            return self._build(k, side)
        pair = self._kept.get(k)
        if pair is None:
            pair = self._kept[k] = (self._build(k, 0), self._build(k, 1))
        return pair[side]

    def _build(self, k, side):
        if k == 0:
            return "ab"[side]
        check_budget(self.N[k], self.params.max_bytes,
                     "a level %d master word needs" % k)
        x, y = self._word(k - 1, side), self._word(k - 1, 1 - side)
        word = (x + x + y) * self.n[k]
        if len(word) != self.N[k]:
            raise AssertionError("alpha_%d or beta_%d is not N_%d long" % (k, k, k))
        return word

    def AB(self, k):
        return self.alpha[k] + self.beta[k]

    def BA(self, k):
        return self.beta[k] + self.alpha[k]

    def junction(self, k, n):
        """alpha_k[-r:] beta_k[:r] and beta_k[-r:] alpha_k[:r] with
        r = min(3 N_{k-1} + n - 1, N_k): same length-n factors as AB_k, BA_k.

        alpha_k = (alpha_{k-1}^2 beta_{k-1})^{n_k} has period P = 3 N_{k-1},
        and so has beta_k.  A length-n window inside alpha_k recurs P places
        further on, so it also starts at one of the last P starts of alpha_k,
        all inside alpha_k[-r:]; a window inside beta_k likewise lies in
        beta_k[:r]; a window across the junction lies in
        alpha_k[-(n-1):] beta_k[:n-1].  The same holds for BA_k, and each
        junction window is itself a factor of its master.  The r letters at
        either end of a master are those of ceil(r / P) periods, so the
        windows are built from level k - 1 and alpha_k, beta_k never are.
        """
        P = 3 * self.N[k - 1]
        r = min(P + n - 1, self.N[k])
        x, y = self.alpha[k - 1], self.beta[k - 1]
        q = -(-r // P)
        a, b = (x + x + y) * q, (y + y + x) * q
        return a[-r:] + b[:r], b[-r:] + a[:r]

    def min_level_for(self, n):
        """Minimal k with n <= Ntilde_k; factors that long live in AB_k/BA_k."""
        for k in range(1, self.K + 1):
            if n <= self.Nt[k]:
                return k
        raise ValueError("depth: n=%d exceeds Ntilde_%d=%d; build deeper levels"
                         % (n, self.K, self.Nt[self.K]))

    def contains(self, u):
        """Is u a factor of w?"""
        if u == "":
            return True
        ab, ba = self.junction(self.min_level_for(len(u)), len(u))
        return u in ab or u in ba

    def census(self, k, need=None):
        """Window census of the level-k junction windows joined by "|"
        (memoized, cap grown on demand)."""
        need = self.Nt[k] if need is None else min(need, self.Nt[k])
        cached = self._census.get(k)
        if cached is None or cached.cap < need:
            cap = self.Nt[k]
            if 2 * self.N[k] > 100_000:
                # large level: keep the sort depth close to what is asked for
                cap = min(cap, max(4096, 1 << (need - 1).bit_length()))
            host = "|".join(self.junction(k, cap))
            cached = WindowCensus(host, cap, separators="|",
                                  max_bytes=self.params.max_bytes)
            self._census[k] = cached
        return cached

    def complexity(self, n):
        """Exact p_w(n)."""
        if n == 0:
            return 1
        k = self.min_level_for(n)
        return self.census(k, need=n).count(n)


def build_substitution_levels(params, K=None):
    """n_j, N_k, Ntilde_k and j_1 with their closed forms checked; no master
    word is built here (see SubstLevels)."""
    ns, Ns, j1 = choose_n_sequence(params, J=K)
    n = [0] + list(ns)
    K = len(ns)
    N = [1] + list(Ns)
    Nt = [0] + [N[k] - 3 * N[k - 1] for k in range(1, K + 1)]
    for k in range(1, K + 1):
        if not (Nt[k] == 3 * (n[k] - 1) * N[k - 1]
                and N[k] <= 2 * Nt[k] <= 2 * N[k]):
            raise AssertionError("Ntilde_%d is off its closed form" % k)
    return SubstLevels(params=params, n=n, N=N, Nt=Nt, K=K, j1=j1)


def subst_factor_set(levels, n):
    """Exact L_w(n), a frozenset, read off the census blocks of the minimal
    sufficient level.  Raises ValueError("budget: ...") before building any
    string when the p(n) set members could exceed the byte budget."""
    census = levels.census(levels.min_level_for(n), need=n)
    p = census.count(n)
    check_budget(p * (n + _SET_MEMBER_BYTES), levels.params.max_bytes,
                 "%d length-%d factors need up to" % (p, n))
    host = census.host
    return frozenset(host[b[0]:b[0] + n] for b in census.blocks(n))


def densities(levels, k):
    """Letter frequencies of alpha_k and beta_k, checked against the closed
    form.  The letters are counted through the recursion, from alpha_0 and
    beta_0: |alpha_{j+1}|_a = n_{j+1} (2 |alpha_j|_a + |beta_j|_a), its
    mirror for beta, and |alpha_{j+1}| = 3 n_{j+1} |alpha_j| = N_{j+1}; no
    master word is built."""
    if not (0 <= k <= levels.K):
        raise ValueError("level %d not built" % k)
    x, y = levels.alpha[0], levels.beta[0]
    in_alpha, in_beta, length = x.count("a"), y.count("a"), len(x)
    for j in range(1, k + 1):
        nj = levels.n[j]
        in_alpha, in_beta = nj * (2 * in_alpha + in_beta), nj * (2 * in_beta + in_alpha)
        length *= 3 * nj
        if length != levels.N[j]:
            raise AssertionError("alpha_%d or beta_%d is not N_%d long" % (j, j, j))
    a_in_alpha = Fraction(in_alpha, levels.N[k])
    a_in_beta = Fraction(in_beta, levels.N[k])
    closed_alpha = Fraction(3**k + 1, 2 * 3**k)
    closed_beta = Fraction(3**k - 1, 2 * 3**k)
    if a_in_alpha != closed_alpha:
        raise AssertionError("phi_a(alpha_%d) != (1+3^-%d)/2" % (k, k))
    if a_in_beta != closed_beta:
        raise AssertionError("phi_a(beta_%d) != (1-3^-%d)/2" % (k, k))
    return {
        "phi_a_alpha": a_in_alpha,
        "phi_b_alpha": 1 - a_in_alpha,
        "phi_a_beta": a_in_beta,
        "phi_b_beta": 1 - a_in_beta,
    }


def beta_cubed_positions(levels, k):
    """1-indexed starts of beta_k^3 in alpha_{k+1}beta_{k+1}, with the window
    check N_{k+1} - 3N_k + 2 <= i <= N_{k+1}; mirrored alpha_k^3 check too."""
    if k + 1 > levels.K:
        raise ValueError("level %d not built" % (k + 1))
    lo = levels.N[k + 1] - 3 * levels.N[k] + 2
    hi = levels.N[k + 1]
    out = {}
    for name, cube, host in (
        ("beta_cubed_in_AB", levels.beta[k] * 3, levels.AB(k + 1)),
        ("alpha_cubed_in_BA", levels.alpha[k] * 3, levels.BA(k + 1)),
    ):
        pos = [i + 1 for i in occurrence_positions(cube, host)]
        for i in pos:
            if not lo <= i <= hi:
                raise AssertionError("%s occurrence at %d outside [%d,%d]"
                                     % (name, i, lo, hi))
        out[name] = {"positions": pos, "window": (lo, hi)}
    return out


def recurrence_function(levels, n):
    """Exact Rec_w(n) with a failing-window certificate at Rec-1.

    Rec_w(n) is the least K such that every length-K factor of w contains
    every length-n factor.  Upper bound 7 N_k with k minimal such that
    n <= Ntilde_k; candidate lengths live inside the level-m master words
    where 7 N_k <= Ntilde_m.  Each master's census blocks give the sorted
    occurrences of every length-n window, hence its first and last
    occurrence and largest gap.  A master is a factor of w, so when it has
    p(n) distinct length-n windows it holds every length-n factor.  Failed
    checks raise AssertionError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = levels.min_level_for(n)
    upper = 7 * levels.N[k]
    try:
        m = levels.min_level_for(upper)
    except ValueError:
        raise ValueError("depth: recurrence at n=%d needs a level m with "
                         "Ntilde_m >= %d" % (n, upper))
    p = levels.complexity(n)
    rec = 0
    for name, host in (("AB", levels.AB(m)), ("BA", levels.BA(m))):
        blocks = WindowCensus(host, n, max_bytes=levels.params.max_bytes).blocks(n)
        if len(blocks) != p:
            raise AssertionError("%s_%d has %d distinct length-%d windows, not "
                                 "p(%d) = %d" % (name, m, len(blocks), n, n, p))
        worst = max(_pattern_window_stats(b, n, len(host), len(host))[2]
                    for b in blocks)
        if worst > rec:
            rec, rec_name, rec_host, rec_blocks = worst, name, host, blocks
    if rec > upper:
        raise AssertionError("Rec_w(%d)=%d exceeds the 7 N_k bound %d" % (n, rec, upper))

    certificate = None
    if rec - 1 >= n:
        # the first failing window, then the smallest pattern missing from
        # it: blocks come in lexicographic order, so the smallest index
        failures = []
        for i, b in enumerate(rec_blocks):
            ok, fail, _ = _pattern_window_stats(b, n, len(rec_host), rec - 1)
            if not ok:
                failures.append((fail, i))
        if not failures:
            raise AssertionError("every length-%d window of %s_%d contains every "
                                 "length-%d factor" % (rec - 1, rec_name, m, n))
        fail, i = min(failures)
        start = rec_blocks[i][0]
        certificate = {
            "host": rec_name,
            "host_level": m,
            "window_length": rec - 1,
            "failing_window": fail,
            "missing_pattern": rec_host[start:start + n],
        }
    return {"n": n, "rec": rec, "level": k, "host_level": m,
            "upper_bound_7Nk": upper, "certificate": certificate}


def complexity_rows(levels, lo, hi):
    """(n, p(n), p(n) - p(n-1), bounds_ok) for n = lo..hi, with "" for the
    difference at lo.  The bounds are n + 1 <= p(n), and p(n) <= 14n from
    n = Ntilde_1 on; the first n that breaks one raises AssertionError."""
    if not 1 <= lo <= hi:
        raise ValueError("complexity range must have 1 <= lo <= hi, got %d..%d"
                         % (lo, hi))
    rows, prev = [], None
    for n in range(lo, hi + 1):
        p = levels.complexity(n)
        ok = p >= n + 1 and (n < levels.Nt[1] or p <= 14 * n)
        if not ok:
            raise AssertionError("p(%d) = %d breaks n+1 <= p(n) <= 14n" % (n, p))
        rows.append((n, p, "" if prev is None else p - prev, ok))
        prev = p
    return rows


def verify_substitution_lemmas(levels, k_max, rec_samples=(), p_max=None):
    """Consolidated checks: the every-7N_k containment, aperiodicity,
    p(n) vs 14n, the recurrence bracket on samples, and the beta_k^3
    positions for k <= min(k_max, K - 1)."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0, got %d" % k_max)
    report = {"gamma": str(levels.params.gamma) if levels.params.gamma is not None else None}

    every7 = {}
    for k in range(0, k_max + 1):
        need = 7 * levels.N[k]
        m = levels.min_level_for(need)
        pats = [levels.AB(k), levels.BA(k)]
        ok = all(_pattern_window_stats(occurrence_positions(p, h), len(p), len(h), need)[0]
                 for h in (levels.AB(m), levels.BA(m)) for p in pats)
        every7[k] = ok
        if not ok:
            raise AssertionError("a length-%d factor misses alpha_%d beta_%d "
                                 "or its mirror" % (need, k, k))
    report["every_7Nk_contains_both_masters"] = every7

    aper = {}
    for k in range(1, k_max + 1):
        pa = min_period(levels.AB(k), levels.Nt[k])
        pb = min_period(levels.BA(k), levels.Nt[k])
        aper[k] = (pa, pb)
        if not (pa is None and pb is None):
            raise AssertionError("period <= Ntilde_%d found in a master word" % k)
    report["aperiodic_up_to_Ntilde"] = aper

    if p_max is None:
        p_max = min(levels.Nt[min(k_max + 1, levels.K)], 2000)
    complexity_rows(levels, 1, p_max)
    report["p_bounds_ok"] = True
    report["p_max_checked"] = p_max

    gamma = levels.params.gamma
    recs = {}
    for n in rec_samples:
        r = recurrence_function(levels, n)
        entry = {"rec": r["rec"]}
        if gamma is not None:
            p, q = gamma.numerator, gamma.denominator
            # lower floor Rec_w(n) >= 3^-gamma n^gamma and upper 14 2^gamma n^gamma
            entry["lower_floor_ok"] = (r["rec"] ** q) * (3**p) >= n**p
            entry["upper_14_2g_ok"] = r["rec"] ** q <= (14**q) * (2**p) * (n**p)
        recs[n] = entry
    report["recurrence_samples"] = recs
    report["beta_cubed"] = {k: beta_cubed_positions(levels, k)
                            for k in range(min(k_max, levels.K - 1) + 1)}
    return report
