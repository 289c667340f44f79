# The three-letter construction over Sigma = {0,1,2}:
#
#   n_k = 3^{k-1}, X_1 = {1,2}, X_2 = X_1 0 X_1
#   checkpoints k_1 = 2, k_{l+1} = (k_l - 1) 2^r + 1 for a fixed r >= 2
#   squaring phase (k_l < m <= k_l + r):
#       X_m = X_{m-1} 0^{n_{m-1}} X_{m-1}   (all pairs), s_m = s_{m-1}^2
#   chained phase (k_l + r < m <= k_{l+1}):
#       enumerate X_{m-1} = {a_1, ..., a_s} and set
#       X_m = { a_i 0^{n_{m-1}} a_{i+1 mod s} },  s_m = s_{m-1}
#
# w is a limit word whose factors of length <= 3^{d-1} are exactly the factors
# of the words of X_{d+1}.  Every X_k word starts and ends in {1,2}; every
# X_k word extends to X_{k'} words on both sides across 0-blocks.
#
# The derivative-spike checkpoint (r=2, l=1) certifies
#   t s^2 + p(81) <= p(162) <= 11 t s^2,   t = 27, s = 256,
# by explicit witness families, and exhibits m in [82,162] with p'(m) >= s^2/3.

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .words_core import WindowCensus, _words_bytes, max_bytes_budget

# certified rational lower bound for alpha = log 4 / log 3: 3^29 < 4^23
_ALPHA_LO = (29, 23)
if not 3**29 < 4**23:
    raise AssertionError("3^29 < 4^23 fails")


@dataclass
class XkParams:
    r: int = 2
    max_level: int = 8
    max_bytes: int = None

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("r must be >= 2")
        if self.max_level < 2:
            raise ValueError("max_level must be >= 2")


@dataclass
class XkLevel:
    k: int
    n: int                       # n_k = 3^{k-1}
    s: int                       # |X_k|, exact
    phase: str                   # "base" | "squaring" | "chained"
    words: list = None           # sorted word list when explicit, else None

    @property
    def explicit(self):
        return self.words is not None


def checkpoints(r, up_to):
    """k_1, k_2, ... not exceeding up_to."""
    ks = [2]
    while True:
        nxt = (ks[-1] - 1) * 2**r + 1
        if nxt > up_to:
            break
        ks.append(nxt)
    return ks


def _phase(m, r):
    """Phase of level m >= 2; X_2 = X_1 0 X_1 is the first squaring level."""
    kl = max((k for k in checkpoints(r, m) if k < m), default=1)
    return "squaring" if m <= kl + r else "chained"


def build_xk_levels(params):
    """Levels 1..max_level; word lists explicit while they fit the budget."""
    budget = max_bytes_budget(params.max_bytes)
    levels = [None, XkLevel(k=1, n=1, s=2, phase="base", words=["1", "2"])]
    for m in range(2, params.max_level + 1):
        parent = levels[m - 1]
        n_m = 3 * parent.n
        phase = _phase(m, params.r)
        s_m = parent.s ** 2 if phase == "squaring" else parent.s
        words = None
        if parent.explicit and _words_bytes(s_m, n_m) <= budget:
            zeros = "0" * parent.n
            if phase == "squaring":
                words = sorted(a + zeros + b for a in parent.words for b in parent.words)
            else:
                enum = parent.words     # already sorted: lexicographic enumeration
                s = len(enum)
                words = sorted(enum[i] + zeros + enum[(i + 1) % s] for i in range(s))
            if len(set(words)) != s_m:
                raise AssertionError("level %d word count != s_%d" % (m, m))
        levels.append(XkLevel(k=m, n=n_m, s=s_m, phase=phase, words=words))
    return levels


def de_bruijn_pairs(k):
    """The de Bruijn cycle B(k, 2): k^2 symbols of range(k) in which, read
    cyclically, every ordered pair occurs exactly once.  It is the
    Fredricksen-Kessler-Maiorana concatenation of the Lyndon words of length
    1 and 2 in lexicographic order: i, then i j for each j > i (Ruskey,
    Combinatorial Generation)."""
    seq = []
    for i in range(k):
        seq.append(i)
        for j in range(i + 1, k):
            seq += [i, j]
    return seq


class XkOracle:
    """Exact language oracle for the limit word w of the construction.

    A query of length n is answered from the search host of the least
    level d with n <= n_d; lengths beyond n_E (E = deepest explicit
    level) are out of reach and raise.
    """

    def __init__(self, params=None):
        self.params = params or XkParams()
        self.levels = build_xk_levels(self.params)
        self.E = max(lv.k for lv in self.levels[1:] if lv.explicit)
        self._hosts = {}
        self._census = {}

    def level(self, k):
        if not (1 <= k <= len(self.levels) - 1):
            raise ValueError("level %d not built (max_level=%d)" % (k, len(self.levels) - 1))
        return self.levels[k]

    def min_sufficient_level(self, n):
        """Minimal d with n <= 3^{d-1}; factors of length n live in X_{d+1}."""
        d = 1
        while 3 ** (d - 1) < n:
            d += 1
        return d

    def search_host(self, d):
        """A string whose length-n windows for n <= n_d are exactly the
        factors L_w(n).

        At a chained level it is w_1 0^{n_d} w_2 0^{n_d} ... w_s 0^{n_d} w_1
        over the words of X_d: in-word windows, boundary windows
        (suffix)0^i / 0^i(prefix), and 0^n all occur, and nothing else can
        appear.

        At a squaring level, X_d = X_{d-1} Z X_{d-1} with Z = 0^{n_{d-1}}
        takes all pairs, so the host is built from the s = s_{d-1} words
        a_0 < ... < a_{s-1} of X_{d-1} instead of the s^2 words of X_d:
            a_{e_0} Z a_{e_1} Z ... Z a_{e_{M-1}} Z a_{e_0} Z a_{e_1},
        with e the de Bruijn cycle B(s, 2) of M = s^2 terms, then
        0^P a 0^P for each a in X_{d-1}, where P = n_d - 1.  The cycle holds
        every ordered pair (a, b) as a Z b; closed by its first two words,
        it holds each one with at least n_{d-1} zeros on both sides (the
        padded words follow the last one).  Every window of length
        n <= n_d = 3 n_{d-1} of the zero-joined host above is in it:
          - a window inside an X_d word a Z b is in the cycle;
          - a window across a 0^{n_d} junction cannot reach the other side,
            so it is 0^n, or (suffix of a Z b) 0^j, or its mirror.  If it
            holds a letter of a, then j < n_{d-1}, and the cycle shows it.
            Otherwise it is 0^i (part of b) 0^j with i, j <= P, a window of
            0^P b 0^P.  0^n lies in the runs of 2P >= n_d zeros between the
            padded words.
        Conversely every window is a factor of w.  One that holds letters
        of two cycle words a, c around a Z b Z c, or zeros on both sides of
        a whole a Z b, is longer than n_d, so it lies in a Z b 0^{n_d} or
        0^{n_d} a Z b, and X_d words are set apart by at least 0^{n_d} in w.
        One of 0^P a 0^P that holds all of a has at most n_{d-1} zeros on a
        side, so it lies in 0^{n_d} a Z b or b Z a 0^{n_d}.
        At d = 6 the host is 10,761,715 chars, where the zero-joined X_6
        words take 31,850,739.
        """
        lv = self.level(d)
        if not lv.explicit:
            raise ValueError("budget: level %d is implicit; factor queries need "
                             "an explicit level" % d)
        if d not in self._hosts:
            if lv.phase == "squaring":
                words = self.level(d - 1).words
                e = de_bruijn_pairs(len(words))
                pad = "0" * (lv.n - 1)
                self._hosts[d] = (("0" * self.level(d - 1).n).join(
                    words[i] for i in e + e[:2])
                    + "".join(pad + a + pad for a in words))
            else:
                zeros = "0" * lv.n
                self._hosts[d] = zeros.join(lv.words) + zeros + lv.words[0]
        return self._hosts[d]

    def _host_level_for(self, n):
        d = self.min_sufficient_level(n)
        if d > self.E:
            raise ValueError("budget: factors of length %d need level %d explicit "
                             "(deepest explicit is %d)" % (n, d, self.E))
        return d

    def census(self, cap):
        """Window census of the search host of the least level covering cap:
        one per level, rebuilt only when a larger cap is asked for."""
        d = self._host_level_for(cap)
        c = self._census.get(d)
        if c is None or c.cap < cap:
            c = self._census[d] = WindowCensus(self.search_host(d), cap,
                                               max_bytes=self.params.max_bytes)
        return c

    def complexity(self, n):
        """Exact p_w(n)."""
        if n == 0:
            return 1
        d = self._host_level_for(n)
        c = self._census.get(d)
        if c is None or c.cap < n:
            c = self.census(min(self.level(d).n, max(64, 1 << (n - 1).bit_length())))
        return c.count(n)

    def contains(self, u):
        if u == "":
            return True
        d = self._host_level_for(len(u))
        return u in self.search_host(d)


def xk_complexity_table(oracle, n_lo, n_hi):
    """Exact p_w(n) for n in [n_lo, n_hi], derivative, and the growth bound
    p_w(n) <= 4 * 3^(alpha 2^r + 1) * n^(alpha 2^r + 1) certified via the
    rational lower bound alpha >= 29/23 (3^29 < 4^23); the first n where the
    bound fails raises AssertionError."""
    if not (1 <= n_lo <= n_hi):
        raise ValueError("bad range")
    census = oracle.census(n_hi)
    p = {n: census.count(n) for n in range(n_lo, n_hi + 1)}
    dp = {n: p[n] - p[n - 1] for n in range(n_lo + 1, n_hi + 1)}
    r = oracle.params.r
    p_lo, q_lo = _ALPHA_LO
    twor = 2**r
    bound_ok = {}
    for n in range(n_lo, n_hi + 1):
        # p <= 4 * 3 * 4^{2^r} * n * n^{alpha 2^r}; with alpha >= p_lo/q_lo it is
        # enough that p^q_lo <= (12 * 4^{2^r} * n)^q_lo * n^{p_lo 2^r}
        rhs = (12 * 4**twor * n) ** q_lo * n ** (p_lo * twor)
        bound_ok[n] = p[n] ** q_lo <= rhs
        if not bound_ok[n]:
            raise AssertionError("p(%d) = %d exceeds 4 * 3^(alpha 2^r + 1) "
                                 "n^(alpha 2^r + 1)" % (n, p[n]))
    return {"p": p, "p_prime": dp, "bound_alpha_2r_ok": bound_ok}


def verify_xk_structure(oracle):
    """The structural facts, checked exhaustively on explicit levels:
    (1) every word starts and ends in {1,2};
    (2) each word of X_k extends to X_{k+1} words across 0^{n_k} on both sides;
    (3) prefixes/suffixes of length n_d of deeper-level words are X_d words
        (checked at d = k - 1; every smaller d follows)."""
    report = {"boundary_letters": {}, "extension": {}, "pushdown": {}}
    for k in range(1, oracle.E + 1):
        lv = oracle.level(k)
        ok = all(wd[0] in "12" and wd[-1] in "12" for wd in lv.words)
        report["boundary_letters"][k] = ok
        if not ok:
            raise AssertionError("level %d word with 0 at the boundary" % k)
    for k in range(1, oracle.E):
        lv, nxt = oracle.level(k), oracle.level(k + 1)
        zeros = "0" * lv.n
        prefixes = set(wd[:lv.n + lv.n] for wd in nxt.words)
        suffixes = set(wd[-(lv.n + lv.n):] for wd in nxt.words)
        ok = all((wd + zeros) in prefixes and (zeros + wd) in suffixes
                 for wd in lv.words)
        report["extension"][k] = ok
        if not ok:
            raise AssertionError("extension fact fails at level %d" % k)
    # depth k - 1 only: a length-n_d prefix (suffix) of a level-k word is
    # one of its length-n_{k-1} prefix (suffix), an X_{k-1} word checked
    # one level down, so every smaller d follows by induction on k
    for k in range(2, oracle.E + 1):
        prev = oracle.level(k - 1)
        dset = set(prev.words)
        if not all(wd[:prev.n] in dset and wd[-prev.n:] in dset
                   for wd in oracle.level(k).words):
            raise AssertionError("pushdown fails: level %d prefixes at depth %d"
                                 % (k, k - 1))
        report["pushdown"][k] = dict.fromkeys(range(1, k), True)
    return report


def spike_parameters(oracle, l):
    """(t, s, n, window) of the checkpoint l: t = n_{k_l+r}, s = s_{k_l+r},
    n = n_{k_{l+1}}, window = [n+1, n+3t]."""
    r = oracle.params.r
    ks = checkpoints(r, 10**9)
    if l < 1 or l + 1 > len(ks):
        raise ValueError("no checkpoint l=%d" % l)
    kl, kl1 = ks[l - 1], ks[l]
    t = 3 ** (kl + r - 1)
    n = 3 ** (kl1 - 1)
    # s_{k_l + r}: squaring squares s at each of the r steps after k_l,
    # and the chained phase keeps it constant up to k_{l+1}
    s = 2
    for m in range(2, kl + r + 1):
        if _phase(m, r) == "squaring":
            s *= s
    return t, s, n, (n + 1, n + 3 * t)


def _decodes_as_xi(e, wordset, n, t):
    """Is e = 0^i u 0^n v 0^(t-i) with u, v in wordset and 0 <= i <= t?

    The words start with a nonzero letter, so i is the number of leading
    zeros and the decoding is unique."""
    i = len(e) - len(e.lstrip("0"))
    return (i <= t and e[i:i + t] in wordset
            and e[i + t:i + t + n] == "0" * n
            and e[i + t + n:i + 2 * t + n] in wordset
            and e[i + 2 * t + n:] == "0" * (t - i))


def verify_derivative_spike(oracle, l=1, epsilon=Fraction(1, 2)):
    """The two-sided estimate at checkpoint l and the derivative spike.

    Certifies t s^2 + p(n) <= p(n+3t) <= 11 t s^2 (11 is the proof constant)
    by (a) an exact window census and (b) the two explicit witness families:
      A: one extension u_a a v_a (|u_a| = t, |v_a| = 2t) per factor a of
         length n, taken at its first interior occurrence in the search host
         (re-chosen to avoid the xi shape when a != 0^n);
      B: xi_{u,v,i} = 0^i u 0^n v 0^{t-i} for u, v in X_{k_l+r}, 0 <= i <= t.
    Both checks are exact.  A's extensions are distinct strings read from
    the census blocks.  B is never built: each xi decodes uniquely (i is
    the number of leading zeros), so |B| = (t+1) s^2.  B lies in L_w
    because X_{k_{l+1}+1} takes all pairs of X_{k_{l+1}} words, checked as
    its squaring phase and, for each u in X_{k_l+r}, an X_{k_{l+1}} word
    ending in 0^t u and one starting with u 0^t.  The families overlap in
    exactly the extension of 0^n.  Failed checks raise AssertionError.
    Returns the report with the spike position m.
    """
    r = oracle.params.r
    t, s, n, (wlo, whi) = spike_parameters(oracle, l)
    ks = checkpoints(r, 10**9)
    d_host = ks[l] + 1                    # the level of n + 3t <= 3n = n_{k_{l+1}+1}
    if d_host > oracle.E:
        raise ValueError("budget: checkpoint l=%d needs level %d explicit" % (l, d_host))
    census = oracle.census(whi)
    host = census.host
    L = len(host)

    p = {m: census.count(m) for m in range(n, whi + 1)}
    ts2 = t * s * s

    # --- family B ------------------------------------------------------
    xk = oracle.level(ks[l - 1] + r)      # X_{k_l + r}
    wordset = set(xk.words)
    if not (xk.s == s == len(wordset) and xk.n == t):
        raise AssertionError("X_%d does not have s=%d words of length t=%d"
                             % (xk.k, s, t))
    if not all(u[0] in "12" and u[-1] in "12" for u in xk.words):
        raise AssertionError("an X_%d word has 0 at the boundary" % xk.k)
    # X_{d_host} = Y 0^n Y takes all pairs of Y = X_{d_host - 1}, so with a
    # Y word ending in 0^t u and one starting with v 0^t it holds
    # 0^t u 0^n v 0^t, of which every xi_{u,v,i} is a window
    if oracle.level(d_host).phase != "squaring":
        raise AssertionError("family B: X_%d is not a squaring level" % d_host)
    y = oracle.level(d_host - 1).words
    zeros = "0" * t
    ends = set(wd[-2 * t:] for wd in y)
    starts = set(wd[:2 * t] for wd in y)
    for u in xk.words:
        if zeros + u not in ends or u + zeros not in starts:
            raise AssertionError("family B: no X_%d word ends in 0^t u, or "
                                 "none starts with u 0^t, for u = %r"
                                 % (d_host - 1, u))
    fam_b = (t + 1) * s * s

    # --- family A ------------------------------------------------------
    # one extension per length-n factor, at the least occurrence in its
    # census block (unsorted) with room for the extension on both sides.
    # The extensions are ours to choose: whenever the extension of some
    # a != 0^n takes the xi shape, re-choose another occurrence whose
    # extension leaves family B (one always exists: an occurrence whose
    # following 0-run is longer than n cannot look like any xi).  Only then
    # is the block sorted, and scanned from the last one back: the search
    # host ends with its padded words, whose 0-runs are longer than n
    blocks = census.blocks(n)
    if len(blocks) != p[n]:
        raise AssertionError("n-block count %d != p(n)=%d" % (len(blocks), p[n]))
    p0 = host.find("0" * n)
    fam_a = []
    rechosen = 0
    for pos in blocks:
        cand = pos[(pos >= t) & (pos <= L - (n + 2 * t))]
        if len(cand) == 0:
            raise AssertionError("the length-%d factor %r has no margined occurrence"
                                 % (n, host[pos[0]:pos[0] + n]))
        q = int(cand.min())
        e = host[q - t:q + n + 2 * t]
        if q != p0 and _decodes_as_xi(e, wordset, n, t):
            for q in np.sort(cand)[1:].tolist()[::-1]:
                e = host[q - t:q + n + 2 * t]
                if not _decodes_as_xi(e, wordset, n, t):
                    break
            else:
                raise AssertionError("no extension outside family B for the "
                                     "length-%d factor %r" % (n, e[t:t + n]))
            rechosen += 1
        fam_a.append(e)

    # --- overlap -------------------------------------------------------
    if len(set(fam_a)) != p[n]:
        raise AssertionError("family A extensions are not injective")
    # the overlap is the extension of 0^n: its first occurrence sits right
    # after the first X_{d_host - 1} word of the host
    overlap = [e for e in fam_a if _decodes_as_xi(e, wordset, n, t)]
    if overlap != [host[p0 - t:p0 + n + 2 * t]]:
        raise AssertionError("family overlap is not the extension of 0^n: %d words"
                             % len(overlap))

    union = len(fam_a) + fam_b - len(overlap)
    lower_ok = p[whi] >= ts2 + p[n]
    lower_fam_ok = union >= ts2 + p[n]
    upper_ok = p[whi] <= 11 * ts2
    if p[whi] < union:
        raise AssertionError("census contradicts the witness families")
    if not (lower_ok and lower_fam_ok and upper_ok):
        raise AssertionError("t s^2 + p(n) <= p(n+3t) <= 11 t s^2 fails")

    # --- the spike -----------------------------------------------------
    best_m, best_dp = None, -1
    for m in range(wlo, whi + 1):
        dpm = p[m] - p[m - 1]
        if dpm > best_dp:
            best_m, best_dp = m, dpm
    if 3 * best_dp < s * s:
        raise AssertionError("no m with p'(m) >= s^2/3 in the window")
    eps = Fraction(epsilon)
    pe, qe = eps.numerator, eps.denominator
    # p'(m) >= p(m) / m^epsilon  <=>  p'(m)^q m^p >= p(m)^q
    eps_ok = best_dp**qe * best_m**pe >= p[best_m] ** qe

    return {
        "r": r, "l": l, "t": t, "s": s,
        "window": [wlo, whi],
        "p_n": p[n], "p_n3t": p[whi], "ts2": ts2,
        "family_a": len(fam_a), "family_b": fam_b, "overlap": len(overlap),
        "lower_ok": bool(lower_ok), "lower_family_ok": bool(lower_fam_ok),
        "upper_11ts2_ok": bool(upper_ok), "upper_constant": "11 (proof constant)",
        "m": best_m, "p_m": p[best_m], "dp_m": best_dp,
        "spike_ok": bool(3 * best_dp >= s * s),
        "epsilon": str(eps), "lhs": best_dp, "rhs_note": "p(m)/m^epsilon",
        "epsilon_ok": bool(eps_ok),
        "extensions_rechosen": rechosen,
        "pass": bool(lower_ok and lower_fam_ok and upper_ok
                     and 3 * best_dp >= s * s and eps_ok),
    }
