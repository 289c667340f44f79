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


class XkOracle:
    """Exact language oracle for the limit word w of the construction.

    A query of length n is answered at the least level d with n <= n_d;
    lengths beyond n_E (E = deepest explicit level) are out of reach and
    raise.  Each level keeps one window census, at cap n_d: of the padded
    X_{d-1} words at a squaring level, of the search host otherwise.  The
    padded words answer membership at a squaring level too, through the
    pair rule of X_d = X_{d-1} 0^{n_{d-1}} X_{d-1}, so `contains` builds
    no squaring level's search host.
    """

    def __init__(self, params=None):
        self.params = params or XkParams()
        self.levels = build_xk_levels(self.params)
        self.E = max(lv.k for lv in self.levels[1:] if lv.explicit)
        self._hosts = {}
        self._padded = {}
        self._census = {}
        self._sides = {}

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
        """w_1 0^{n_d} w_2 0^{n_d} ... w_s 0^{n_d} w_1 over the words of X_d,
        whose length-n windows for n <= n_d are exactly the factors L_w(n):
        in-word windows, boundary windows (suffix)0^i / 0^i(prefix), and 0^n
        all occur, and nothing else can appear, since X_d words are set apart
        by at least 0^{n_d} in w.  It is the definition of the language at
        every level; `contains` searches it at a chained or base level only.
        At d = 6 it is 31,850,739 chars.
        """
        lv = self.level(d)
        if not lv.explicit:
            raise ValueError("budget: level %d is implicit; factor queries need "
                             "an explicit level" % d)
        if d not in self._hosts:
            zeros = "0" * lv.n
            self._hosts[d] = zeros.join(lv.words) + zeros + lv.words[0]
        return self._hosts[d]

    def _host_level_for(self, n):
        d = self.min_sufficient_level(n)
        if d > self.E:
            raise ValueError("budget: factors of length %d need level %d explicit "
                             "(deepest explicit is %d)" % (n, d, self.E))
        return d

    def padded_host(self, d):
        """The X_{d-1} words of a squaring level d, each padded on both sides
        by 0^{n_d - 1}.  Two words are 2 n_d - 2 >= n_d zeros apart, so its
        windows of length n <= n_d are those of 0^inf a 0^inf, a in X_{d-1}.
        At d = 6 it is 144,640 chars; it is built once a level."""
        host = self._padded.get(d)
        if host is None:
            pad = "0" * (self.level(d).n - 1)
            host = self._padded[d] = "".join(pad + a + pad
                                             for a in self.level(d - 1).words)
        return host

    def level_census(self, d):
        """The one window census of level d, at cap n_d: of the padded host
        at a squaring level, of the search host otherwise."""
        c = self._census.get(d)
        if c is None:
            lv = self.level(d)
            host = self.padded_host(d) if lv.phase == "squaring" else self.search_host(d)
            c = self._census[d] = WindowCensus(host, lv.n, max_bytes=self.params.max_bytes)
        return c

    def _side_counts(self, d):
        """(S, P) at a squaring level d: S[i] and P[i] count the distinct
        length-i suffixes of 0^inf a and prefixes of b 0^inf, a, b in
        X_{d-1}, for 1 <= i < 2 n_{d-1}."""
        sides = self._sides.get(d)
        if sides is None:
            words = self.level(d - 1).words
            span = range(1, 2 * self.level(d - 1).n)
            sides = self._sides[d] = (
                [0] + [len({a[-i:] for a in words}) for i in span],
                [0] + [len({b[:i] for b in words}) for i in span])
        return sides

    def complexity(self, n):
        """Exact p_w(n), read at the least level that covers n."""
        if n == 0:
            return 1
        return self.level_complexity(self._host_level_for(n), n)

    def level_complexity(self, d, n):
        """Exact p_w(n) for 1 <= n <= n_d, read at level d.

        At a squaring level d, with m = n_{d-1}, a factor of length n <= n_d
        either holds no 0^m between two nonzero letters, and is a window of
        the padded host, or it is x 0^m y: x a suffix of 0^inf a ending in
        a's last letter, y a prefix of b 0^inf starting with b's first, for
        any a, b in X_{d-1}, since X_d takes all pairs.  Zero runs inside an
        X_{d-1} word are shorter than m, so x and y are read back off the
        factor, and p(n) = p_pad(n) + sum_{i=1}^{n-m-1} S(i) P(n-m-i).
        """
        p = self.level_census(d).count(n)
        if self.level(d).phase == "squaring":
            S, P = self._side_counts(d)
            m = self.level(d - 1).n
            p += sum(S[i] * P[n - m - i] for i in range(1, n - m))
        return p

    def contains(self, u):
        """Is u a factor of w?  Read at the least level d that covers |u|.

        At a squaring level, with m = n_{d-1}, each X_d word a 0^m b holds
        one run of m zeros, its other zero runs are shorter, and X_d words
        are 0^{n_d} or more apart in w.  So a factor of length n <= n_d
        either holds no run of m or more zeros between two nonzero
        letters, and is a window of the padded host, or holds exactly one,
        of exactly m zeros: u = x 0^m y, a factor iff x 0^m and 0^m y are
        windows of the padded host, since X_d takes all pairs.  A longer
        run fails at the letter after its first m zeros, a second run in
        0^m y.
        """
        if u == "":
            return True
        d = self._host_level_for(len(u))
        if self.level(d).phase != "squaring":
            return u in self.search_host(d)
        host, m = self.padded_host(d), self.level(d - 1).n
        i = u.find("0" * m, len(u) - len(u.lstrip("0")), len(u.rstrip("0")))
        if i < 0:
            return u in host
        j = i + m
        return u[j] != "0" and u[:j] in host and u[i:] in host


def xk_complexity_table(oracle, n_lo, n_hi):
    """Exact p_w(n) for n in [n_lo, n_hi], derivative, and the growth bound
    p_w(n) <= 4 * 3^(alpha 2^r + 1) * n^(alpha 2^r + 1) certified via the
    rational lower bound alpha >= 29/23 (3^29 < 4^23); the first n where the
    bound fails raises AssertionError."""
    if not (1 <= n_lo <= n_hi):
        raise ValueError("bad range")
    d = oracle._host_level_for(n_hi)
    p = {n: oracle.level_complexity(d, n) for n in range(n_lo, n_hi + 1)}
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


def verify_derivative_spike(oracle, l=1, epsilon=Fraction(1, 2)):
    """The two-sided estimate at checkpoint l and the derivative spike.

    Certifies t s^2 + p(n) <= p(n+3t) <= 11 t s^2 (11 is the proof constant)
    by (a) exact counts p(m) from the product at level k_{l+1} + 1 and
    (b) two disjoint
    explicit witness families:
      A: one extension u_a a v_a (|u_a| = t, |v_a| = 2t) per factor a of
         length n, taken at its last occurrence in the padded X_{k_{l+1}}
         words 0^{3n-1} a 0^{3n-1} with room for the extension on both
         sides;
      B: xi_{u,v,i} = 0^i u 0^n v 0^{t-i} for u, v in X_{k_l+r}, 0 <= i <= t.
    Both checks are exact.  A's extensions are distinct, since each holds
    its own factor at offset t.  B is never built: each xi decodes uniquely
    (i is the number of leading zeros), so |B| = (t+1) s^2.  B lies in L_w
    because X_{k_{l+1}+1} takes all pairs of X_{k_{l+1}} words, checked as
    its squaring phase and, for each u in X_{k_l+r}, an X_{k_{l+1}} word
    ending in 0^t u and one starting with u 0^t.  The padded words hold
    every length-n factor and are 6n - 2 zeros apart, so each extension
    holds the letters of one X_{k_{l+1}} word at most.  Stripped of its
    outer zeros it then holds no 0^n, while every xi, stripped to u 0^n v,
    does: that one check makes A and B disjoint.  Failed checks raise AssertionError.
    Returns the report with the spike position m.
    """
    r = oracle.params.r
    t, s, n, (wlo, whi) = spike_parameters(oracle, l)
    ks = checkpoints(r, 10**9)
    d_host = ks[l] + 1                    # the level of n + 3t <= 3n = n_{k_{l+1}+1}
    if d_host > oracle.E:
        raise ValueError("budget: checkpoint l=%d needs level %d explicit" % (l, d_host))
    p = {m: oracle.level_complexity(d_host, m) for m in range(n, whi + 1)}
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
    # read in the padded X_{d_host - 1} words of the census that counted p,
    # so an extension holds no 0^n between two nonzero letters
    census = oracle.level_census(d_host)
    host = census.host
    L = len(host)
    blocks = census.blocks(n)
    if len(blocks) != p[n]:
        raise AssertionError("n-block count %d != p(n)=%d" % (len(blocks), p[n]))
    for pos in blocks:
        cand = pos[(pos >= t) & (pos <= L - (n + 2 * t))]
        if len(cand) == 0:
            raise AssertionError("the length-%d factor %r has no margined occurrence"
                                 % (n, host[pos[0]:pos[0] + n]))
        q = int(cand.max())
        e = host[q - t:q + n + 2 * t]
        if "0" * n in e.strip("0"):
            raise AssertionError("family A meets family B: the extension %r "
                                 "holds 0^%d between nonzero letters" % (e, n))
    fam_a = len(blocks)

    union = fam_a + fam_b
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
        "family_a": fam_a, "family_b": fam_b, "overlap": 0,
        "lower_ok": bool(lower_ok), "lower_family_ok": bool(lower_fam_ok),
        "upper_11ts2_ok": bool(upper_ok), "upper_constant": "11 (proof constant)",
        "m": best_m, "p_m": p[best_m], "dp_m": best_dp,
        "spike_ok": bool(3 * best_dp >= s * s),
        "epsilon": str(eps), "lhs": best_dp, "rhs_note": "p(m)/m^epsilon",
        "epsilon_ok": bool(eps_ok),
        "pass": bool(lower_ok and lower_fam_ok and upper_ok
                     and 3 * best_dp >= s * s and eps_ok),
    }
