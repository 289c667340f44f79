# Exact arithmetic in the convolution algebra of the subshift groupoid
# (underlying set Z x X, X the subshift of a uniformly recurrent word w):
#
#   basis rule   1_{{p} x A} * 1_{{q} x B} = 1_{{p+q} x (B cap T^{-q}(A))}
#   generators   1_T = 1_{{1} x X},  1_T^{-1} = 1_{{-1} x X},
#                1_s = 1_{{0} x {x : x[0] = s}}
#   identities   1_T * 1_T^{-1} = 1,   sum_s 1_s = 1,
#                1_s * 1_T^{*d} = 1_{{d} x {x : x[d] = s}}
#   filtration   W_N = span of 1_{{d} x (full pattern on [-N,N])}, |d| <= N,
#                dim W_N = (2N+1) p_w(2N+1),  W_N <= V^{8N},  V^N <= W_N
#
# Elements are finite sums of terms (degree d, window_lo, pattern) -> coeff,
# where the pattern is a full assignment on the contiguous window and the
# empty pattern stands for the whole space X.  Membership of patterns in the
# language is delegated to a LanguageOracle (duck-typed: alphabet, contains,
# complexity), so the same algebra works over any of the words built here.

import random
import weakref
from collections import Counter
from fractions import Fraction

from .substitution_word import integer_root, recurrence_function, subst_factor_set
from .words_core import min_period


class SubstLanguage:
    """Language oracle over {a, b} backed by substitution levels."""

    def __init__(self, levels):
        self.levels = levels
        self.alphabet = "ab"
        self._memo = {}

    def contains(self, u):
        v = self._memo.get(u)
        if v is None:
            v = self.levels.contains(u)
            self._memo[u] = v
        return v

    def complexity(self, n):
        return self.levels.complexity(n)


# per language: the _completions table, keyed (letters added on the left,
# pat, letters added on the right), since completions are shift-invariant,
# and the number of language extensions of a word on the right and on the
# left.
# Kept beside the language object and dropped with it, so that the oracle
# protocol stays alphabet, contains and complexity.
_MEMO = weakref.WeakKeyDictionary()


def _memo(lang):
    memo = _MEMO.get(lang)
    if memo is None:
        memo = _MEMO[lang] = ({}, {}, {})
    return memo


def _completions(lang, lo, hi, l, pat):
    """All language words on [lo, hi] carrying pat at l, in lexicographic
    order, as a tuple: pat grows leftward to lo, then rightward to hi, letter
    by letter, and every step keeps only the language words.  A pat that
    already spans [lo, hi] is returned as it is: callers pass only language
    words there."""
    left, right = l - lo, hi - l - len(pat) + 1
    if not (left or right):
        return (pat,)
    table = _memo(lang)[0]
    key = (left, pat, right)
    out = table.get(key)
    if out is None:
        words = [pat]
        for _ in range(left):
            words = [ch + v for v in words for ch in lang.alphabet
                     if lang.contains(ch + v)]
        for _ in range(right):
            words = [v + ch for v in words for ch in lang.alphabet
                     if lang.contains(v + ch)]
        out = table[key] = tuple(sorted(words))
    return out


class AlgebraElement:
    """Finite k-linear combination of basis characteristic functions.

    terms: dict (degree, window_lo, pattern) -> nonzero coefficient;
    pattern "" (with window_lo 0) is the full space X.  Coefficients are
    exact rationals by default, or integers mod a prime when char is set.
    Over Q an integral coefficient is stored as an int (Fraction(4, 2) as 2),
    and only the others as Fractions; the two compare and hash alike.
    """

    __slots__ = ("lang", "char", "terms")

    def __init__(self, lang, terms=None, char=None):
        self.lang = lang
        self.char = char
        self.terms = {}
        for key, c in (terms or {}).items():
            c = self._c(c)
            if c:
                self.terms[key] = c

    def _c(self, x):
        p = self.char
        if not p:                              # over Q: integers stay int
            if type(x) is int:
                return x
            x = Fraction(x)
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return x % p
        x = Fraction(x)                        # num/den -> num * den^-1 mod p
        if x.denominator % p == 0:
            raise ValueError("%s has no value mod %d" % (x, p))
        return x.numerator * pow(x.denominator, -1, p) % p

    def is_zero(self):
        return not self.terms

    def degrees(self):
        return sorted({d for d, _, _ in self.terms})

    def window_radius(self):
        """Smallest N with the element in W_N (degrees and windows)."""
        n = 0
        for d, lo, pat in self.terms:
            n = max(n, abs(d))
            if pat:
                n = max(n, abs(lo), abs(lo + len(pat) - 1))
        return n

    def __add__(self, other):
        if not (self.lang is other.lang and self.char == other.char):
            raise ValueError("mixed algebras")
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = self._c(out.get(key, 0) + c)
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return AlgebraElement(self.lang, out, self.char)

    def __neg__(self):
        return AlgebraElement(self.lang,
                              {k: -c for k, c in self.terms.items()}, self.char)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        return AlgebraElement(self.lang,
                              {k: self._c(scalar) * c
                               for k, c in self.terms.items()}, self.char)

    def __mul__(self, other):
        return convolve(self, other)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.char == other.char
                and canonicalize(self).terms == canonicalize(other).terms)

    def __repr__(self):
        body = " + ".join("%s*1_(%d,[%d..],%r)" % (c, d, lo, pat)
                          for (d, lo, pat), c in sorted(self.terms.items()))
        return "<AlgebraElement %s>" % (body or "0")


def zero(lang, char=None):
    return AlgebraElement(lang, {}, char)


def make_generators(lang, char=None):
    """one, T, Tinv, and the letter projections proj[s]."""
    one = AlgebraElement(lang, {(0, 0, ""): 1}, char)
    T = AlgebraElement(lang, {(1, 0, ""): 1}, char)
    Tinv = AlgebraElement(lang, {(-1, 0, ""): 1}, char)
    proj = {s: AlgebraElement(lang, {(0, 0, s): 1}, char)
            for s in lang.alphabet}
    return {"one": one, "T": T, "Tinv": Tinv, "proj": proj}


def _term_mul(lang, t1, t2):
    """Basis rule for a single pair of terms -> list of result term keys."""
    d1, lo1, p1 = t1
    d2, lo2, p2 = t2
    d = d1 + d2
    lo1 += d2                                  # T^{-d2}(A): window shifts +d2
    if not (p1 and p2):
        lo, pat = (lo1, p1) if p1 else (lo2, p2)
        if not pat:
            return [(d, 0, "")]
        return [(d, lo, pat)] if lang.contains(pat) else []
    if lo2 < lo1:                              # p1 starts first
        lo1, p1, lo2, p2 = lo2, p2, lo1, p1
    if lo2 > lo1 + len(p1):                    # a gap: fill it from the left
        return [(d, lo1, v + p2) for v in _completions(lang, lo1, lo2 - 1, lo1, p1)
                if lang.contains(v + p2)]
    overlap = p1[lo2 - lo1:lo2 - lo1 + len(p2)]
    if overlap != p2[:len(overlap)]:
        return []                              # conflicting cylinder: empty
    pat = p1 + p2[len(overlap):]
    return [(d, lo1, pat)] if lang.contains(pat) else []


def convolve(f, g, canonical=True):
    """Bilinear extension of the basis rule; canonicalized by default."""
    if not (f.lang is g.lang and f.char == g.char):
        raise ValueError("mixed algebras")
    out = {}
    for t1, c1 in f.terms.items():
        for t2, c2 in g.terms.items():
            c = f._c(c1 * c2)
            if not c:
                continue
            for key in _term_mul(f.lang, t1, t2):
                s = f._c(out.get(key, 0) + c)
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    res = AlgebraElement(f.lang, out, f.char)
    return _normal_form(res) if canonical else res


def convolve_many(factors):
    out = factors[0]
    for fct in factors[1:]:
        out = convolve(out, fct, canonical=False)
    return out


def canonicalize(f):
    """Normal form: all patterns on one common window, merged, zero-free,
    then the window is trimmed greedily at both ends whenever every pattern
    group carries all language-consistent extensions with equal coefficients.
    Idempotent; equal elements get equal term maps."""
    terms = {}
    for (d, lo, pat), c in f.terms.items():
        if pat and not f.lang.contains(pat):
            continue                           # not in the language: empty set
        key = (d, 0, "") if not pat else (d, lo, pat)
        s = f._c(terms.get(key, 0) + c)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return _normal_form(AlgebraElement(f.lang, terms, f.char))


def _expand(lang, norm, terms, lo, hi):
    """The terms, all of language words or full-space, as a sum over the
    language words on [lo, hi]: (d, lo, v) -> coefficient, zero-free, with
    coefficients reduced by norm."""
    expanded = {}
    for (d, l, pat), c in terms.items():
        for v in _completions(lang, lo, hi, l if pat else lo, pat):
            key = (d, lo, v)
            s = norm(expanded.get(key, 0) + c)
            if s:
                expanded[key] = s
            else:
                expanded.pop(key, None)
    return expanded


def _normal_form(f):
    """canonicalize without its language filter, for an element whose
    patterns are all language words and whose full-space terms are keyed
    (d, 0, ""), as the basis rule's products are: the filter would keep
    every term as it is.

    After the expansion to the common window [lo, hi] every term is a
    language word of length m + 1 = hi - lo + 1, so a degree with p(m + 1)
    terms holds all of L(m + 1).  If it also has a single coefficient c_d,
    every greedy trim of it succeeds (its stems are all of L(m), each with
    all its extensions) down to "", and the degree is c_d 1_{{d} x X}.  When
    every degree is so, that is the normal form, found in one count; any
    other element goes through the greedy trims."""
    lang, char = f.lang, f.char
    terms = f.terms
    pats = [k for k in terms if k[2]]
    if not pats:
        return AlgebraElement(lang, terms, char)
    lo = min(k[1] for k in pats)
    hi = max(k[1] + len(k[2]) - 1 for k in pats)
    terms = _expand(lang, f._c, terms, lo, hi)

    coeff = {}
    if all(coeff.setdefault(d, c) == c for (d, _, _), c in terms.items()):
        p_full = lang.complexity(hi - lo + 1)
        if all(k == p_full for k in Counter(d for d, _, _ in terms).values()):
            return AlgebraElement(lang, {(d, 0, ""): c for d, c in coeff.items()},
                                  char)

    # a trim drops the last (right) or first (left) letter of every term.
    # It holds when the terms over each stem (d, stem) carry one coefficient
    # and are all the stem's language extensions on that side.  Every term
    # is a language word: the terms were filtered and expanded through
    # lang.contains, and trimming keeps factors of them, which the factorial
    # language holds too.  So no stem has more terms than extensions, and
    # the stems are complete iff their extensions number len(terms)
    _, ext_right, ext_left = _memo(lang)

    def try_trim(right):
        nonlocal terms, lo, hi
        new_lo = lo if right else lo + 1
        at = new_lo if hi > lo else 0          # a trim to "" keys (d, 0, "")
        out = {}
        for (d, _, v), c in terms.items():
            if out.setdefault((d, at, v[:-1] if right else v[1:]), c) != c:
                return False
        n_ext = ext_right if right else ext_left
        total = 0
        for _, _, stem in out:
            k = n_ext.get(stem)
            if k is None:
                k = n_ext[stem] = sum(
                    1 for ch in lang.alphabet
                    if lang.contains(stem + ch if right else ch + stem))
            total += k
        if total != len(terms):
            return False
        terms = out
        lo = new_lo
        hi = hi - 1 if right else hi
        return True

    progress = True
    while progress and lo <= hi:
        progress = try_trim(True) or try_trim(False)
    return AlgebraElement(lang, terms, char)


def w_basis_dimension(lang, N):
    """dim W_N = (2N+1) p_w(2N+1), with a doubling-ratio growth diagnostic."""
    if N < 0:
        raise ValueError("N must be >= 0")
    p = lang.complexity(2 * N + 1)
    dim = (2 * N + 1) * p
    out = {"N": N, "p_2N1": p, "dim": dim}
    if N >= 1:
        p2 = lang.complexity(4 * N + 1)
        out["dim_2N"] = (4 * N + 1) * p2
        out["ratio_2N_over_N"] = Fraction((4 * N + 1) * p2, dim)
    return out


def w_basis_dimensions(lang, N_max):
    """w_basis_dimension for N = 0..N_max."""
    if N_max < 0:
        raise ValueError("N must be >= 0, got %d" % N_max)
    return [w_basis_dimension(lang, N) for N in range(N_max + 1)]


def verify_algebra_identities(lang, trials, seed):
    """1_T 1_T^-1 = 1_T^-1 1_T = 1, sum_s 1_s = 1 and the conjugation
    1_T^-3 1_s 1_T^3 = 1_{{0} x {x : x[3] = s}} for the least letter s; then,
    from one seeded generator, `trials` triples (a b) c = a (b c) and
    `trials` products of a degree-p and a degree-q cylinder of length 2 that
    have degree p + q only.  Elements and cylinders are cut from the
    windows of AB_min(3,K).  A failed identity raises AssertionError naming
    it and, for the sampled ones, the trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
    gens = make_generators(lang)
    one, T, Tinv, proj = gens["one"], gens["T"], gens["Tinv"], gens["proj"]
    if convolve(T, Tinv) != one:
        raise AssertionError("T T^-1 != 1")
    if convolve(Tinv, T) != one:
        raise AssertionError("T^-1 T != 1")
    if sum(proj.values(), zero(lang)) != one:
        raise AssertionError("the letter projections do not sum to 1")
    d, s = 3, sorted(lang.alphabet)[0]
    Td = Tmd = one
    for _ in range(d):
        Td, Tmd = convolve(Td, T), convolve(Tmd, Tinv)
    if convolve(convolve(Tmd, proj[s]), Td).terms != {(0, d, s): 1}:
        raise AssertionError("T^-%d 1_%s T^%d != 1_{x[%d] = %s}" % (d, s, d, d, s))
    rng = random.Random(seed)
    host = lang.levels.AB(min(3, lang.levels.K))

    def rand_elem():
        t = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(host) - 3)
            L = rng.randint(0, 2)
            key = (rng.randint(-2, 2), rng.randint(-2, 0),
                   host[i:i + L]) if L else (rng.randint(-2, 2), 0, "")
            t[key] = rng.randint(-3, 3)
        return AlgebraElement(lang, t)

    for trial in range(trials):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        if convolve(convolve(a, b, canonical=False), c).terms \
                != convolve(a, convolve(b, c, canonical=False)).terms:
            raise AssertionError("(a b) c != a (b c) at trial %d" % trial)
    for trial in range(trials):
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        i, j = rng.randrange(len(host) - 2), rng.randrange(len(host) - 2)
        f = AlgebraElement(lang, {(p, 0, host[i:i + 2]): 1})
        g = AlgebraElement(lang, {(q, 0, host[j:j + 2]): 1})
        if any(e != p + q for e in convolve(f, g, canonical=False).degrees()):
            raise AssertionError("a degree-%d by degree-%d product has another "
                                 "degree at trial %d" % (p, q, trial))
    return {"T_Tinv_is_one": True, "projections_sum_to_one": True,
            "conjugation_formula": True, "associativity_random_triples": True,
            "degree_additivity_random_pairs": True, "trials": trials}


# ---------------------------------------------------------------------------
# the two constructive proofs

def _least_value(f):
    """(k, hull_lo, v, A, total): the least degree k and lexicographically
    least language completion v of the pattern hull [hull_lo, ...] at which
    f does not vanish, the terms A that match there and their coefficient
    sum, read off f expanded to the hull.  A pattern outside the language
    is the empty set, so it matches nowhere."""
    pats = [key for key in f.terms if key[2]]
    hull_lo = min([lo for _, lo, _ in pats], default=0)
    hull_hi = max([lo + len(pat) - 1 for _, lo, pat in pats], default=-1)
    terms = {key: c for key, c in f.terms.items()
             if not key[2] or f.lang.contains(key[2])}
    values = _expand(f.lang, f._c, terms, hull_lo, hull_hi)
    if not values:
        raise AssertionError("nonzero element with no nonzero value")
    k, _, v = min(values)
    A = [(d, lo, pat) for d, lo, pat in terms if d == k
         and all(v[lo + i - hull_lo] == ch for i, ch in enumerate(pat))]
    return k, hull_lo, v, A, values[k, hull_lo, v]


def witness_product(f, l=None):
    """For 0 != f supported in W_n: find (k, xi) with f(k, xi) != 0, build
    W = {x : x[-n-p, n+q] = alpha_{l+1} beta_{l+1}} around an embedding of
    xi[-n, n], check the three conditions, and certify
        1_{{-k} x T^k(W)} * f * 1_{{0} x W} = (sum of matched coeffs) 1_{{0} x W}.
    Aperiodicity of the master word stands in for condition (iii)."""
    if f.is_zero():
        raise ValueError("f must be nonzero")
    lang = f.lang
    if not isinstance(lang, SubstLanguage):
        raise ValueError("witness_product needs the substitution language")
    levels = lang.levels
    n = f.window_radius()
    if l is None:
        l = levels.min_level_for(2 * n + 1) - 1
    if l < 0:
        raise ValueError("need l >= 0, got %d" % l)
    if l + 1 > levels.K:
        raise ValueError("depth: level %d not built" % (l + 1))
    if 2 * n + 1 > levels.Nt[l + 1]:
        raise ValueError("depth: 2n+1 = %d exceeds Ntilde_%d" % (2 * n + 1, l + 1))

    k, hull_lo, v, A, total = _least_value(f)

    # extend the sample to [-n, n] and embed it in the master word
    xi_win = _completions(lang, -n, n, hull_lo if v else -n, v)[0]
    AB = levels.AB(l + 1)
    host = "AB"
    pos = AB.find(xi_win)
    if pos < 0:
        AB = levels.BA(l + 1)
        host = "BA"
        pos = AB.find(xi_win)
    if pos < 0:
        raise AssertionError("xi[-n, n] does not factor the level-%d masters"
                             % (l + 1))
    p, q = pos, len(AB) - (2 * n + 1) - pos
    w_lo = -n - p
    W_term = (0, w_lo, AB)

    # (i) every matched term contains W; (ii) unmatched terms are excluded
    for (d, lo, pat) in A:
        for i, ch in enumerate(pat):
            if AB[lo + i - w_lo] != ch:
                raise AssertionError("condition (i) fails")
    for (d, lo, pat) in f.terms:
        if d == k and (d, lo, pat) not in A \
                and all(AB[lo + i - w_lo] == ch for i, ch in enumerate(pat)):
            raise AssertionError("condition (ii) fails")
    # (iii) W cap T^d(W) = empty for 0 < |d| <= 2n via aperiodicity
    if n >= 1 and min_period(AB, 2 * n) is not None:
        raise AssertionError("condition (iii) fails")

    left = AlgebraElement(lang, {(-k, w_lo - k, AB): 1}, f.char)
    right = AlgebraElement(lang, {W_term: 1}, f.char)
    lhs = convolve(convolve(left, f, canonical=False), right, canonical=False)
    rhs = total * AlgebraElement(lang, {W_term: 1}, f.char)
    ok = canonicalize(lhs).terms == canonicalize(rhs).terms
    if not ok:
        raise AssertionError("witness product does not collapse to (sum alpha_i) 1_W")
    num = total if f.char else str(total)
    return {"k": k, "n": n, "l": l, "host": host, "p": p, "q": q,
            "matched_terms": len(A), "sum_alpha": num,
            "W_in_filtration": 2 * levels.N[l + 1],
            "left_in_filtration": 2 * levels.N[l + 1] + n,
            "pass": bool(ok)}


def random_w3_elements(lang, count, seed):
    """count seeded nonzero elements of W_3: each has 1 to 4 terms of degree
    in [-3, 3], with a pattern of 1 to 3 letters cut from AB_min(3,K) on a
    window inside [-3, 3], and a coefficient in [-3, 3]."""
    if count < 1:
        raise ValueError("count must be >= 1, got %d" % count)
    rng = random.Random(seed)
    host = lang.levels.AB(min(3, lang.levels.K))
    out = []
    for _ in range(count):
        terms = {}
        while not terms:
            for _ in range(rng.randint(1, 4)):
                d = rng.randint(-3, 3)
                L = rng.randint(1, 3)
                lo = rng.randint(-3, 4 - L)
                j = rng.randrange(len(host) - 4)
                c = rng.randint(-3, 3)
                if c:
                    terms[(d, lo, host[j:j + L])] = c
        out.append(AlgebraElement(lang, terms))
    return out


def verify_random_witness_products(lang, count, seed, l=None):
    """witness_product, which raises on a failed condition, for each of
    random_w3_elements(lang, count, seed); the first report is the sample."""
    reports = [witness_product(f, l=l) for f in random_w3_elements(lang, count, seed)]
    return {"trials": count, "all_pass": True, "sample": reports[0]}


def verify_unit_decomposition(lang, l):
    """1 = sum over u in L_w(7 N_{l+1}) of 1_{{0} x I_u}, each summand being
    the displayed six-factor chain through 1_{{0} x W}; audits the maximum
    left/right filtration degrees against 12 N_{l+1} and 9 N_{l+1}."""
    if not isinstance(lang, SubstLanguage):
        raise ValueError("verify_unit_decomposition needs the substitution "
                         "language")
    levels = lang.levels
    if l < 0:
        raise ValueError("need l >= 0, got %d" % l)
    if l + 1 > levels.K:
        raise ValueError("depth: level %d not built" % (l + 1))
    N = levels.N[l + 1]
    AB = levels.AB(l + 1)
    n = (levels.Nt[l + 1] - 1) // 2
    # the standalone embedding: xi = the prefix of AB, so p = 0
    p = 0
    q = 2 * N - (2 * n + 1)
    w_lo = -n
    words = sorted(subst_factor_set(levels, 7 * N))
    one = AlgebraElement(lang, {(0, 0, ""): 1})
    total = {}
    max_left = max_right = 0
    for u in words:
        e_u = u.find(AB)
        if e_u < 0:
            raise AssertionError("length-%d factor without the masters: %r"
                                 % (7 * N, u[:40]))
        t_u = 7 * N - e_u - 2 * N
        eta, theta = u[:e_u], u[e_u + 2 * N:]
        chain = []
        if eta:
            chain.append(AlgebraElement(lang, {(0, 0, eta): 1}))
        chain.append(AlgebraElement(lang, {(-(n + p + e_u), 0, ""): 1}))
        chain.append(AlgebraElement(lang, {(0, w_lo, AB): 1}))
        chain.append(AlgebraElement(lang, {(-(n + q + 1), 0, ""): 1}))
        if theta:
            chain.append(AlgebraElement(lang, {(0, 0, theta): 1}))
        chain.append(AlgebraElement(lang, {(e_u + 2 * N, 0, ""): 1}))
        prod = convolve_many(chain)
        expect = {(0, 0, u): prod._c(1)}
        if prod.terms != expect:
            raise AssertionError("chain does not reproduce I_u")
        for key, c in prod.terms.items():
            total[key] = total.get(key, 0) + c
        max_left = max(max_left, n + p + 2 * e_u)
        max_right = max(max_right, (n + q + 1) + t_u + e_u + 2 * N)
    if not (max_left <= 12 * N and max_right <= 9 * N):
        raise AssertionError("filtration degrees %d, %d exceed 12 N, 9 N"
                             % (max_left, max_right))
    # every u is a language word: its chain product is I_u, not empty
    total = _normal_form(AlgebraElement(lang, total))
    ok = total.terms == one.terms
    if not ok:
        raise AssertionError("sum of I_u terms does not canonicalize to 1")
    c_measured = max(-(-max_left // N), -(-max_right // N))
    return {"l": l, "N_l1": N, "terms": len(words), "n": n, "p": p, "q": q,
            "max_left_degree": max_left, "left_bound_12N": 12 * N,
            "max_right_degree": max_right, "right_bound_9N": 9 * N,
            "c_measured": c_measured, "pass": bool(ok)}


def _ceil_K(gamma, n):
    """Least integer K with K n^gamma >= 4 * 2^gamma (2n+1)^gamma."""
    g = Fraction(gamma)
    pg, qg = g.numerator, g.denominator
    lhs_base = n ** pg
    rhs = 4 ** qg * 2 ** pg * (2 * n + 1) ** pg
    K = 1
    while K ** qg * lhs_base < rhs:
        K += 1
    return K


def _ceil_power(K, n, gamma):
    """ceil(K * n^gamma) for rational gamma >= 1."""
    g = Fraction(gamma)
    pg, qg = g.numerator, g.denominator
    val = K ** qg * n ** pg
    r = integer_root(val, qg)
    return r if r ** qg == val else r + 1


def ret_bracket_report(lang, n):
    """Finite-scale bracket on the return function:
      lower: Ret_V(8n) >= ceil((Rec_w(n) - n) / 2), certified by the witness
             pair (u, v): u a length-n factor, v a factor of length Rec-1
             with no occurrence of u, so that every type-(*) product, which
             carries u inside v's window, vanishes on v;
      upper: the constructive machinery's degree budget 8 (c+3) ceil(K n^gamma)
             with c measured by the unit-decomposition audit and K from the
             master-length estimate 2 N_{l+1} <= ceil(K n^gamma).
    A failed check raises AssertionError."""
    if not isinstance(lang, SubstLanguage):
        raise ValueError("ret_bracket_report needs the substitution language")
    levels = lang.levels
    gamma = levels.params.gamma
    if gamma is None:
        raise ValueError("ret_bracket_report needs gamma-driven levels")
    if n < 1:
        raise ValueError("n must be >= 1")
    # the master-length estimate needs no recurrence work, so it fails first
    K = _ceil_K(gamma, n)
    l = levels.min_level_for(2 * n + 1) - 1
    Kn = _ceil_power(K, n, gamma)
    if 2 * levels.N[l + 1] > Kn:
        raise AssertionError("master length 2 N_%d = %d exceeds ceil(K n^gamma) "
                             "= %d at n = %d, K = %d"
                             % (l + 1, 2 * levels.N[l + 1], Kn, n, K))
    rec = recurrence_function(levels, n)
    R = rec["rec"]
    s = (R - 1 - n) // 2                      # v has length 2s + n (>= R - 2)
    lower = -(-(R - n) // 2)
    cert = rec["certificate"]
    report = {"n": n, "rec": R, "scale_8n": 8 * n, "lower_Ret": lower}
    if cert is not None and s >= n:
        host = (levels.AB(cert["host_level"]) if cert["host"] == "AB"
                else levels.BA(cert["host_level"]))
        v = host[cert["failing_window"]:cert["failing_window"] + R - 1]
        u = cert["missing_pattern"]
        if u in v or len(u) != n:
            raise AssertionError("witness u occurs in v or is not of length %d" % n)
        v = v[:2 * s + n]
        if u in v:
            raise AssertionError("witness u occurs in the trimmed v")
        # every type-(*) product 1_{{d} x Z} 1_{{0} x [u]} 1_{{d'} x Z'}
        # with |d'| <= s carries u at [d', d' + n - 1], inside v's window
        # [-s, s + n - 1], so u not in v makes it vanish on v
        report["witness_u"] = u
        report["witness_v_len"] = len(v)
        report["type_star_vanish"] = True
    c = 12                                    # proof constant; audit measures
    report["upper"] = {
        "gamma": str(Fraction(gamma)), "l": l, "K": K,
        "master_len_2N": 2 * levels.N[l + 1],
        "master_len_le_K_n_gamma": True,
        "degree_budget_8_c3_Kn": 8 * (c + 3) * Kn,
    }
    return report
