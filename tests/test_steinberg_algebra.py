import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from wordlab.steinberg_algebra import (
    AlgebraElement,
    SubstLanguage,
    _completions,
    _least_value,
    canonicalize,
    convolve,
    make_generators,
    random_w3_elements,
    ret_bracket_report,
    verify_unit_decomposition,
    w_basis_dimension,
    witness_product,
    zero,
)
from wordlab.substitution_word import (
    SubstParams,
    build_substitution_levels,
    recurrence_function,
    subst_factor_set,
)


class XkLanguage:
    """Language oracle over {0, 1, 2} backed by an X_k oracle: the algebra
    takes any object with alphabet, contains and complexity."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.alphabet = "012"

    def contains(self, u):
        return self.oracle.contains(u)

    def complexity(self, n):
        return self.oracle.complexity(n)


class CountingLanguage(SubstLanguage):
    """SubstLanguage that counts its membership queries."""

    def __init__(self, levels):
        super().__init__(levels)
        self.calls = 0

    def contains(self, u):
        self.calls += 1
        return super().contains(u)


# dual route for canonicalize: the greedy trims as first written, each
# decided by one membership query per letter that a stem group lacks, over
# completions recomputed on every call

def _reference_completions(lang, lo, hi, l, pat):
    out = [pat]
    for _ in range(l - lo):
        out = [ch + v for v in out for ch in lang.alphabet
               if lang.contains(ch + v)]
    for _ in range(hi - l - len(pat) + 1):
        out = [v + ch for v in out for ch in lang.alphabet
               if lang.contains(v + ch)]
    return sorted(out)


def _reference_normal_form(f):
    """canonicalize(f) by the language filter, the expansion to the common
    window and the greedy, query-decided trims, right before left."""
    lang, char = f.lang, f.char
    terms = {}
    for (d, lo, pat), c in f.terms.items():
        if pat and not lang.contains(pat):
            continue
        key = (d, 0, "") if not pat else (d, lo, pat)
        s = f._c(terms.get(key, 0) + c)
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    pats = [k for k in terms if k[2]]
    if not pats:
        return AlgebraElement(lang, terms, char)
    lo = min(k[1] for k in pats)
    hi = max(k[1] + len(k[2]) - 1 for k in pats)
    expanded = {}
    for (d, l, pat), c in terms.items():
        for v in _reference_completions(lang, lo, hi, l if pat else lo, pat):
            key = (d, lo, v)
            s = f._c(expanded.get(key, 0) + c)
            if s:
                expanded[key] = s
            else:
                expanded.pop(key, None)
    terms = expanded

    def try_trim(side):
        nonlocal terms, lo, hi
        if not terms or hi < lo:
            return False
        right = side == "right"
        groups = {}
        for (d, l, v), c in terms.items():
            stem, ch = (v[:-1], v[-1]) if right else (v[1:], v[0])
            groups.setdefault((d, stem), {})[ch] = c
        for by_letter in groups.values():
            coeffs = iter(by_letter.values())
            first = next(coeffs)
            if any(c != first for c in coeffs):
                return False
        for (d, stem), by_letter in groups.items():
            for ch in lang.alphabet:
                if ch not in by_letter and lang.contains(
                        stem + ch if right else ch + stem):
                    return False
        new_lo = lo if right else lo + 1
        out = {}
        for (d, stem), by_letter in groups.items():
            key = (d, 0, "") if stem == "" else (d, new_lo, stem)
            out[key] = next(iter(by_letter.values()))
        terms = out
        lo = new_lo
        hi = hi - 1 if right else hi
        return True

    progress = True
    while progress and any(k[2] for k in terms):
        progress = try_trim("right") or try_trim("left")
    return AlgebraElement(lang, terms, char)


def assert_matches_reference(elements):
    """canonicalize gives the reference's terms on every element."""
    for f in elements:
        assert canonicalize(f).terms == _reference_normal_form(f).terms, f


@dataclass(frozen=True)
class GroupoidPoint:
    degree: int
    lo: int
    word: str                     # sample on [lo, lo+len-1], stands for any
                                  # point of X extending it


def evaluate_at(f, point):
    """Sum of coefficients of the terms matched by the sampled point."""
    s_lo, s_hi = point.lo, point.lo + len(point.word) - 1
    total = f._c(0)
    for (d, lo, pat), c in f.terms.items():
        if d != point.degree:
            continue
        if pat:
            if lo < s_lo or lo + len(pat) - 1 > s_hi:
                raise ValueError("insufficient sample: term window [%d, %d] "
                                 "not covered" % (lo, lo + len(pat) - 1))
            if any(point.word[lo + i - s_lo] != ch for i, ch in enumerate(pat)):
                continue
        total = f._c(total + c)
    return total


def naive_convolution_value(f, g, point):
    """Definition-chasing (f*g)(point) = sum_{d2} f(., T^{d2} x) g(d2, x);
    brute-force oracle for evaluate_at(convolve(f, g), point)."""
    total = f._c(0)
    for d2 in g.degrees():
        fv = evaluate_at(f, GroupoidPoint(point.degree - d2,
                                          point.lo - d2, point.word))
        gv = evaluate_at(g, GroupoidPoint(d2, point.lo, point.word))
        total = f._c(total + fv * gv)
    return total


@pytest.fixture(scope="module")
def lang():
    return SubstLanguage(build_substitution_levels(SubstParams(gamma=2)))


@pytest.fixture(scope="module")
def gens(lang):
    return make_generators(lang)


def rand_elem(lang, rng, host, char=None):
    t = {}
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(-2, 2)
        lo = rng.randint(-2, 0)
        L = rng.randint(0, 2)
        i = rng.randrange(len(host) - 3)
        key = (d, lo, host[i:i + L]) if L else (d, 0, "")
        t[key] = rng.randint(-3, 3)
    return AlgebraElement(lang, t, char)


def test_generator_identities(lang, gens):
    one, T, Tinv, proj = gens["one"], gens["T"], gens["Tinv"], gens["proj"]
    assert convolve(T, Tinv) == one
    assert convolve(Tinv, T) == one
    assert proj["a"] + proj["b"] == one
    for g in (one, T, Tinv, proj["a"], proj["b"]):
        assert len(g.degrees()) == 1


def test_proj_shift_identities(lang, gens):
    T, Tinv, proj = gens["T"], gens["Tinv"], gens["proj"]
    # 1_s * 1_T^{*d} = 1_{{d} x {x[d]=s}}
    got = convolve(proj["a"], T)
    assert got.terms == {(1, 1, "a"): Fraction(1)}
    # T^{*(-d)} * 1_s * T^{*d} = 1_{{0} x {x[d]=s}}
    d = 3
    Td = convolve(convolve(T, T), T)
    Tmd = convolve(convolve(Tinv, Tinv), Tinv)
    got = convolve(convolve(Tmd, proj["b"]), Td)
    assert got.terms == {(0, 3, "b"): Fraction(1)}


def test_canonicalize_rules(lang, gens):
    one = gens["one"]
    e = AlgebraElement(lang, {(0, 0, "a"): 1, (0, 0, "b"): 1})
    assert canonicalize(e) == one
    assert canonicalize(AlgebraElement(lang, {(0, 0, "bbbb"): 7})).is_zero()
    assert canonicalize(one + zero(lang)) == one
    # idempotent and commutes with scalars
    rng = random.Random(1)
    host = lang.levels.AB(3)
    for _ in range(50):
        f = rand_elem(lang, rng, host)
        c1 = canonicalize(f)
        assert canonicalize(c1).terms == c1.terms
        assert canonicalize(3 * f).terms == (3 * c1).terms


def test_evaluate(lang, gens):
    one, T = gens["one"], gens["T"]
    assert evaluate_at(one, GroupoidPoint(0, -2, "aabaa")) == 1
    assert evaluate_at(T, GroupoidPoint(1, 0, "ab")) == 1
    assert evaluate_at(T, GroupoidPoint(0, 0, "ab")) == 0
    e = AlgebraElement(lang, {(0, -3, "aab"): 2})
    with pytest.raises(ValueError):
        evaluate_at(e, GroupoidPoint(0, 0, "ab"))


def test_convolution_against_naive(lang):
    rng = random.Random(0)
    host = lang.levels.AB(3)
    for _ in range(300):
        f, g = rand_elem(lang, rng, host), rand_elem(lang, rng, host)
        i = rng.randrange(len(host) - 30)
        pt = GroupoidPoint(rng.randint(-4, 4), -12, host[i:i + 25])
        assert evaluate_at(convolve(f, g, canonical=False), pt) \
            == naive_convolution_value(f, g, pt)


def test_associativity_and_units(lang, gens):
    one = gens["one"]
    rng = random.Random(7)
    host = lang.levels.AB(3)
    for _ in range(1000):
        a = rand_elem(lang, rng, host)
        b = rand_elem(lang, rng, host)
        c = rand_elem(lang, rng, host)
        left = convolve(convolve(a, b, canonical=False), c)
        right = convolve(a, convolve(b, c, canonical=False))
        assert left.terms == right.terms
    for _ in range(50):
        f = rand_elem(lang, rng, host)
        cf = canonicalize(f)
        assert convolve(one, f).terms == cf.terms
        assert convolve(f, one).terms == cf.terms


def test_degree_additivity(lang):
    rng = random.Random(3)
    host = lang.levels.AB(3)
    for _ in range(200):
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        i, j = rng.randrange(100), rng.randrange(100)
        f = AlgebraElement(lang, {(p, rng.randint(-2, 0), host[i:i + 2]): 1})
        g = AlgebraElement(lang, {(q, rng.randint(-2, 0), host[j:j + 2]): 1})
        out = convolve(f, g, canonical=False)
        assert all(d == p + q for d, _, _ in out.terms)


def test_prime_field(lang):
    gens5 = make_generators(lang, char=5)
    one, proj = gens5["one"], gens5["proj"]
    assert (proj["a"] + proj["b"]) == one
    f = 5 * proj["a"]
    assert f.is_zero()
    assert convolve(gens5["T"], gens5["Tinv"]) == one
    # a fraction num/den stands for num * den^-1 mod p
    half = AlgebraElement(lang, {(0, 0, "a"): Fraction(1, 2)}, char=5)
    assert half.terms == {(0, 0, "a"): 3}              # 2 * 3 = 1 mod 5
    assert (Fraction(1, 2) * proj["a"]).terms == {(0, 0, "a"): 3}
    assert (Fraction(-1, 2) * proj["a"]).terms == {(0, 0, "a"): 2}
    assert 2 * half == proj["a"]
    with pytest.raises(ValueError):
        AlgebraElement(lang, {(0, 0, "a"): Fraction(2, 5)}, char=5)
    with pytest.raises(ValueError):
        Fraction(1, 10) * proj["a"]


def test_count_decided_trims_match_queries(lang):
    rng = random.Random(5)
    host = lang.levels.AB(3)
    elements = []
    for i in range(400):
        char = 5 if i % 4 == 0 else None
        f, g = rand_elem(lang, rng, host, char), rand_elem(lang, rng, host, char)
        elements += [f, convolve(f, g, canonical=False)]
    assert_matches_reference(elements)


def test_count_decided_trims_match_queries_on_unit_sum(lang):
    # the l = 0 sum of criterion 11, whole and with one word dropped or
    # doubled, so that the extension counts decide both ways
    words = sorted(subst_factor_set(lang.levels, 7 * lang.levels.N[1]))
    whole = {(0, 0, u): 1 for u in words}
    dropped = dict(whole)
    del dropped[(0, 0, words[17])]
    doubled = dict(whole)
    doubled[(0, 0, words[17])] = 2
    sums = [AlgebraElement(lang, t) for t in (whole, dropped, doubled)]
    assert_matches_reference(sums)
    assert canonicalize(sums[0]).terms == {(0, 0, ""): 1}
    assert len(canonicalize(sums[1]).terms) > 1


class ComplexityCountingLanguage:
    """A language wrapper that counts its complexity calls: a collapsed
    normal form makes one."""

    def __init__(self, lang):
        self.lang = lang
        self.alphabet = lang.alphabet
        self.counts = 0

    def contains(self, u):
        return self.lang.contains(u)

    def complexity(self, n):
        self.counts += 1
        return self.lang.complexity(n)


def _full_sum(lang, coeffs, lo, m):
    """Terms of sum over d of coeffs[d] times every cylinder of length m at lo."""
    words = sorted(subst_factor_set(lang.levels, m))
    return {(d, lo, u): c for d, c in coeffs.items() for u in words}


def test_full_degrees_collapse_in_one_count(lang):
    words = sorted(subst_factor_set(lang.levels, 6))
    full = [(_full_sum(lang, {0: 1, 2: -3}, -2, 6), None),
            (_full_sum(lang, {-1: 2, 1: 5, 3: 7}, 1, 4), None),
            (_full_sum(lang, {0: Fraction(1, 3), 1: Fraction(-2, 3)}, 0, 5), None),
            (_full_sum(lang, {0: 7, -2: 3}, -1, 6), 5)]
    want = [{(0, 0, ""): 1, (2, 0, ""): -3},
            {(-1, 0, ""): 2, (1, 0, ""): 5, (3, 0, ""): 7},
            {(0, 0, ""): Fraction(1, 3), (1, 0, ""): Fraction(-2, 3)},
            {(0, 0, ""): 2, (-2, 0, ""): 3}]
    # each keeps the degree named second: a full degree beside a partial one,
    # or with one coefficient changed, over Q, with fractions and mod 5
    partial = _full_sum(lang, {0: 1}, 0, 6)
    partial.update({(1, 0, u): 1 for u in words[:3]})
    changed = _full_sum(lang, {0: 1, 2: 1}, 0, 6)
    changed[(2, 0, words[4])] = 2
    thirds = _full_sum(lang, {0: Fraction(1, 3)}, 0, 6)
    thirds[(0, 0, words[0])] = Fraction(2, 3)
    mod5 = _full_sum(lang, {0: 1, 1: 4}, 0, 6)
    mod5[(1, 0, words[-1])] = 3
    kept = [(partial, None, 1), (changed, None, 2), (thirds, None, 0),
            (mod5, 5, 1)]
    assert_matches_reference([AlgebraElement(lang, t, char)
                              for t, char, *_ in full + kept])
    for (terms, char), collapsed in zip(full, want):
        counting = ComplexityCountingLanguage(lang)
        got = canonicalize(AlgebraElement(counting, terms, char))
        assert got.terms == collapsed
        assert counting.counts == 1               # one count, no trims
    for terms, char, degree in kept:
        got = canonicalize(AlgebraElement(lang, terms, char))
        assert any(pat for d, _, pat in got.terms if d == degree)


def test_integral_coefficients_are_int(lang, gens):
    T, Tinv, proj = gens["T"], gens["Tinv"], gens["proj"]
    assert all(type(c) is int for c in convolve(T, Tinv).terms.values())
    assert all(type(c) is int for c in canonicalize(proj["a"] + proj["b"]).terms.values())
    rng = random.Random(11)
    host = lang.levels.AB(3)
    for _ in range(50):
        a, b, c = (rand_elem(lang, rng, host) for _ in range(3))
        products = [convolve(convolve(a, b, canonical=False), c),
                    convolve(a, convolve(b, c, canonical=False), canonical=False)]
        assert all(type(x) is int for f in products for x in f.terms.values())
        # the products mod 5 are those over Q read mod 5
        a5, b5, c5 = (AlgebraElement(lang, e.terms, char=5) for e in (a, b, c))
        abc5 = convolve(a5, convolve(b5, c5, canonical=False), canonical=False)
        assert abc5.terms == {k: x % 5 for k, x in products[1].terms.items() if x % 5}
    two = AlgebraElement(lang, {(0, 0, "a"): Fraction(4, 2)})
    assert type(two.terms[(0, 0, "a")]) is int and two.terms[(0, 0, "a")] == 2
    half = AlgebraElement(lang, {(0, 0, "a"): Fraction(1, 2)})
    assert type(half.terms[(0, 0, "a")]) is Fraction
    assert type((2 * half).terms[(0, 0, "a")]) is int
    assert (half + half).terms == {(0, 0, "a"): 1}
    # mod 5 the values are those that Fraction coefficients gave
    f5 = AlgebraElement(lang, {(0, 0, "a"): Fraction(1, 2), (1, -1, "ab"): 7},
                        char=5)
    assert f5.terms == {(0, 0, "a"): 3, (1, -1, "ab"): 2}
    assert convolve(f5, f5, canonical=False).terms == {
        (0, 0, "a"): 4, (1, -1, "aba"): 1}
    assert convolve(f5, f5).terms == {
        (0, -1, "aaa"): 4, (0, -1, "aab"): 4, (0, -1, "baa"): 4,
        (0, -1, "bab"): 4, (1, -1, "aba"): 1}


def test_memo_is_per_language(lang):
    # the gamma = 2 and 3/2 languages first differ at length 218: there a
    # stem s of L(217) has both right extensions over 3/2, one over 2
    levels32 = build_substitution_levels(SubstParams(gamma=Fraction(3, 2)))
    u = min(subst_factor_set(levels32, 218) - subst_factor_set(lang.levels, 218))
    s, t = u[:-1], u[1:]
    assert [lang.contains(s + ch) for ch in "ab"].count(True) == 1
    assert all(SubstLanguage(levels32).contains(s + ch) for ch in "ab")
    # a right trim over s, and an expansion that completes s on the right
    terms = [{(0, 0, s + "a"): 1, (0, 0, s + "b"): 1},
             {(0, 0, s): 1, (0, 1, t): 2}]
    for first, second in ((lang.levels, levels32), (levels32, lang.levels)):
        langs = SubstLanguage(first), SubstLanguage(second)
        got = {}
        for x in langs:
            got[x] = [canonicalize(AlgebraElement(x, f)).terms for f in terms]
            assert got[x] == [_reference_normal_form(AlgebraElement(x, f)).terms
                              for f in terms]
        assert got[langs[0]] != got[langs[1]]
    # a returned completion cannot change the table behind it
    x = SubstLanguage(levels32)
    ext = _completions(x, 0, 217, 0, s)
    assert ext == (s + "a", s + "b")
    with pytest.raises(TypeError):
        ext[0] = s + "b"
    assert _completions(x, 0, 217, 0, s) == (s + "a", s + "b")


def test_mixed_algebras_raise_value_error(lang, gens):
    other = SubstLanguage(lang.levels)
    gens_other = make_generators(other)
    gens5 = make_generators(lang, char=5)
    for f, g in ((gens["T"], gens_other["T"]), (gens["T"], gens5["T"])):
        with pytest.raises(ValueError, match="mixed algebras"):
            f + g
        with pytest.raises(ValueError, match="mixed algebras"):
            convolve(f, g)


def test_unit_decomposition_query_count(lang):
    counting = CountingLanguage(lang.levels)
    assert verify_unit_decomposition(counting, 1)["pass"]
    assert counting.calls <= 3600


def test_w_basis_dimension(lang):
    assert w_basis_dimension(lang, 0)["dim"] == 2
    r = w_basis_dimension(lang, 1)
    assert r["dim"] == 3 * lang.complexity(3)
    assert r["ratio_2N_over_N"] > 1
    with pytest.raises(ValueError):
        w_basis_dimension(lang, -1)


def test_xk_language_adapter():
    from wordlab.xk_words import XkOracle, XkParams
    xl = XkLanguage(XkOracle(XkParams(r=2, max_level=5)))
    gens = make_generators(xl)
    s = zero(xl)
    for p in gens["proj"].values():
        s = s + p
    assert canonicalize(s) == gens["one"]
    assert w_basis_dimension(xl, 1)["dim"] == 3 * xl.complexity(3)
    # the projection sum, and the sum of all length-3 cylinders with one
    # coefficient changed, against query-decided trims
    cyl3 = {(0, -1, "".join(u)): 1 for u in itertools.product("012", repeat=3)
            if xl.contains("".join(u))}
    cyl3[min(cyl3)] = 4
    assert_matches_reference([s, s - gens["proj"]["1"],
                              AlgebraElement(xl, cyl3)])


def test_witness_product(lang, gens):
    proj = gens["proj"]
    rep = witness_product(proj["a"], l=1)
    assert rep["pass"] and rep["sum_alpha"] == "1"
    rep = witness_product(proj["a"] - proj["b"], l=1)
    assert rep["pass"] and rep["sum_alpha"] in ("1", "-1")
    f = AlgebraElement(lang, {(1, -1, "aba"): Fraction(2, 3),
                              (0, 0, "ab"): 1})
    rep = witness_product(f, l=1)
    assert rep["pass"] and rep["n"] == 1
    with pytest.raises(ValueError):
        witness_product(zero(lang))


def test_unit_decomposition_l0(lang):
    rep = verify_unit_decomposition(lang, 0)
    assert rep["pass"]
    assert rep["max_left_degree"] <= rep["left_bound_12N"]
    assert rep["max_right_degree"] <= rep["right_bound_9N"]
    assert rep["terms"] == lang.complexity(7 * lang.levels.N[1])


def test_ret_bracket(lang):
    rep = ret_bracket_report(lang, 18)
    assert rep["rec"] >= 36
    assert rep["lower_Ret"] >= 9
    assert rep["type_star_vanish"]
    assert rep["upper"]["master_len_le_K_n_gamma"]


# dual route for the type-(*) vanishing that ret_bracket_report derives from
# u not in v: the products themselves, read on the sample v

def vanishes_on_sample(f, degree, lo, word):
    """True when every degree-matching term conflicts with the sample on the
    overlap, so f vanishes at every point of X extending the sample."""
    s_hi = lo + len(word) - 1
    for (d, l, pat), _ in f.terms.items():
        if d != degree:
            continue
        if not any(lo <= l + i <= s_hi and word[l + i - lo] != ch
                   for i, ch in enumerate(pat)):
            return False
    return True


def test_type_star_products_vanish_on_v(lang):
    f = AlgebraElement(lang, {(0, 0, "aaa"): 1})
    assert vanishes_on_sample(f, 0, 0, "aab")
    assert not vanishes_on_sample(f, 0, 0, "aa")   # no conflict on overlap
    # the witness pair (u, v) of ret_bracket_report at n = 18
    n = 18
    rec = recurrence_function(lang.levels, n)
    cert = rec["certificate"]
    s = (rec["rec"] - 1 - n) // 2
    host = (lang.levels.AB if cert["host"] == "AB"
            else lang.levels.BA)(cert["host_level"])
    v = host[cert["failing_window"]:][:2 * s + n]
    u = cert["missing_pattern"]
    rep = ret_bracket_report(lang, n)
    assert (rep["witness_u"], rep["witness_v_len"]) == (u, len(v))
    assert rep["type_star_vanish"] and u not in v and s >= n

    def product(d, z, pat, d2, z2):
        return convolve(convolve(AlgebraElement(lang, {(d, -s, z): 1}),
                                 AlgebraElement(lang, {(0, 0, pat): 1}),
                                 canonical=False),
                        AlgebraElement(lang, {(d2, -s, z2): 1}),
                        canonical=False)

    # Z and Z' from random windows of the host, whose products are mostly
    # empty, and from the host around occurrences of u: Z' on [-s, s] and
    # Z on [d' - s, d' + s] read where u sits at [d', d' + n - 1]
    rng = random.Random(18)
    span = 2 * s + 1
    zs = [host[i:i + span] for i in rng.sample(range(len(host) - span), 3)]
    occ = [i for i in range(2 * s, len(host) - 2 * s - n)
           if host.startswith(u, i)][:3]
    nonzero = 0
    for d, d2 in itertools.product((-s, s), (-s, 0, s)):
        pairs = list(itertools.product(zs, zs))
        pairs += [(host[i - s:i + s + 1], host[i - d2 - s:i - d2 + s + 1])
                  for i in occ]
        for z, z2 in pairs:
            prod = product(d, z, u, d2, z2)
            nonzero += not prod.is_zero()
            assert all(vanishes_on_sample(prod, e, -s, v)
                       for e in prod.degrees()), (d, d2, z, z2)
    assert len(occ) == 3 and nonzero >= 2 * 3 * len(occ)
    # with the factor of v at [0, n - 1] in place of u, the product through
    # v's own window does not vanish on v
    z = v[:2 * s + 1]
    assert not vanishes_on_sample(product(s, z, v[s:s + n], 0, z), s, -s, v)


# dual route for the value witness_product starts from: the loop over every
# degree and every completion of the pattern hull, reading f term by term

def _reference_witness_value(f):
    """(k, v, matched terms, coefficient sum) at the least degree k and the
    first completion v of the pattern hull at which f is nonzero, or None."""
    pats = [key for key in f.terms if key[2]]
    hull_lo = min([key[1] for key in pats], default=0)
    hull_hi = max([key[1] + len(key[2]) - 1 for key in pats], default=-1)
    for k in f.degrees():
        for v in (_reference_completions(f.lang, hull_lo, hull_hi, hull_lo, "")
                  if hull_hi >= hull_lo else [""]):
            total = f._c(0)
            A = []
            for (d, lo, pat), c in f.terms.items():
                if d == k and all(v[lo + i - hull_lo] == ch
                                  for i, ch in enumerate(pat)):
                    total = f._c(total + c)
                    A.append((d, lo, pat))
            if total:
                return k, v, A, total
    return None


def test_least_value_matches_reference(lang):
    elements = [f for seed in range(40) for f in random_w3_elements(lang, 25, seed)]
    assert not (lang.contains("abab") or lang.contains("aaaa"))
    extra = [
        # a pattern outside the language widens the hull and matches nowhere,
        # though "aaaa" spans the hull and sorts before its completions
        {(0, -3, "aaaa"): 1, (0, 0, "b"): 1},
        {(0, -3, "abab"): 1, (0, 0, "a"): 2},
        {(1, 2, "abab"): 1, (-1, 0, "ab"): 1, (-1, 1, "b"): -1},
        # full-space terms only
        {(1, 0, ""): 2, (-1, 0, ""): -3},
        {(0, 0, ""): Fraction(1, 2)},
        # coefficients that cancel on every completion of a degree
        {(0, 0, "a"): 1, (0, 0, "b"): 1, (0, 0, ""): -1, (2, 1, "ab"): 3},
        {(0, 0, "a"): 1, (0, 0, ""): -1, (0, 1, "a"): 1},
        {(-2, -1, "aab"): 1, (-2, -1, "a"): -1, (1, 0, "b"): 1},
        {(3, 0, "ba"): 2, (3, 1, "a"): -2, (3, 0, "bb"): 1},
    ]
    elements += [AlgebraElement(lang, t) for t in extra]
    elements += [AlgebraElement(lang, t, char=5) for t in extra[:2]]
    elements.append(AlgebraElement(lang, {(0, 0, "a"): 2, (0, 0, ""): 3},
                                   char=5))
    for f in elements:
        k, _, v, A, total = _least_value(f)
        assert (k, v, A, total) == _reference_witness_value(f), f
    # a nonzero sum of terms that is zero as a function
    f = AlgebraElement(lang, {(0, 0, "a"): 1, (0, 0, "b"): 1, (0, 0, ""): -1})
    assert not f.is_zero() and _reference_witness_value(f) is None
    with pytest.raises(AssertionError, match="no nonzero value"):
        _least_value(f)


# a master word that min_period calls periodic must fail condition (iii) of
# the witness product; run under python -O, where an assert would be stripped
_PERIODIC_WITNESS = """
import sys
from wordlab import cli, steinberg_algebra as sa

sa.min_period = lambda word, d_max=None: 1
sys.exit(cli.parse_and_dispatch(["algebra", "witness-product", "--random", "5"]))
"""


def test_witness_product_fails_under_python_O(run_python_O):
    proc = run_python_O(_PERIODIC_WITNESS)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["witness"] == {"failed_assertion": "condition (iii) fails"}


def test_ret_bracket_refuses_explicit_n_list_first(monkeypatch):
    # the usage error comes before any recurrence work
    import wordlab.steinberg_algebra as sa
    calls = []
    real = sa.recurrence_function
    monkeypatch.setattr(sa, "recurrence_function",
                        lambda levels, n: calls.append(n) or real(levels, n))
    lang = SubstLanguage(build_substitution_levels(SubstParams(n_list=[2, 2, 12])))
    with pytest.raises(ValueError, match="needs gamma-driven levels"):
        ret_bracket_report(lang, 18)
    assert calls == []
