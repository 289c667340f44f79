# End-to-end acceptance checks, one numbered criterion per test.  Each test
# prints exactly one "criterion N ...: PASS/FAIL" line; tolerances are exact
# integer or rational comparisons unless a bound is stated inline.

import functools
import hashlib
import json
import math
from fractions import Fraction

import pytest

from wordlab.ergodic_subshift import (
    ErgodicParams,
    build_ergodic_levels,
    verify_interval_nesting,
)
from wordlab.growth_functions import GrowthTable, build_superlinear_witness
from wordlab.steinberg_algebra import (
    SubstLanguage,
    random_w3_elements,
    verify_algebra_identities,
    verify_unit_decomposition,
    witness_product,
)
from wordlab.substitution_word import (
    SubstParams,
    beta_cubed_positions,
    build_substitution_levels,
    complexity_rows,
    densities,
    recurrence_function,
)
from wordlab.words_core import min_period
from wordlab.xk_words import (
    XkOracle,
    XkParams,
    verify_derivative_spike,
    verify_xk_structure,
)


def report(num, label):
    """Decorator printing the single pass/fail line for a criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print("criterion %2d %s: FAIL" % (num, label))
                raise
            print("criterion %2d %s: PASS" % (num, label))
        return run
    return wrap


@pytest.fixture(scope="module")
def subst():
    return build_substitution_levels(SubstParams(gamma=2))


@pytest.fixture(scope="module")
def lang(subst):
    return SubstLanguage(subst)


@pytest.fixture(scope="module")
def xk():
    return XkOracle(XkParams(r=2, max_level=6))


@report(1, "densities exact, gamma=2, k=0..4")
def test_criterion_01_densities(subst):
    for k in range(5):
        d = densities(subst, k)
        assert d["phi_a_alpha"] == Fraction(3**k + 1, 2 * 3**k)
        assert d["phi_b_alpha"] == Fraction(3**k - 1, 2 * 3**k)
        assert d["phi_a_beta"] == Fraction(3**k - 1, 2 * 3**k)
        assert d["phi_b_beta"] == Fraction(3**k + 1, 2 * 3**k)


@report(2, "linear complexity n+1 <= p(n) <= 14n on [3, 1188]")
def test_criterion_02_linear_complexity(subst):
    rows = complexity_rows(subst, 1, 1188)       # raises on a failure
    assert [n for n, _, _, _ in rows] == list(range(1, 1189))
    for n, p, _, _ in rows:
        assert p >= n + 1
        if n >= subst.Nt[1]:
            assert p <= 14 * n


@report(3, "beta^3 occurrences localized, k=0..2")
def test_criterion_03_beta_cubed(subst):
    for k in range(3):
        r = beta_cubed_positions(subst, k)
        # occurrences of beta_k^3 in alpha_{k+1} beta_{k+1} must start in
        # [N_{k+1} - 3 N_k + 2, N_{k+1}] (1-based positions)
        a = subst.N[k + 1] - 3 * subst.N[k] + 2
        b = subst.N[k + 1]
        host = subst.AB(k + 1)
        pat = subst.beta[k] * 3
        occ = [i + 1 for i in range(len(host) - len(pat) + 1)
               if host[i:i + len(pat)] == pat]   # 1-indexed starts
        assert occ == r["beta_cubed_in_AB"]["positions"]
        assert occ and all(a <= i <= b for i in occ)


@report(4, "aperiodicity: no period d <= Ntilde_k, k=1..3")
def test_criterion_04_aperiodicity(subst):
    for k in (1, 2, 3):
        for w in (subst.AB(k), subst.BA(k)):
            assert min_period(w, subst.Nt[k]) is None


@report(5, "recurrence bracket: Rec(18) in [36,252], Rec(108) in [1296,9072]")
def test_criterion_05_recurrence(subst):
    r18 = recurrence_function(subst, 18)
    assert r18["rec"] == 197 and 36 <= r18["rec"] <= 252
    r108 = recurrence_function(subst, 108)
    assert r108["rec"] == 6587 and 1296 <= r108["rec"] <= 9072
    # the first failing window at Rec - 1, its letters and the pattern it
    # misses
    assert r108["certificate"] == {
        "host": "AB", "host_level": 4, "window_length": 6586,
        "failing_window": 1675622,
        "failing_letters": subst.AB(4)[1675622:1675622 + 6586],
        "missing_pattern": "babbabbabbaaabaabbbabbabbabbaaabaabbbabbabbabbaaabaabbb"
                           "abbabbabbaaabaabaabaabaabaabbbabbaaabaabaabaabbbabbaa",
    }


@report(6, "X_k structure lemma checks, r=2, k <= 6")
def test_criterion_06_xk_structure(xk):
    rep = verify_xk_structure(xk)
    assert all(rep["boundary_letters"].values())
    assert all(rep["extension"].values())
    assert all(all(d.values()) for d in rep["pushdown"].values())
    s_expected = [2, 4, 16, 256, 256, 65536]
    assert [xk.level(k).s for k in range(1, 7)] == s_expected


@report(7, "complexity sandwich and derivative spike at l=1")
def test_criterion_07_spike(xk):
    rep = verify_derivative_spike(xk, l=1, epsilon=Fraction(1, 2))
    assert rep["ts2"] == 27 * 65536 == 1769472
    assert rep["p_n3t"] - rep["p_n"] >= 1769472
    # p(81) extensions and (t+1) s^2 decoded xi words, disjoint
    assert rep["overlap"] == 0
    assert (rep["family_a"], rep["family_b"]) == (rep["p_n"], 28 * 65536)
    assert rep["p_n"] == 29193
    assert rep["p_n3t"] <= 11 * 1769472
    table = json.dumps([xk.complexity(n) for n in range(1, 163)])
    assert hashlib.sha256(table.encode()).hexdigest() \
        == "260a4015359d659f24d7e3d314283b5d1d5feebfd7ae0cdf8d4fbb11402fee82"
    assert 82 <= rep["m"] <= 162
    assert 3 * rep["dp_m"] >= 65536
    assert rep["epsilon_ok"] and rep["pass"]


@report(8, "superlinear witness invariants for g(n)=n^2 up to 10^6")
def test_criterion_08_growth():
    g = GrowthTable.from_name("n^2", 10**6)
    w = build_superlinear_witness(g)     # verify_witness runs inside
    v = w.f.values
    for n in range(1, 10**6):
        assert v[n] < v[n + 1]
    for n in range(1, 10**6 // 2 + 1):
        assert v[2 * n] <= v[n] * v[n]
    for n in range(1, 10**6 + 1):
        assert v[n] <= 2 * (n + 1) * math.factorial(w.omega[n])
    for i, di in w.d.items():
        assert v[2 * di] == i * v[di]


@report(9, "ergodic interval nesting for u in {a, b, ab}, k <= 8")
def test_criterion_09_ergodic():
    f = GrowthTable.from_function(
        lambda n: 2 ** (math.isqrt(n) + (0 if math.isqrt(n)**2 == n else 1)),
        1024)
    levels = build_ergodic_levels(ErgodicParams(f=f, max_level=8))
    for u in ("a", "b", "ab"):
        rep = verify_interval_nesting(levels, u)
        assert rep["pass"], (u, rep)


@report(10, "algebra identities and 10^3 random grading/associativity")
def test_criterion_10_algebra_identities(lang):
    rep = verify_algebra_identities(lang, 1000, 2024)   # raises on a failure
    assert rep["trials"] == 1000
    assert all(v for k, v in rep.items() if k != "trials")


@report(11, "identity decomposition at l=0 and l=1 with filtration audit")
def test_criterion_11_unit_decomposition(lang):
    for l, max_terms in ((0, 588), (1, 3528)):
        rep = verify_unit_decomposition(lang, l)
        assert rep["pass"]
        assert rep["terms"] <= max_terms
        assert rep["max_left_degree"] <= 12 * rep["N_l1"]
        assert rep["max_right_degree"] <= 9 * rep["N_l1"]


@report(12, "witness product for 20 random nonzero f in W_3")
def test_criterion_12_witness_products(lang):
    elements = random_w3_elements(lang, 20, 77)
    assert len(elements) == 20
    for f in elements:
        assert not f.is_zero() and f.window_radius() <= 3
        rep = witness_product(f)
        assert rep["pass"], rep
