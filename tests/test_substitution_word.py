import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wordlab.substitution_word import (
    SubstParams,
    beta_cubed_positions,
    build_substitution_levels,
    ceil_rational_power_over_3,
    choose_n_sequence,
    densities,
    integer_root,
    recurrence_function,
    subst_factor_set,
    verify_substitution_lemmas,
)
from wordlab.words_core import (
    WindowCensus,
    _pattern_window_stats,
    count_occurrences,
    min_period,
    occurrence_positions,
)


def factor_set(hosts, n):
    """Oracle: the set of every length-n window of the host words."""
    return frozenset(h[i:i + n] for h in hosts for i in range(len(h) - n + 1))


def naive_containment(host, K, patterns):
    """Slow direct rescan of every window; oracle for _pattern_window_stats."""
    patterns = sorted(set(patterns))
    for i in range(len(host) - K + 1):
        w = host[i:i + K]
        for p in patterns:
            if p not in w:
                return False, i, p
    return True, None, None


@pytest.fixture(scope="module")
def lv():
    return build_substitution_levels(SubstParams(gamma=Fraction(2)))


def test_integer_root():
    assert integer_root(27, 3) == 3
    assert integer_root(26, 3) == 2
    assert integer_root(10**12, 2) == 10**6
    assert integer_root(0, 5) == 0
    for q in range(1, 7):
        r = 0
        for x in range(3000):
            while (r + 1) ** q <= x:
                r += 1
            assert integer_root(x, q) == r, (x, q)
    assert integer_root(10**400, 2) == 10**200
    assert integer_root(10**400 - 1, 2) == 10**200 - 1
    for q in (3, 7, 400):
        r = integer_root(10**400, q)
        assert r**q <= 10**400 < (r + 1) ** q
    assert integer_root(10**399, 3) == 10**133
    assert ceil_rational_power_over_3(10**200, 1) == -(-10**200 // 3)


def test_ceil_rational_power():
    # gamma-1 = 1: max{2, ceil(N/3)}
    assert ceil_rational_power_over_3(36, 1) == 12
    assert ceil_rational_power_over_3(1296, 1) == 432
    assert ceil_rational_power_over_3(6, 1) == 2
    # gamma-1 = 0: always 2
    assert ceil_rational_power_over_3(1296, 0) == 2
    # fractional exponent, exact: 36^(1/2)/3 = 2 -> max(2, 2)
    assert ceil_rational_power_over_3(36, Fraction(1, 2)) == 2


def test_choose_n_sequence_gamma2(lv):
    assert lv.n[1:] == [2, 2, 12, 432]
    assert lv.N == [1, 6, 36, 1296, 1679616]
    assert lv.Nt == [0, 3, 18, 1188, 1675728]
    assert lv.j1 == 1
    for j in range(1, lv.K):
        assert lv.N[j] ** 2 <= lv.N[j + 1] <= 2 * lv.N[j] ** 2


def test_choose_n_sequence_gamma1():
    ns, Ns, j1 = choose_n_sequence(SubstParams(gamma=1), J=5)
    assert ns == [2] * 5
    assert Ns == [6, 36, 216, 1296, 7776]


def test_level_words(lv):
    assert lv.alpha[1] == "aabaab" and lv.beta[1] == "bbabba"
    assert lv.alpha[2] == ("aabaab" * 2 + "bbabba") * 2
    for k in range(lv.K + 1):
        assert len(lv.alpha[k]) == len(lv.beta[k]) == lv.N[k]
        if k >= 1:
            assert lv.Nt[k] == 3 * (lv.n[k] - 1) * lv.N[k - 1]
            assert lv.N[k] <= 2 * lv.Nt[k] <= 2 * lv.N[k]
            # alpha_k is a prefix of alpha_{k+1}
            if k < lv.K:
                assert lv.alpha[k + 1].startswith(lv.alpha[k])


def test_budget_rejected():
    with pytest.raises(ValueError):
        build_substitution_levels(SubstParams(gamma=2, max_bytes=100), K=3)


def eager_masters(levels):
    """Oracle: every alpha_k and beta_k, k = 0..K, built in full, level by
    level, into two lists."""
    alpha, beta = ["a"], ["b"]
    for j in range(1, levels.K + 1):
        a, b = alpha[-1], beta[-1]
        alpha.append((a + a + b) * levels.n[j])
        beta.append((b + b + a) * levels.n[j])
    return alpha, beta


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=4), st.data())
def test_masters_on_read_agree_with_eager_masters(n_list, data):
    levels = build_substitution_levels(SubstParams(n_list=n_list))
    alpha, beta = eager_masters(levels)
    for k in range(levels.K + 1):
        assert levels.alpha[k] == alpha[k] and levels.beta[k] == beta[k], k
    for k in range(1, levels.K + 1):
        N, ab, ba = levels.N[k], alpha[k] + beta[k], beta[k] + alpha[k]
        ns = (1, data.draw(st.integers(1, levels.Nt[k])), levels.Nt[k])
        for n in ns:
            r = min(3 * levels.N[k - 1] + n - 1, N)
            assert levels.junction(k, n) == (ab[N - r:N + r], ba[N - r:N + r])
        # the window sets of a level-4 pair (up to 41,472 letters) are left
        # out to keep the test fast
        if k <= 3:
            for n in ns:
                assert levels.complexity(n) == len(factor_set([ab, ba], n)), (k, n)


def test_deepest_level_is_not_kept(lv):
    assert lv.AB(lv.K) == lv.alpha[lv.K] + lv.beta[lv.K]
    assert sorted(lv._kept) == list(range(lv.K))


def test_gamma1_default_levels_build_no_master():
    # the default depth at gamma = 1 is K = 11, whose two masters would take
    # 725 MB; the build computes the lengths only
    import tracemalloc
    tracemalloc.start()
    levels = build_substitution_levels(SubstParams(gamma=1))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert levels.K == 11 and levels.N[11] == 6**11
    assert peak < 2**20, peak


def test_corrupted_n_raises_on_next_read():
    levels = build_substitution_levels(SubstParams(gamma=2))
    levels.n[2] += 1
    with pytest.raises(AssertionError, match="alpha_2 or beta_2 is not N_2 long"):
        levels.beta[3]


def test_subst_factor_set_budget_checked_before_slicing(monkeypatch):
    # at a 3 MB budget the level-3 census fits, but the p(1188) = 2590
    # factors of length 1188 would take 2590 * (1188 + 112) bytes as set
    # members, so no block is read
    lv3 = build_substitution_levels(SubstParams(gamma=2, max_bytes=3 * 10**6))
    assert lv3.K == 3 and lv3.complexity(1188) == 2590
    calls = []
    real = WindowCensus.blocks
    monkeypatch.setattr(WindowCensus, "blocks",
                        lambda self, n: calls.append(n) or real(self, n))
    with pytest.raises(ValueError, match="budget: 2590 length-1188 factors "
                                         "need up to 3367000 bytes > 3000000"):
        subst_factor_set(lv3, 1188)
    assert calls == []
    assert len(subst_factor_set(lv3, 1100)) == lv3.complexity(1100)
    assert calls == [1100]


def test_factor_sets(lv):
    assert subst_factor_set(lv, 1) == frozenset("ab")
    f3 = subst_factor_set(lv, 3)
    assert "bbb" in f3 and "aaa" in f3
    assert "bbbb" not in subst_factor_set(lv, 4)
    with pytest.raises(ValueError):
        subst_factor_set(lv, lv.Nt[lv.K] + 1)


def test_factor_consistency_across_levels(lv):
    for n in (1, 2, 3, 10, 18):
        k = lv.min_level_for(n)
        a = set(lv.AB(k)[i:i + n] for i in range(2 * lv.N[k] - n + 1)) \
            | set(lv.BA(k)[i:i + n] for i in range(2 * lv.N[k] - n + 1))
        b = set(lv.AB(k + 1)[i:i + n] for i in range(2 * lv.N[k + 1] - n + 1)) \
            | set(lv.BA(k + 1)[i:i + n] for i in range(2 * lv.N[k + 1] - n + 1))
        assert a == b


def test_complexity_bounds(lv):
    prev = 1
    for n in range(1, 400):
        p = lv.complexity(n)
        assert p >= n + 1
        if n >= lv.Nt[1]:
            assert p <= 14 * n
        assert p >= prev
        prev = p


def test_complexity_submultiplicative_samples(lv):
    for m in (1, 2, 3, 5, 8, 13):
        for n in (1, 2, 3, 5, 8, 13):
            assert lv.complexity(m + n) <= lv.complexity(m) * lv.complexity(n)


def test_densities(lv):
    d0 = densities(lv, 0)
    assert d0["phi_a_alpha"] == 1 and d0["phi_a_beta"] == 0
    assert densities(lv, 1)["phi_a_alpha"] == Fraction(2, 3)
    d2 = densities(lv, 2)
    assert d2["phi_a_alpha"] == Fraction(5, 9)
    assert count_occurrences("a", lv.alpha[2]) == 20
    # telescoping: phi_a(alpha_{k+1}) = (2 phi_a(alpha_k) + phi_a(beta_k)) / 3
    for k in range(lv.K):
        dk = densities(lv, k)
        dk1 = densities(lv, k + 1)
        assert dk1["phi_a_alpha"] == (2 * dk["phi_a_alpha"] + dk["phi_a_beta"]) / 3
        assert dk1["phi_a_beta"] == (2 * dk["phi_a_beta"] + dk["phi_a_alpha"]) / 3


def test_densities_match_letter_counts_of_the_masters(lv):
    # oracle: the letters of the masters counted one by one, on the levels
    # criterion 01 reads
    for k in range(5):
        d = densities(lv, k)
        assert d["phi_a_alpha"] == Fraction(lv.alpha[k].count("a"), lv.N[k]), k
        assert d["phi_a_beta"] == Fraction(lv.beta[k].count("a"), lv.N[k]), k


def test_beta_cubed(lv):
    r0 = beta_cubed_positions(lv, 0)
    assert r0["beta_cubed_in_AB"]["positions"] == [6]
    assert r0["beta_cubed_in_AB"]["window"] == (5, 6)
    r1 = beta_cubed_positions(lv, 1)
    lo, hi = r1["beta_cubed_in_AB"]["window"]
    assert (lo, hi) == (36 - 18 + 2, 36)
    assert r1["beta_cubed_in_AB"]["positions"], "beta_1^3 must occur"


def test_recurrence_small(lv):
    r = recurrence_function(lv, 1)
    assert r["rec"] == 4
    # linear cross-check at the smallest level: direct scan of every window
    pats = sorted(subst_factor_set(lv, 1))
    host = lv.AB(2)
    assert naive_containment(host, 4, pats)[0]
    assert not naive_containment(host, 3, pats)[0]


def test_recurrence_monotone_and_bounds(lv):
    vals = {}
    for n in (1, 2, 3, 4, 6, 10, 18):
        vals[n] = recurrence_function(lv, n)["rec"]
        assert vals[n] >= n
    ks = sorted(vals)
    for a, b in zip(ks, ks[1:]):
        assert vals[a] <= vals[b]
    # Rec_w(3 N_1) >= N_2 and Rec_w(Ntilde_2) <= 7 N_2
    assert vals[18] >= 36
    assert vals[18] <= 7 * 36


def test_recurrence_certificate(lv):
    r = recurrence_function(lv, 3)
    c = r["certificate"]
    assert c is not None
    host = lv.AB(c["host_level"]) if c["host"] == "AB" else lv.BA(c["host_level"])
    window = host[c["failing_window"]:c["failing_window"] + c["window_length"]]
    assert c["missing_pattern"] not in window
    assert len(c["missing_pattern"]) == 3


def test_block_and_find_stats_agree(lv):
    # window statistics from census blocks against str.find positions, and
    # the first failing window against a rescan of every window
    pats = sorted(subst_factor_set(lv, 5))
    host = lv.AB(3)
    blocks = WindowCensus(host, 5).blocks(5)
    assert [host[b[0]:b[0] + 5] for b in blocks] == pats
    want = {p: _pattern_window_stats(occurrence_positions(p, host), 5, len(host),
                                     len(host))[2] for p in pats}
    got = {p: _pattern_window_stats(b, 5, len(host), len(host))[2]
           for p, b in zip(pats, blocks)}
    assert got == want
    for K in (5, 40, 200, 2000):
        fails = []
        for p, b in zip(pats, blocks):
            ok, fail, _ = _pattern_window_stats(b, 5, len(host), K)
            if not ok:
                fails.append((fail, p))
        ok, fail, p = naive_containment(host, K, pats)
        assert ok == (not fails)
        if fails:
            assert min(fails) == (fail, p)


def test_recurrence_matches_binary_search_over_rescans(lv):
    # oracle: the least K at which every length-K window of both level-m
    # masters holds every length-n factor, by a binary search over a direct
    # rescan of every window; the certificate is the first failing window at
    # Rec - 1 of the first master that fails there, and its smallest missing
    # factor
    for n in range(1, 19):
        r = recurrence_function(lv, n)
        m = r["host_level"]
        k = lv.min_level_for(n)
        pats = sorted(factor_set([lv.AB(k), lv.BA(k)], n))
        hosts = [("AB", lv.AB(m)), ("BA", lv.BA(m))]
        lo, hi = n, r["upper_bound_7Nk"]
        while lo < hi:
            mid = (lo + hi) // 2
            if all(naive_containment(h, mid, pats)[0] for _, h in hosts):
                hi = mid
            else:
                lo = mid + 1
        assert r["rec"] == lo, n
        if lo - 1 < n:
            assert r["certificate"] is None
            continue
        name, fail, p = next((name, fail, p) for name, h in hosts
                             for ok, fail, p in [naive_containment(h, lo - 1, pats)]
                             if not ok)
        assert r["certificate"] == {"host": name, "host_level": m,
                                    "window_length": lo - 1,
                                    "failing_window": fail,
                                    "missing_pattern": p}, n


def sliding_containment(host, K, pats):
    """Oracle: (ok, first failing window, smallest missing pattern) for the
    length-K windows of host, rescanned by one window sliding a letter at a
    time over the counts of the length-n windows inside it."""
    n = len(pats[0])
    inside = Counter(host[j:j + n] for j in range(K - n + 1))
    for i in range(len(host) - K + 1):
        if i:
            out = host[i - 1:i - 1 + n]
            inside[out] -= 1
            if not inside[out]:
                del inside[out]
            inside[host[i + K - n:i + K]] += 1
        if len(inside) < len(pats):
            return False, i, min(set(pats).difference(inside))
    return True, None, None


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 4), min_size=2, max_size=4), st.data())
def test_recurrence_matches_rescans_on_drawn_n_lists(n_list, data):
    # n <= Ntilde_2 wherever the levels reach the 7 N_k bound; the binary
    # search over rescans of both level-m masters, as above
    lv = build_substitution_levels(SubstParams(n_list=n_list))
    ns = [n for n in range(1, lv.Nt[2] + 1)
          if 7 * lv.N[lv.min_level_for(n)] <= lv.Nt[lv.K]]
    assume(ns)
    n = data.draw(st.sampled_from(ns))
    r = recurrence_function(lv, n)
    k, m = lv.min_level_for(n), r["host_level"]
    pats = sorted(factor_set([lv.AB(k), lv.BA(k)], n))
    hosts = [("AB", lv.AB(m)), ("BA", lv.BA(m))]
    assert all(factor_set([h], n) == set(pats) for _, h in hosts)
    lo, hi = n, r["upper_bound_7Nk"]
    while lo < hi:
        mid = (lo + hi) // 2
        if all(sliding_containment(h, mid, pats)[0] for _, h in hosts):
            hi = mid
        else:
            lo = mid + 1
    assert r["rec"] == lo, (n_list, n)
    if lo - 1 >= n:
        name, fail, p = next((name, fail, p) for name, h in hosts
                             for ok, fail, p in [sliding_containment(h, lo - 1, pats)]
                             if not ok)
        assert r["certificate"] == {"host": name, "host_level": m,
                                    "window_length": lo - 1,
                                    "failing_window": fail,
                                    "missing_pattern": p}, (n_list, n)


# a complexity one too high makes the masters look incomplete: the count
# check must fail `subst recurrence` under python -O, where an assert would
# be stripped
_BROKEN_COUNT = """
import sys
from wordlab import cli, substitution_word as sw

assert sys.flags.optimize
real = sw.SubstLevels.complexity
sw.SubstLevels.complexity = lambda self, n: real(self, n) + 1
sys.exit(cli.parse_and_dispatch(["subst", "--gamma", "2", "recurrence", "--n", "18"]))
"""


def test_recurrence_count_check_fails_under_python_O(run_python_O):
    proc = run_python_O(_BROKEN_COUNT)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["witness"] == {
        "failed_assertion": "AB_3 has 68 distinct length-18 windows, not p(18) = 69"}


# a master word that min_period calls periodic must fail `subst verify`; run
# under python -O, where an assert would be stripped and the report pass
_PERIODIC_MASTER = """
import sys
from wordlab import cli, substitution_word as sw

sw.min_period = lambda word, d_max=None: 1
sys.exit(cli.parse_and_dispatch(["subst", "--gamma", "2", "verify", "--k-max", "1"]))
"""


def test_periodic_master_fails_under_python_O(run_python_O):
    proc = run_python_O(_PERIODIC_MASTER)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["witness"] == {
        "failed_assertion": "period <= Ntilde_1 found in a master word"}

def test_aperiodicity(lv):
    for k in (1, 2):
        assert min_period(lv.AB(k), lv.Nt[k]) is None
        assert min_period(lv.BA(k), lv.Nt[k]) is None
    assert min_period(lv.AB(1), 5) is None  # spec example at Ntilde_1=3 a fortiori


def test_verify_lemmas_report(lv):
    rep = verify_substitution_lemmas(lv, k_max=1, rec_samples=(18,), p_max=60)
    assert rep["every_7Nk_contains_both_masters"] == {0: True, 1: True}
    assert rep["p_bounds_ok"]
    assert rep["recurrence_samples"][18]["lower_floor_ok"]
    assert rep["recurrence_samples"][18]["upper_14_2g_ok"]


def test_gamma1_recurrence_samples_hold_no_float():
    # a verifier's report holds exact values only: the recurrence sample
    # reports its integer Rec(n) and the two exact bracket comparisons
    lv1 = build_substitution_levels(SubstParams(gamma=1), K=4)
    rep = verify_substitution_lemmas(lv1, k_max=1, rec_samples=(3,), p_max=20)
    sample = rep["recurrence_samples"][3]
    assert sorted(sample) == ["lower_floor_ok", "rec", "upper_14_2g_ok"]
    assert type(sample["rec"]) is int


def test_params_validation():
    with pytest.raises(ValueError):
        SubstParams()
    with pytest.raises(ValueError):
        SubstParams(gamma=Fraction(1, 2))
    with pytest.raises(ValueError):
        SubstParams(n_list=[2, 1])


def _master_contains(levels, u):
    k = levels.min_level_for(len(u))
    return u in levels.AB(k) or u in levels.BA(k)


def _contains_probes(levels, k, rng):
    """Seeded factors whose minimal level is k, their one-letter mutations,
    and strings with a separator or a foreign letter."""
    lo = levels.Nt[k - 1] + 1 if k > 1 else 1
    hosts = (levels.AB(k), levels.BA(k))
    out = []
    for _ in range(12):
        n = rng.randint(lo, levels.Nt[k])
        host = hosts[rng.randrange(2)]
        i = rng.randrange(len(host) - n + 1)
        u = host[i:i + n]
        j = rng.randrange(n)
        flip = "b" if u[j] == "a" else "a"
        out += [u, u[:j] + flip + u[j + 1:], u[:j] + "|" + u[j + 1:],
                u[:j] + "c" + u[j + 1:]]
    # a junction-straddling factor of AB_k read with a separator in it
    N = levels.N[k]
    out.append(levels.AB(k)[N - 1:N] + "|" + levels.AB(k)[N:N + 1])
    return out


@pytest.mark.parametrize("params", [SubstParams(gamma=2),
                                    SubstParams(n_list=[2, 3, 2, 2])],
                         ids=["gamma2", "nlist2322"])
def test_contains_agrees_with_masters(params):
    levels = build_substitution_levels(params)
    rng = random.Random(7)
    assert levels.K == 4
    for k in range(1, levels.K + 1):
        for u in _contains_probes(levels, k, rng):
            assert levels.contains(u) == _master_contains(levels, u), (k, u[:40])
    assert levels.contains("")


@pytest.mark.parametrize("params,levels_checked", [
    (SubstParams(gamma=2), (1, 2)),
    (SubstParams(n_list=[2, 3, 2, 2]), (1, 2, 3)),
], ids=["gamma2", "nlist2322"])
def test_junction_factor_sets_agree_with_masters(params, levels_checked):
    levels = build_substitution_levels(params)
    for k in levels_checked:
        census = levels.census(k)
        for n in range(1, levels.Nt[k] + 1):
            want = factor_set([levels.AB(k), levels.BA(k)], n)
            assert census.count(n) == len(want), (k, n)
            if levels.min_level_for(n) == k:
                assert subst_factor_set(levels, n) == want, (k, n)


def test_junction_level3_samples(lv):
    census = lv.census(3)
    for n in (1, 5, 19, 100, 500, 1000, lv.Nt[3]):
        want = factor_set([lv.AB(3), lv.BA(3)], n)
        assert census.count(n) == len(want)
        if n > lv.Nt[2]:
            assert subst_factor_set(lv, n) == want


def test_junction_window_shape(lv):
    for k in range(1, lv.K + 1):
        for n in (1, lv.Nt[k]):
            r = min(3 * lv.N[k - 1] + n - 1, lv.N[k])
            ab, ba = lv.junction(k, n)
            assert len(ab) == len(ba) == 2 * r
            N = lv.N[k]
            assert ab == lv.AB(k)[N - r:N + r] and ba == lv.BA(k)[N - r:N + r]


def test_complexity_at_4096(lv):
    assert lv.complexity(4096) == 15966
