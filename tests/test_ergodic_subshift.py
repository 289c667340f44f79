import itertools
import json
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wordlab.ergodic_subshift import (
    ErgodicParams,
    build_c_sequence,
    build_ergodic_levels,
    decompose_factor,
    interval_rows,
    verify_frequency_deviation,
    verify_interval_nesting,
    verify_sandwich,
    _count_extremes,
    _factor_counts,
    _interval,
    _window_extremes,
    _prefix_blocks,
    _suffix_blocks,
)
from wordlab.growth_functions import GrowthTable
from wordlab.words_core import WindowCensus, count_occurrences


def ceil_sqrt(n):
    r = math.isqrt(n)
    return r if r * r == n else r + 1


@pytest.fixture(scope="module")
def params():
    f = GrowthTable.from_function(lambda n: 2 ** ceil_sqrt(n), 1024)
    return ErgodicParams(f=f, max_level=8)


@pytest.fixture(scope="module")
def levels(params):
    return build_ergodic_levels(params)


def test_c_sequence_worked_instance(params):
    cs = build_c_sequence(params)
    assert cs.c == [1, 2, 4, 2, 1, 16, 1, 256, 1]
    assert cs.N == [2, 4, 16, 32, 32, 512, 512, 131072, 131072]
    assert sorted(cs.ones) == [0, 4, 6, 8]
    # oracle: re-evaluate both branches independently, tracking the forced 1s
    f = params.f
    forced = set()
    for k in range(8):
        if k + 1 in forced:
            assert cs.c[k + 1] == 1
        elif cs.N[k] ** 2 <= 2 * f(2 ** (k + 2)):
            assert cs.c[k + 1] == cs.N[k]
        else:
            assert cs.c[k + 1] == (2 * f(2 ** (k + 2))) // cs.N[k]
            forced.add(k + 2)
    for k in range(9):
        assert f(2 ** k) <= cs.N[k] <= 2 * f(2 ** (k + 1))


def test_c_sequence_constant_f():
    f = GrowthTable.from_function(lambda n: 2, 1024)
    cs = build_c_sequence(ErgodicParams(f=f, max_level=8))
    assert cs.c[0] == 1 and len(cs.ones) >= 4
    assert all(2 <= N <= 4 for N in cs.N)


def test_c_sequence_rejects_exponential():
    f = GrowthTable.from_function(lambda n: 2 ** n, 64)
    with pytest.raises(ValueError):
        build_c_sequence(ErgodicParams(f=f, max_level=4))


def test_c_sequence_horizon():
    f = GrowthTable.from_function(lambda n: 2 ** ceil_sqrt(n), 100)
    with pytest.raises(ValueError):
        build_c_sequence(ErgodicParams(f=f, max_level=8))


def test_params_validation():
    with pytest.raises(ValueError):
        ErgodicParams(f=GrowthTable.from_function(lambda n: 1, 64))
    vals = [0] + [2] * 10
    vals[6] = 40                        # breaks submultiplicativity
    with pytest.raises(ValueError):
        ErgodicParams(f=GrowthTable(vals, 10))


def test_params_reject_violation_past_any_sample():
    # f = 2 except f(4097) = 5 fails only at sums 4097, which a sample of
    # pairs of odd numbers never reaches; the decision on pieces finds it
    vals = [0] + [2] * 4097
    vals[4097] = 5
    with pytest.raises(ValueError, match=r"\(m, n\) = \(1, 4096\)"):
        ErgodicParams(f=GrowthTable(vals, 4097), max_level=10)


def test_level_shapes(levels):
    cs = levels.cseq
    for k, lv in enumerate(levels.levels):
        assert len(lv.W) == (2 if k == 0 else cs.N[k - 1])
        assert all(len(w) == 2 ** k for w in lv.W)
        assert len(set(lv.W)) == len(lv.W)
        if lv.C is not None:
            assert len(lv.C) == cs.c[k]
            assert set(lv.C) <= set(lv.W)


def test_level_product_rule(levels):
    for k in range(levels.deepest):
        lv, nxt = levels.levels[k], levels.levels[k + 1]
        assert sorted(nxt.W) == sorted(w + v for w in lv.W for v in lv.C)


def test_queue_consumption_trace(levels):
    consumed = [row for row in levels.run_log if row["consumed_head"]]
    assert [row["k"] for row in consumed] == [0, 4, 6]
    for row in consumed:
        lv = levels.levels[row["k"]]
        assert len(lv.C) == 1 and lv.C[0].startswith(row["queue_head"])
        assert 2 ** row["k"] >= len(row["queue_head"])


def test_queue_lengths(levels):
    # queue grows by |W(k+1)| each step and shrinks by 1 on consumption
    expect = len(levels.levels[0].W)
    for row, lv in zip(levels.run_log, levels.levels):
        assert row["queue_len"] == expect
        if lv.C is not None:
            expect += len(levels.levels[lv.k + 1].W)
            if row["consumed_head"]:
                expect -= 1


def test_seeded_random_policy(params):
    f = params.f
    p = ErgodicParams(f=f, max_level=6, choice_policy="seeded-random", seed=7)
    lv = build_ergodic_levels(p)
    cs = lv.cseq
    for k, l in enumerate(lv.levels):
        assert len(l.W) == (2 if k == 0 else cs.N[k - 1])
    again = build_ergodic_levels(p)
    assert [l.W for l in again.levels] == [l.W for l in lv.levels]


def frequency_interval(levels, u, n):
    """I_n = [min, max] of phi_u over W(n), from one level's extremes."""
    if not (0 <= n <= levels.deepest):
        raise ValueError("level %d not built" % n)
    if len(u) > 2 ** n:
        raise ValueError("|u| must be <= 2^n")
    if len(u) == 0:
        raise ValueError("empty pattern")
    return _interval(u, n, _count_extremes(levels, u, n)[n])


def test_frequency_interval_base(levels):
    iv = frequency_interval(levels, "a", 0)
    assert (iv.a, iv.b) == (Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        frequency_interval(levels, "abc", 1)
    with pytest.raises(ValueError):
        frequency_interval(levels, "", 3)


def test_interval_nesting(levels):
    for u in ("a", "b", "ab", "ba", "aab"):
        rep = verify_interval_nesting(levels, u)
        assert rep["pass"], (u, rep)


def test_interval_nesting_level_9():
    # level 9 is the deepest level of the 2^ceil(sqrt n) table that can be
    # built: W(9) holds 131,072 words of 512 letters, and c_9 = 65,536 would
    # make |W(10)| = N_9 = 2^33
    f = GrowthTable.from_function(lambda n: 2 ** ceil_sqrt(n), 2048)
    deep = build_ergodic_levels(ErgodicParams(f=f, max_level=9))
    assert [len(lv.W) for lv in deep.levels] == [2, 2, 4, 16, 32, 32, 512, 512,
                                                  131072, 131072]
    for u in ("b", "ab"):
        rep = verify_interval_nesting(deep, u)
        assert rep["pass"], rep
        assert rep["levels"][-1] == 9


def test_interval_shrinkage(levels):
    rows = interval_rows(levels, "a")
    deltas = [r[3] for r in rows]
    assert deltas[-1] < deltas[0]
    assert deltas[-1] < Fraction(1, 10)


def test_decompose_single_block(levels):
    w = levels.W(3)[5]
    d = decompose_factor(levels, w)
    assert d["blocks"] == [(3, w)] and d["r"] == 0 and d["s"] == 1


def test_prefix_blocks_binary_expansion(levels):
    # |v| = 2^2 + 2^0 = 5: a proper prefix of a W(3) word splits W(2), W(0)
    w = levels.W(3)[0]
    blocks = _prefix_blocks(w[:5], levels)
    assert [m for m, _ in blocks] == [2, 0]
    blocks = _suffix_blocks(w[-5:], levels)
    assert [m for m, _ in blocks] == [0, 2]


def test_decompose_never_lists_the_deepest_level(params):
    lv = build_ergodic_levels(params)
    w = lv.W(7)[3] + lv.levels[7].C[1]      # a W(8) word, built by hand
    d = decompose_factor(lv, w[100:200])
    assert d["minimal_level"] == 8
    assert "".join(x for _, x in d["blocks"]) == w[100:200]
    assert decompose_factor(lv, w)["blocks"] == [(8, w)]
    assert lv.levels[-1]._W is None


def test_deepest_level_built_on_first_read(params):
    lv = build_ergodic_levels(params)
    deep = lv.levels[lv.deepest]
    assert vars(deep)["_W"] is None         # no W(K) list at set-up
    assert [row["W_size"] for row in lv.run_log] == [2] + lv.cseq.N[:-1]
    words = lv.W(8)
    assert lv.W(8) is words
    assert words == sorted(w + c for w in lv.W(7) for c in lv.levels[7].C)
    with pytest.raises(AttributeError):
        deep.W = words


def test_deepest_level_budget_checked_before_allocating(params):
    # levels 0..7 take about 160 KB; the 131,072 words of W(8) about 41 MB
    lv = build_ergodic_levels(ErgodicParams(f=params.f, max_level=8,
                                            max_bytes=10 ** 6))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^budget: W\\(8\\) needs"):
            lv.W(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def test_levels_budget_checked_before_allocating(params):
    # levels 0..7 take about 160 KB as word lists
    small = ErgodicParams(f=params.f, max_level=8, max_bytes=10 ** 5)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^budget: levels need about"):
            build_ergodic_levels(small)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 5


def test_decompose_random_windows(levels):
    rng = random.Random(0)
    for _ in range(300):
        w = rng.choice(levels.W(5))
        i = rng.randrange(0, 31)
        j = rng.randrange(i + 1, 33)
        d = decompose_factor(levels, w[i:j])
        got = "".join(x for _, x in d["blocks"])
        assert got == w[i:j]


def test_decompose_refuses_a_split_suffix_block(levels, monkeypatch):
    # were the 2^2 suffix block aaaa of aaaaa no W(2) word, it would split
    # into the two W(1) blocks aa, aa, whose levels do not increase
    assert decompose_factor(levels, "aaaaa")["blocks"] == [(2, "aaaa"), (0, "a")]
    real = type(levels).is_word
    monkeypatch.setattr(type(levels), "is_word",
                        lambda self, m, u: u != "aaaa" and real(self, m, u))
    with pytest.raises(AssertionError, match="^u-block levels are not increasing$"):
        decompose_factor(levels, "aaaaa")


def test_decompose_not_a_factor(levels):
    with pytest.raises(ValueError):
        decompose_factor(levels, "zz")
    with pytest.raises(ValueError):
        decompose_factor(levels, "")


def _junctions(levels, ks, r):
    """Sorted distinct junction strings s_r(w) p_r(c), w in W(k), c in C(k),
    over the levels k in ks.  r is taken >= 1: w[-0:] would be all of w, and
    at r = 1 the length-1 windows are still letters of W(k+1) words."""
    r = max(r, 1)
    parts = [({w[-r:] for w in levels.W(k)}, {c[:r] for c in levels.levels[k].C})
             for k in ks]
    return sorted({s + p for sufs, pres in parts for s in sufs for p in pres})


def _census_counts(levels, depth, cap):
    """counts[n], 1 <= n <= cap: distinct length-n factors of the W(depth)
    words, from one census of the junction strings of levels < depth; the
    second counting route, and the oracle for _factor_counts."""
    host = "|".join(_junctions(levels, range(depth), cap - 1))
    return WindowCensus(host, cap, separators="|",
                        max_bytes=levels.params.max_bytes).counts


def test_language_complexity_labels(levels):
    deep, prev = _census_counts(levels, 8, 64), _census_counts(levels, 7, 64)
    for n in range(1, 65):
        assert _factor_counts(levels, n) == (prev[n], deep[n]), n
    # p(64) is far from stable between depths 7 and 8
    assert (prev[64], deep[64]) == (1936, 7040)
    row = verify_sandwich(levels, k_max=6)[6]
    assert (row["p_prev"], row["p_built"], row["label"]) == (1936, 7040, "lower bound")


def test_sandwich(levels):
    # the default rows are k <= K-2, each with an integer count at depths
    # K-1 and K; none passes without a count
    rep = verify_sandwich(levels)
    assert all(row["lower_ok"] and row["count_ok"] for row in rep.values())
    assert sorted(rep) == list(range(levels.deepest - 1))
    for k, row in rep.items():
        assert type(row["p_built"]) is int and type(row["p_prev"]) is int, k
        assert row["W_k"] <= row["p_built"] <= 2 ** k * row["W_k1"]
        assert row["p_prev"] <= row["p_built"]


def test_sandwich_top_row_counted_at_small_depth(params):
    lv = build_ergodic_levels(ErgodicParams(f=params.f, max_level=6))
    rep = verify_sandwich(lv, k_max=5)
    assert sorted(rep) == list(range(6))
    assert rep[5]["p_prev"] == len(lv.W(5))       # vacuous at depth K-1
    assert all(type(row["p_built"]) is int and row["count_ok"]
               for row in rep.values())
    with pytest.raises(ValueError, match="k_max >= 0"):
        verify_sandwich(lv, k_max=-1)


def test_sandwich_top_row_refused_by_budget(params):
    # row K-1 at K = 8 counts p(128) from split products in a few MB; a
    # 1 MiB budget refuses it before its factor set passes the budget
    lv = build_ergodic_levels(ErgodicParams(f=params.f, max_level=8,
                                            max_bytes=256 * 2 ** 20))
    tracemalloc.start()
    try:
        rep = verify_sandwich(lv, k_max=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep[7]["p_prev"], rep[7]["p_built"]) == (512, 31008)
    assert peak < 16 * 2 ** 20
    lv.params.max_bytes = 2 ** 20
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^budget: "):
            verify_sandwich(lv, k_max=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def test_junction_strings_checked_against_budget(params):
    # the frequency deviation at n = 5 reads the length-32 windows of the
    # split products of levels 4..7; the first products hold up to 80 of
    # them, about 12 KB as set members
    lv = build_ergodic_levels(ErgodicParams(f=params.f, max_level=8))
    lv.params.max_bytes = 10 ** 4
    with pytest.raises(ValueError, match="^budget: up to 80 factors of 32 letters"):
        verify_frequency_deviation(lv, "ab", 5)


def test_frequency_deviation(levels):
    for u, n in (("a", 3), ("a", 4), ("ab", 4)):
        rep = verify_frequency_deviation(levels, u, n)
        assert rep["pass"], rep
    with pytest.raises(ValueError):
        verify_frequency_deviation(levels, "a", levels.deepest)


def test_frequency_deviation_n5(levels):
    # the values of the scan over every W(8) word
    rep = verify_frequency_deviation(levels, "ab", 5)
    assert (rep["mid"], rep["t_star"], rep["bound"], rep["max_deviation"],
            rep["pass"]) == ("1/16", 1, "9/8", "3/32", True)


# ---------------------------------------------------------------------------
# junction windows against direct scans of every word

def _set_counts(words, cap):
    """Distinct length-n windows of the words for n = 1..cap, as a set."""
    return [len({w[i:i + n] for w in words for i in range(len(w) - n + 1)})
            for n in range(1, cap + 1)]


def _per_word_extremes(words, u, N):
    """(min, max) of Phi_u over the length-N windows, one word at a time."""
    d = len(u)
    pat = np.frombuffer(u.encode("latin1"), dtype=np.uint8)
    lo_phi, hi_phi = None, None
    for w in words:
        arr = np.frombuffer(w.encode("latin1"), dtype=np.uint8)
        hits = np.ones(len(arr) - d + 1, dtype=bool)
        for j in range(d):
            hits &= arr[j:len(arr) - d + 1 + j] == pat[j]
        cs = np.concatenate(([0], np.cumsum(hits)))
        counts = cs[N - d + 1:len(arr) - d + 2] - cs[:len(arr) - N + 1]
        lo = int(counts.min())
        hi = int(counts.max())
        lo_phi = lo if lo_phi is None else min(lo_phi, lo)
        hi_phi = hi if hi_phi is None else max(hi_phi, hi)
    return lo_phi, hi_phi


@pytest.fixture(scope="module", params=["lexicographic", "seeded-random", "const-2"])
def family(request, params, levels):
    if request.param == "seeded-random":
        return build_ergodic_levels(ErgodicParams(
            f=params.f, max_level=8, choice_policy="seeded-random", seed=3))
    if request.param == "const-2":
        return build_ergodic_levels(ErgodicParams(
            f=GrowthTable.from_function(lambda n: 2, 1024), max_level=8))
    return levels


def test_language_counts_match_set_of_windows(family):
    for K in range(2, 8):
        lv = replace(family, levels=family.levels[:K + 1])      # deepest K
        cap = 2 ** (K - 2)
        got = [_factor_counts(lv, n) for n in range(1, cap + 1)]
        assert [deep for _, deep in got] == _set_counts(lv.W(K), cap), K
        assert [prev for prev, _ in got] == _set_counts(lv.W(K - 1), cap), K


@st.composite
def _growth_tables(draw, n_max=256):
    """Nondecreasing tables of up to four linear pieces on 1..n_max with
    f(1) in {2, 3}: slopes in 0..2, and a step up of 0..2 where a piece
    starts."""
    los = [1] + sorted(draw(st.sets(st.integers(2, n_max), max_size=3)))
    pieces, at = [], draw(st.sampled_from([2, 3]))      # f at the piece's lo
    for lo, hi in zip(los, los[1:] + [n_max + 1]):
        b = draw(st.integers(0, 2))
        pieces.append((lo, 0, b, at - b * lo))
        at += b * (hi - lo) + draw(st.integers(0, 2))
    return GrowthTable.from_pieces(pieces, n_max)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(f=_growth_tables(), K=st.integers(3, 6),
       policy=st.sampled_from(["lexicographic", "seeded-random"]),
       seed=st.integers(0, 3))
def test_factor_counts_match_set_of_windows_on_drawn_tables(f, K, policy, seed):
    try:
        lv = build_ergodic_levels(ErgodicParams(f=f, max_level=K,
                                                choice_policy=policy, seed=seed))
    except ValueError:
        assume(False)           # not submultiplicative, or no c_k = 1 by K
    cap = 2 ** (K - 2)
    deep, prev = _set_counts(lv.W(K), cap), _set_counts(lv.W(K - 1), cap)
    for n in range(1, cap + 1):
        assert _factor_counts(lv, n) == (prev[n - 1], deep[n - 1]), n


@settings(max_examples=100, deadline=None, derandomize=True)
@given(f=_growth_tables(), K=st.integers(3, 6),
       policy=st.sampled_from(["lexicographic", "seeded-random"]),
       seed=st.integers(0, 3), data=st.data())
def test_window_extremes_match_per_word_scan_on_drawn_tables(f, K, policy, seed,
                                                             data):
    # u is a letter or a window of a W(n+3) word, so its counts are not all 0
    try:
        lv = build_ergodic_levels(ErgodicParams(f=f, max_level=K,
                                                choice_policy=policy, seed=seed))
    except ValueError:
        assume(False)           # not submultiplicative, or no c_k = 1 by K
    n = data.draw(st.integers(0, K - 3))
    words = lv.W(n + 3)
    w = words[data.draw(st.integers(0, len(words) - 1))]
    d = data.draw(st.integers(1, 2 ** n))
    i = data.draw(st.integers(0, len(w) - d))
    for u in (w[i:i + d], lv.alphabet[-1]):
        assert _window_extremes(lv, u, n) == _per_word_extremes(words, u, 2 ** n), u


def test_window_extremes_match_per_word_scan(family):
    # every u over {a, b} of length <= 5 (SHORT, below); dropping the level
    # n+2 junctions changes only (lexicographic, n = 3, u = aaab) here
    for n in range(5):
        for u in SHORT:
            if len(u) <= 2 ** n:
                want = _per_word_extremes(family.W(n + 3), u, 2 ** n)
                assert _window_extremes(family, u, n) == want, (n, u)


# ---------------------------------------------------------------------------
# the level recursion for Phi_u against direct counts over every word

SHORT = ["".join(x) for L in range(1, 6) for x in itertools.product("ab", repeat=L)]


def _short_extremes(words, chunk=1024):
    """(min, max) over words of the occurrence counts of every u in SHORT,
    counted directly in one numpy pass.  Each word gets cccc appended, and
    each start position the base-3 code (a=0, b=1, c=2) of the five letters
    from it; u occurs there iff the code's leading |u| digits spell u, a
    range of codes.  (count_occurrences would make 32M find calls for u = a
    over W(8).)"""
    digit = np.zeros(256, dtype=np.int32)
    digit[ord("b")], digit[ord("c")] = 1, 2
    width = len(words[0])
    lo, hi = {}, {}
    for s in range(0, len(words), chunk):
        part = words[s:s + chunk]
        text = np.frombuffer("".join(w + "cccc" for w in part).encode(), np.uint8)
        d = digit[text].reshape(len(part), width + 4)
        code = np.zeros((len(part), width), dtype=np.int32)
        for j in range(5):
            code = 3 * code + d[:, j:j + width]
        code += 243 * np.arange(len(part), dtype=np.int32)[:, None]
        cum = np.zeros((len(part), 244), dtype=np.int64)
        cum[:, 1:] = np.bincount(code.ravel(), minlength=243 * len(part)) \
            .reshape(len(part), 243).cumsum(axis=1)
        for u in SHORT:
            span = 3 ** (5 - len(u))
            first = int(u.replace("a", "0").replace("b", "1"), 3) * span
            counts = cum[:, first + span] - cum[:, first]
            lo[u] = min(lo.get(u, width), int(counts.min()))
            hi[u] = max(hi.get(u, 0), int(counts.max()))
    return {u: (lo[u], hi[u]) for u in SHORT}


@pytest.mark.parametrize("family", ["lexicographic", "seeded-random", "const-2"])
def test_count_recursion_matches_direct_counts(params, levels, family):
    lv = levels
    if family == "seeded-random":
        lv = build_ergodic_levels(ErgodicParams(
            f=params.f, max_level=8, choice_policy="seeded-random", seed=11))
    elif family == "const-2":
        lv = build_ergodic_levels(ErgodicParams(
            f=GrowthTable.from_function(lambda n: 2, 1024), max_level=8))
    assert lv.alphabet == "ab" and lv.deepest == 8
    rec = {u: _count_extremes(lv, u, 8) for u in SHORT}
    for k in range(9):
        direct = _short_extremes(lv.W(k))
        assert {u: rec[u][k] for u in SHORT} == direct, (family, k)
    # lengths whose d - 1 exceeds 2^k at shallow levels (9, 17) or equals a
    # word length (2^m), cut from a level-7 word, and letters outside {a, b};
    # checked through level 7, where count_occurrences stays cheap
    rng = random.Random(5)
    longs = ["c", "abcab"]
    for d in [9, 17] + [2 ** m for m in range(3, 8)]:
        w = rng.choice(lv.W(7))
        i = rng.randrange(len(w) - d + 1)
        longs.append(w[i:i + d])
    for u in longs:
        direct = [(min(c), max(c)) for k in range(8)
                  for c in [[count_occurrences(u, w) for w in lv.W(k)]]]
        assert _count_extremes(lv, u, 7) == direct, (family, u)


# a decomposition through a level whose word "ba" was corrupted to "bb";
# run under python -O, where an assert would be stripped
_CORRUPTED_LEVEL = """
import sys
from wordlab import cli, ergodic_subshift as es

real = es.build_ergodic_levels

def corrupted(params):
    levels = real(params)
    levels.levels[1].W = ["aa", "bb"]
    return levels

es.build_ergodic_levels = corrupted
sys.exit(cli.parse_and_dispatch(["ergodic", "--max-level", "4", "decompose",
                                 "--word", "abaaaba"]))
"""


def test_corrupted_level_fails_under_python_O(run_python_O):
    proc = run_python_O(_CORRUPTED_LEVEL)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    doc = json.loads(proc.stderr)
    assert doc["witness"] == {"failed_assertion": "suffix block is not in W(1)"}
