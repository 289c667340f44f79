import json
import random
from collections import Counter

import pytest

from wordlab.xk_words import (
    XkOracle,
    _decodes_as_xi,
    XkParams,
    build_xk_levels,
    checkpoints,
    de_bruijn_pairs,
    spike_parameters,
    verify_xk_structure,
    xk_complexity_table,
)


def xk_factor_set(oracle, n):
    """Oracle: L_w(n) as the set of length-n windows of the smallest
    explicit search host that covers n."""
    host = oracle.search_host(oracle._host_level_for(n))
    return frozenset(host[i:i + n] for i in range(len(host) - n + 1))


def zero_joined_host(oracle, d):
    """Oracle: w_1 0^{n_d} w_2 0^{n_d} ... w_s 0^{n_d} w_1 over the X_d words,
    whose length-n windows for n <= n_d are exactly L_w(n)."""
    lv = oracle.level(d)
    zeros = "0" * lv.n
    return zeros.join(lv.words) + zeros + lv.words[0]


@pytest.fixture(scope="module")
def oracle():
    # levels up to X_5 explicit: plenty for every small-scale check here
    return XkOracle(XkParams(r=2, max_level=5))


def test_checkpoints():
    assert checkpoints(2, 100) == [2, 5, 17, 65]
    assert checkpoints(3, 100) == [2, 9, 65]
    assert checkpoints(2, 4) == [2]


def test_level_shapes(oracle):
    ns = [oracle.level(k).n for k in range(1, 6)]
    ss = [oracle.level(k).s for k in range(1, 6)]
    phases = [oracle.level(k).phase for k in range(1, 6)]
    assert ns == [1, 3, 9, 27, 81]
    assert ss == [2, 4, 16, 256, 256]
    assert phases == ["base", "squaring", "squaring", "squaring", "chained"]


def test_s_values_deep():
    # r=2 checkpoints 2, 5, 17: squaring at 3,4 then 6,7, chained between
    lv = build_xk_levels(XkParams(r=2, max_level=8))
    assert [lv[k].s for k in range(1, 9)] == [2, 4, 16, 256, 256, 65536, 2**32, 2**32]
    assert lv[6].phase == "squaring" and lv[8].phase == "chained"
    assert lv[8].words is None or lv[8].s * lv[8].n <= 2 * 2**30


def test_x2_words(oracle):
    assert oracle.level(2).words == ["101", "102", "201", "202"]
    # X_3 = X_2 0^3 X_2, all 16 pairs
    x3 = oracle.level(3).words
    assert len(x3) == 16 and x3[0] == "101000101"
    assert all(len(w) == 9 for w in x3)


def test_chained_level(oracle):
    # X_5 chains consecutive X_4 words cyclically; same count, triple length
    x4, x5 = oracle.level(4).words, oracle.level(5).words
    assert len(x5) == len(x4) == 256
    assert all(len(w) == 81 for w in x5)
    joined = set(x5)
    for i in range(len(x4)):
        assert x4[i] + "0" * 27 + x4[(i + 1) % 256] in joined


def test_factor_sets_small(oracle):
    f1 = xk_factor_set(oracle, 1)
    assert f1 == frozenset("012")
    f3 = xk_factor_set(oracle, 3)
    assert "000" in f3 and "101" in f3 and "111" not in f3
    assert len(f3) == oracle.complexity(3)


def test_complexity_small_against_brute(oracle):
    # brute force: all length-9 windows of all X_4 words are exactly L_w(9)
    host = oracle.search_host(3)
    brute = set(host[i:i + 9] for i in range(len(host) - 8))
    assert oracle.complexity(9) == len(brute) == 85
    assert oracle.complexity(3) <= 48


def test_complexity_lower_upper(oracle):
    prev = 1
    for n in range(1, 82):
        p = oracle.complexity(n)
        assert p >= n + 1          # aperiodic: Morse-Hedlund floor
        assert p >= prev
        prev = p
    tab = xk_complexity_table(oracle, 1, 40)
    assert all(tab["bound_alpha_2r_ok"].values())
    assert all(tab["p_prime"][n] >= 1 for n in range(2, 41))


def test_complexity_table_raises_at_first_failing_n(oracle, monkeypatch):
    # p(n) = 10^12 n breaks the growth bound from n = 1 on
    class Inflated:
        def count(self, n):
            return 10**12 * n

    monkeypatch.setattr(oracle, "census", lambda cap: Inflated())
    with pytest.raises(AssertionError, match=r"^p\(2\) = 2000000000000 exceeds"):
        xk_complexity_table(oracle, 2, 5)


def test_complexity_submultiplicative(oracle):
    for m in (1, 2, 3, 5, 9):
        for n in (1, 2, 3, 5, 9):
            assert oracle.complexity(m + n) <= oracle.complexity(m) * oracle.complexity(n)


def test_cross_level_consistency(oracle):
    # the same factor set must come out of any sufficiently deep host
    for n in (2, 5, 9):
        d = oracle.min_sufficient_level(n)
        a = set(oracle.search_host(d)[i:i + n]
                for i in range(len(oracle.search_host(d)) - n + 1))
        b = set(oracle.search_host(d + 1)[i:i + n]
                for i in range(len(oracle.search_host(d + 1)) - n + 1))
        assert a == b


def test_contains(oracle):
    assert oracle.contains("")
    assert oracle.contains("000000000")
    assert oracle.contains("102000201")
    assert not oracle.contains("110")
    with pytest.raises(ValueError):
        oracle.contains("0" * (3**5))


def test_structure_report(oracle):
    rep = verify_xk_structure(oracle)
    assert all(rep["boundary_letters"].values())
    assert all(rep["extension"].values())
    assert all(ok for by_d in rep["pushdown"].values() for ok in by_d.values())


def test_spike_parameters(oracle):
    t, s, n, window = spike_parameters(oracle, 1)
    assert (t, s, n) == (27, 256, 81)
    assert window == (82, 162)
    with pytest.raises(ValueError):
        spike_parameters(oracle, 0)


def test_decodes_as_xi(oracle):
    words = set(oracle.level(2).words)      # t = 3, n = 9 below
    xi = ["0" * i + u + "0" * 9 + v + "0" * (3 - i)
          for u in words for v in words for i in range(4)]
    assert all(_decodes_as_xi(e, words, 9, 3) for e in xi)
    assert len(set(xi)) == 4 * 4 * 4                   # (t+1) s^2, all distinct
    z9 = "0" * 9
    for bad in ("0000202" + z9 + "20",                  # t+1 leading zeros
                "0202000010000202" + "00",              # a nonzero letter in 0^n
                "0202" + z9 + "20201",                  # trailing 0^(t-i) broken
                "0111" + z9 + "20200",                  # u not a word
                "0202" + z9 + "11100"):                 # v not a word
        assert not _decodes_as_xi(bad, words, 9, 3), bad


def test_params_validation():
    with pytest.raises(ValueError):
        XkParams(r=1)
    with pytest.raises(ValueError):
        XkOracle(XkParams(r=2, max_level=5)).level(9)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 256])
def test_de_bruijn_pairs(k):
    seq = de_bruijn_pairs(k)
    pairs = Counter(zip(seq, seq[1:] + seq[:1]))
    assert len(seq) == k * k
    assert pairs == Counter((a, b) for a in range(k) for b in range(k))


def test_squaring_hosts_match_zero_joined_hosts(oracle):
    for d in (2, 3, 4):
        assert oracle.level(d).phase == "squaring"
        old, new = zero_joined_host(oracle, d), oracle.search_host(d)
        assert len(new) < len(old)
        for n in range(1, oracle.level(d).n + 1):
            assert ({old[i:i + n] for i in range(len(old) - n + 1)}
                    == {new[i:i + n] for i in range(len(new) - n + 1)}), (d, n)


@pytest.fixture(scope="module")
def oracle6():
    return XkOracle(XkParams(r=2, max_level=6))


def test_level6_contains_agrees_with_zero_joined_host(oracle6):
    # contains sends every length in (81, 243] to the level-6 host
    old = zero_joined_host(oracle6, 6)
    assert len(oracle6.search_host(6)) == 10_761_715 and len(old) == 31_850_739
    rng = random.Random(6)
    factors = []
    for _ in range(48):
        n = rng.randint(163, 243)
        i = rng.randrange(len(old) - n + 1)
        factors.append(old[i:i + n])
    # X_6 words with one zero on a side, among them the pairs at the two
    # ends of the de Bruijn cycle: its first (a_0, a_0) and its closing
    # (a_255, a_0)
    x5, z81 = oracle6.level(5).words, "0" * 81
    for i, j in [(0, 0), (255, 0), (0, 255)] + [(rng.randrange(256), rng.randrange(256))
                                                for _ in range(8)]:
        x = x5[i] + z81 + x5[j]
        factors += ["0" + x[:242], x[1:] + "0"]
    # in w, every X_k word with k <= 4 has a 0-run shorter than 82 on a side
    non_factors = ["11"]
    for k in (1, 2, 3, 4):
        for a in rng.sample(oracle6.level(k).words, 2):
            j = rng.randint(82, 243 - 82 - len(a))
            non_factors.append("0" * j + a + "0" * rng.randint(82, 243 - j - len(a)))
    assert all(u in old for u in factors)
    assert not any(u in old for u in non_factors)
    assert all(oracle6.contains(u) for u in factors)
    assert not any(oracle6.contains(u) for u in non_factors)


def test_one_census_per_host_level(oracle6):
    # caps from the largest down: each level's census is built at its first
    # (largest) cap, and every smaller cap on that level reads it
    built = {}
    for cap in (243, 162, 82, 81, 28, 27, 10, 9, 4, 3, 1):
        d = oracle6.min_sufficient_level(cap)
        census = oracle6.census(cap)
        assert census.host is oracle6.search_host(d), cap
        assert census.cap >= cap
        assert built.setdefault(d, census) is census, cap
    assert sorted(built) == [1, 2, 3, 4, 5, 6]
    assert oracle6.complexity(200) == built[6].count(200)
    # a larger cap on a built level replaces its census
    small = XkOracle(XkParams(r=2, max_level=4))
    first = small.census(4)
    assert (first.cap, small.census(9).cap) == (4, 9)
    assert small.census(9) is not first and small.census(5) is small.census(9)


def test_spike_parameters_second_checkpoint(oracle):
    # k_2 = 5 and k_3 = 17 at r = 2: t = n_7, s = s_7 = 2^32 after the
    # squarings at levels 2-4 and 6-7, n = n_17; a closed form, no level 17
    assert spike_parameters(oracle, 2) == (729, 2**32, 3**16,
                                           (43046722, 43048908))


# levels built as usual, then corrupted through the patch below; each
# command runs under python -O, where an assert would be stripped
_CORRUPTED_LEVELS = """
import sys
from wordlab import cli, xk_words as xk

real = xk.build_xk_levels

def corrupted(params):
    levels = real(params)
    %s
    return levels

xk.build_xk_levels = corrupted
sys.exit(cli.parse_and_dispatch(%r))
"""


def _corrupted_run(run_python_O, patch, argv):
    proc = run_python_O(_CORRUPTED_LEVELS % (patch, argv))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    return json.loads(proc.stderr)["witness"]["failed_assertion"]


def test_spike_family_b_fails_under_python_O(run_python_O):
    # without a_7 0^27 a_8 no X_5 word starts with a_7 0^27, so the pairs
    # (a_7, v) of X_4 words are not all in L_w
    msg = _corrupted_run(run_python_O, "del levels[5].words[7]",
                         ["xk", "--max-level", "6", "verify-spike"])
    assert msg.startswith("family B: no X_5 word ends in 0^t u, or none "
                          "starts with u 0^t, for u = "), msg


def test_structure_pushdown_fails_under_python_O(run_python_O):
    # an X_4 word whose length-9 prefix is no X_3 word, though it keeps its
    # boundary letters and every other X_4 word keeps the extension fact
    msg = _corrupted_run(
        run_python_O,
        "levels[4].words[5] = '1' * 9 + levels[4].words[5][9:]",
        ["xk", "--max-level", "4", "verify-structure"])
    assert msg == "pushdown fails: level 4 prefixes at depth 3"
