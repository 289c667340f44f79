import json
import random
import tracemalloc
from collections import Counter

import pytest

from wordlab import words_core
from wordlab.cli import parse_and_dispatch
from wordlab.words_core import WindowCensus
from wordlab.xk_words import (
    XkLevel,
    XkOracle,
    XkParams,
    _heads_and_tails,
    build_xk_levels,
    checkpoints,
    spike_parameters,
    verify_xk_structure,
    xk_complexity_table,
)


def xk_factor_set(oracle, n):
    """Oracle: L_w(n) as the set of length-n windows of the smallest
    explicit search host that covers n."""
    host = oracle.search_host(oracle._host_level_for(n))
    return frozenset(host[i:i + n] for i in range(len(host) - n + 1))


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


def de_bruijn_host(oracle, d):
    """Oracle: a shorter string with the length-n windows, n <= n_d, of the
    zero-joined search host at a squaring level d.  The s = s_{d-1} words
    a_0 < ... < a_{s-1} of X_{d-1} are joined by Z = 0^{n_{d-1}} in the
    order of the de Bruijn cycle e = B(s, 2), closed by its first two words,
        a_{e_0} Z a_{e_1} Z ... Z a_{e_{s^2-1}} Z a_{e_0} Z a_{e_1},
    so every X_d word a Z b occurs with n_{d-1} zeros or more on both sides,
    then come the X_{d-1} words padded as in `padded_host(d)`, which hold
    the windows with zeros on both sides of a whole X_{d-1} word.  A window
    of length n_d = 3 n_{d-1} or less cannot reach from one cycle word over
    the next whole one to a third.  At d = 6 it is 10,761,715 chars, where
    the zero-joined X_6 words take 31,850,739; its census at cap 243 takes
    half the time and 40 % of the memory of theirs."""
    words = oracle.level(d - 1).words
    e = de_bruijn_pairs(len(words))
    return (("0" * oracle.level(d - 1).n).join(words[i] for i in e + e[:2])
            + oracle.padded_host(d))


def _decodes_as_xi(e, wordset, n, t):
    """Oracle: is e = 0^i u 0^n v 0^(t-i) with u, v in wordset and
    0 <= i <= t?  The words start with a nonzero letter, so i is the number
    of leading zeros and the decoding is unique."""
    i = len(e) - len(e.lstrip("0"))
    return (i <= t and e[i:i + t] in wordset
            and e[i + t:i + t + n] == "0" * n
            and e[i + t + n:i + 2 * t + n] in wordset
            and e[i + 2 * t + n:] == "0" * (t - i))


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
    monkeypatch.setattr(oracle, "level_complexity", lambda d, n: 10**12 * n)
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


def test_heads_and_tails_check_each_side():
    # the 0^n after a head and the 0^n before a tail are read apart; a head
    # or tail that is no parent word is the key None
    parent = XkLevel(k=1, n=1, s=2, phase="base", words=["1", "2"])
    level = XkLevel(k=2, n=3, s=3, phase="squaring", words=["102", "211", "302"])
    assert _heads_and_tails(level, parent) == (
        {"1": True, "2": False, None: True}, {"2": True, "1": False}, False)
    level.words.pop()
    assert _heads_and_tails(level, parent)[2]


def test_structure_check_holds_no_word_copies():
    # r = 3 lists 65,536 words at each of levels 5-7 (81 to 729 letters);
    # the check reads them in place and keeps references to X_k words only
    oracle = XkOracle(XkParams(r=3, max_level=7))
    tracemalloc.start()
    try:
        verify_xk_structure(oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


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
    # the de Bruijn oracle host against the search host, which is the
    # zero-joined X_d words at every level
    for d in (2, 3, 4):
        assert oracle.level(d).phase == "squaring"
        old, new = oracle.search_host(d), de_bruijn_host(oracle, d)
        assert len(new) < len(old)
        for n in range(1, oracle.level(d).n + 1):
            assert ({old[i:i + n] for i in range(len(old) - n + 1)}
                    == {new[i:i + n] for i in range(len(new) - n + 1)}), (d, n)


@pytest.fixture(scope="module")
def oracle6():
    return XkOracle(XkParams(r=2, max_level=6))


def test_level6_contains_agrees_with_zero_joined_host(oracle6):
    # contains sends every length in (81, 243] to level 6, where it reads
    # the padded X_5 words; search_host(6) is the zero-joined X_6 words
    host = oracle6.search_host(6)
    assert len(host) == 31_850_739
    rng = random.Random(6)
    factors = []
    for _ in range(48):
        n = rng.randint(163, 243)
        i = rng.randrange(len(host) - n + 1)
        factors.append(host[i:i + n])
    # X_6 words with one zero on a side, among them the first and last
    # X_5 words on either side of 0^81
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
    # between letters of X_5 words: a run of 82 to 160 zeros, or two of 81
    for _ in range(8):
        a, b, c = (rng.choice(x5) for _ in range(3))
        run = rng.randint(82, 160)
        i = rng.randint(1, 242 - run)
        non_factors.append(a[-i:] + "0" * run + b[:rng.randint(1, 243 - run - i)])
        y = c[:rng.randint(1, 79)].rstrip("0")
        i = rng.randint(1, 80 - len(y))
        non_factors.append(a[-i:] + z81 + y + z81 + b[:rng.randint(1, 81 - len(y) - i)])
    assert all(82 <= len(u) <= 243 for u in factors + non_factors[1:])
    assert all(u in host for u in factors)
    assert not any(u in host for u in non_factors)
    assert all(oracle6.contains(u) for u in factors)
    assert not any(oracle6.contains(u) for u in non_factors)


def test_one_census_per_host_level(oracle6):
    # lengths from the largest down: each level's census is built once, at
    # cap n_d, over the padded words at a squaring level and over the search
    # host otherwise, and every later length on that level reads it
    built = {}
    for n in (243, 162, 82, 81, 28, 27, 10, 9, 4, 3, 1):
        d = oracle6.min_sufficient_level(n)
        oracle6.complexity(n)
        census = oracle6.level_census(d)
        assert built.setdefault(d, census) is census, n
        assert census.cap == oracle6.level(d).n
        if oracle6.level(d).phase == "squaring":
            assert census.host == oracle6.padded_host(d), n
        else:
            assert census.host is oracle6.search_host(d), n
    assert sorted(built) == [1, 2, 3, 4, 5, 6]
    assert [len(built[d].host) for d in (5, 6)] == [41_553, 144_640]


def test_level6_product_matches_search_host_census(oracle6):
    # the census of the 10,761,715-char de Bruijn host of level 6, whose
    # windows are those of search_host(6): p(n) at n = 82..243, where the
    # level-6 product answers, agrees with it
    census = WindowCensus(de_bruijn_host(oracle6, 6), 243)
    assert [oracle6.complexity(n) for n in range(82, 244)] == \
        [census.count(n) for n in range(82, 244)]
    assert oracle6.level_complexity(6, 81) == census.count(81) == 29193


_SMALL_ORACLES = {r: XkOracle(XkParams(r=r, max_level=4)) for r in (2, 3)}


def test_small_levels_coincide_at_r2_and_r3():
    # levels 1-4 are squaring levels at both r: the r = 2 and r = 3 cases
    # below read the same words
    assert [(lv.phase, lv.words) for lv in _SMALL_ORACLES[2].levels[1:]] == \
        [(lv.phase, lv.words) for lv in _SMALL_ORACLES[3].levels[1:]]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_product_matches_search_host_census_at_every_length(r, d):
    # oracle: the census of the level-d search host, at every n <= n_d
    oracle = _SMALL_ORACLES[r]
    lv = oracle.level(d)
    assert lv.phase == "squaring"
    census = WindowCensus(oracle.search_host(d), lv.n)
    expected = [census.count(n) for n in range(1, lv.n + 1)]
    assert [oracle.level_complexity(d, n) for n in range(1, lv.n + 1)] == expected
    assert [oracle.complexity(n) for n in range(1, lv.n + 1)] == expected


def _seeded_non_factors(oracle, d, rng):
    """Non-factors of length in (n_{d-1}, n_d], the lengths that contains
    reads at level d, built from X_{d-1} words a, b, c with m = n_{d-1}: a
    run of m+1 to 2m zeros between nonzero letters, two runs of exactly m,
    a run cut to m-1, and a foreign letter in a factor."""
    words, m, n_d = oracle.level(d - 1).words, oracle.level(d - 1).n, oracle.level(d).n
    out = []
    for _ in range(6):
        a, b, c = (rng.choice(words) for _ in range(3))
        for run in range(m + 1, min(2 * m, n_d - 2) + 1):
            i = rng.randint(1, n_d - run - 1)
            out.append(a[-i:] + "0" * run + b[:rng.randint(1, n_d - run - i)])
        if 2 * m + 3 <= n_d:
            y = c[:rng.randint(1, n_d - 2 * m - 2)].rstrip("0")
            i = rng.randint(1, n_d - 2 * m - len(y) - 1)
            out.append(a[-i:] + "0" * m + y + "0" * m
                       + b[:rng.randint(1, n_d - 2 * m - len(y) - i)])
        i = rng.randint(1, n_d - m)
        out.append(a[-i:] + "0" * (m - 1) + b[:rng.randint(1, n_d - m + 1 - i)])
        u = a + "0" * m + b
        j = rng.randrange(len(u) - n_d + 1)
        u = u[j:j + rng.randint(m + 1, n_d)]
        k = rng.randrange(len(u))
        out.append(u[:k] + rng.choice("3|") + u[k + 1:])
    assert all(m < len(u) <= n_d for u in out)
    return out


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_contains_agrees_with_search_host(r, d):
    # two routes to membership: contains, which reads the padded X_{d-1}
    # words through the pair rule at a squaring level, and a substring
    # search of the zero-joined X_d words
    oracle = _SMALL_ORACLES[r]
    assert oracle.level(d).phase == "squaring"
    host, n_d = oracle.search_host(d), oracle.level(d).n
    for n in range(1, n_d + 1):
        windows = {host[i:i + n] for i in range(len(host) - n + 1)}
        assert all(oracle.contains(u) for u in windows), n
    rng = random.Random(100 * r + d)
    non_factors = _seeded_non_factors(oracle, d, rng)
    assert not any(u in host for u in non_factors)
    assert not any(oracle.contains(u) for u in non_factors)
    # windows with one or two letters redrawn: factors and non-factors
    for _ in range(2000):
        n = rng.randint(1, n_d)
        u = list(host[(i := rng.randrange(len(host) - n + 1)):i + n])
        for _ in range(rng.randint(1, 2)):
            u[rng.randrange(n)] = rng.choice("0012")
        u = "".join(u)
        assert oracle.contains(u) == (u in host), u


def test_xk_commands_census_no_host_above_padded_level6(monkeypatch):
    # verify-spike and the complexity table up to n_6 census the padded X_5
    # words at most, never the 31.85 M-char level-6 search host
    sizes = []
    real = WindowCensus.__init__

    def spy(self, host, *args, **kwargs):
        sizes.append(len(host))
        real(self, host, *args, **kwargs)

    monkeypatch.setattr(words_core.WindowCensus, "__init__", spy)
    for argv in (["xk", "--max-level", "6", "verify-spike"],
                 ["xk", "--max-level", "6", "complexity", "--n", "1..243"]):
        sizes.clear()
        assert parse_and_dispatch(argv) == 0
        assert max(sizes) == 144_640, argv


def test_level6_contains_builds_no_host_above_padded(oracle6, monkeypatch):
    # membership at level 6 reads the 144,640-char padded X_5 words; no
    # query builds or reads the 31.85 M-char search host
    sizes = []

    def spy(real):
        def method(self, d):
            host = real(self, d)
            sizes.append(len(host))
            return host
        return method

    for name in ("search_host", "padded_host"):
        monkeypatch.setattr(XkOracle, name, spy(getattr(XkOracle, name)))
    rng = random.Random(60)
    x5, z81 = oracle6.level(5).words, "0" * 81
    queries = []
    for _ in range(16):
        a, b = rng.choice(x5), rng.choice(x5)
        i = rng.randrange(81)
        queries.append((a + z81 + b)[i:i + rng.randint(82, 243 - i)])
        queries.append((a + z81 + "0" + b)[i:i + rng.randint(164 - i, 243)])
    found = [oracle6.contains(u) for u in queries]
    assert found.count(True) >= 16 and False in found
    assert sizes and set(sizes) == {144_640}


def test_word_lists_charge_their_running_total(capsys):
    # at r = 3 and 64 MiB the X_7 list (51,511,296 bytes) fits alone but not
    # beside the lists below it (28,727,684 bytes): level 7 is implicit, and
    # the table past n = 243 exits 2 before it joins the 95,552,217-char
    # level-7 search host
    levels = build_xk_levels(XkParams(r=3, max_level=7, max_bytes=2**26))
    assert [lv.explicit for lv in levels[1:]] == [True] * 6 + [False]
    code = parse_and_dispatch(["xk", "--r", "3", "--max-level", "7", "complexity",
                               "--n", "244..250", "--max-bytes", str(2**26)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "need level 7 explicit (deepest explicit is 6)" in err


def test_hosts_checked_against_budget_before_join():
    # the lists up to X_6 at r = 3 fit 30 MB, but the level-6 search host has
    # 31,850,739 letters; at r = 2 and 100 kB the lists up to X_5 fit (58,244
    # bytes), but the level-6 padded host has 144,640 letters
    oracle = XkOracle(XkParams(r=3, max_level=6, max_bytes=30_000_000))
    assert oracle.E == 6
    with pytest.raises(ValueError, match="budget: the level 6 search host needs "
                                         "31850739 bytes > 30000000"):
        oracle.complexity(200)
    assert not oracle._hosts
    oracle = XkOracle(XkParams(r=2, max_level=6, max_bytes=100_000))
    assert oracle.E == 5
    with pytest.raises(ValueError, match="budget: the level 6 padded host needs "
                                         "144640 bytes > 100000"):
        oracle.padded_host(6)
    assert not oracle._padded


def test_spike_family_a_read_from_padded_tail(oracle6):
    # at l = 1 the last margined occurrence of every length-81 factor, and
    # its whole extension, lie in one padded X_5 word 0^242 a 0^242 of the
    # level-6 census; no extension there decodes as a xi word
    t, _, n, _ = spike_parameters(oracle6, 1)
    census = oracle6.level_census(6)
    host = census.host
    width = 2 * 242 + 81
    assert len(host) == 256 * width and host[:242] == "0" * 242
    last = [int(pos[(pos >= t) & (pos <= len(host) - (n + 2 * t))].max())
            for pos in census.blocks(n)]
    assert len(last) == 29193
    assert all((q - t) // width == (q + n + 2 * t - 1) // width for q in last)
    words = set(oracle6.level(4).words)
    assert not any(_decodes_as_xi(host[q - t:q + n + 2 * t], words, n, t)
                   for q in last)


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


# the padded X_5 words of level 6 with 0^81 between two words, not 0^484
_CLOSE_PADDED_HOST = """
import sys
from wordlab import cli, xk_words as xk

real = xk.XkOracle.padded_host

def close(self, d):
    if d != 6:
        return real(self, d)
    pad = "0" * 242
    return pad + ("0" * 81).join(self.level(5).words) + pad

xk.XkOracle.padded_host = close
sys.exit(cli.parse_and_dispatch(%r))
"""


def _failed_assertion(run_python_O, code):
    proc = run_python_O(code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    return json.loads(proc.stderr)["witness"]["failed_assertion"]


def _corrupted_run(run_python_O, patch, argv):
    return _failed_assertion(run_python_O, _CORRUPTED_LEVELS % (patch, argv))


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


def test_structure_extension_fails_under_python_O(run_python_O):
    # the X_4 words u 0^9 b, u the first X_3 word, become u 0^8 1 b: every X_4
    # word still starts and ends in an X_3 word, and each b still ends one
    # after 0^9, but u 0^9 starts none
    msg = _corrupted_run(
        run_python_O,
        "u = levels[3].words[0]; levels[4].words = "
        "[w[:17] + '1' + w[18:] if w.startswith(u) else w for w in levels[4].words]",
        ["xk", "--max-level", "4", "verify-structure"])
    assert msg == "extension fact fails at level 3"


def test_spike_family_b_end_fails_under_python_O(run_python_O, oracle):
    # a_7 0^27 a_9 in place of a_7 0^27 a_8: every X_4 word still starts an
    # X_5 word before 0^27, but no X_5 word ends in 0^27 a_8
    msg = _corrupted_run(run_python_O,
                         "ws = levels[5].words; ws[7] = ws[7][:-27] + ws[8][-27:]",
                         ["xk", "--max-level", "6", "verify-spike"])
    assert msg == ("family B: no X_5 word ends in 0^t u, or none starts with "
                   "u 0^t, for u = %r" % oracle.level(4).words[8])


def test_spike_families_disjoint_fails_under_python_O(run_python_O):
    # with 0^81 between the X_5 words the padded host still holds every
    # length-81 factor, but an extension can now hold a 0^81 b with a, b in
    # X_5, the shape of u 0^81 v in a xi word
    msg = _failed_assertion(run_python_O, _CLOSE_PADDED_HOST
                            % ["xk", "--max-level", "6", "verify-spike"])
    assert msg.startswith("family A meets family B: the extension "), msg
