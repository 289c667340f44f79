import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordlab.words_core import (
    WindowCensus,
    _pattern_window_stats,
    count_occurrences,
    min_period,
    occurrence_positions,
)

words01 = st.text(alphabet="01", min_size=0, max_size=40)


def factor_set(hosts, n):
    """Oracle: the set of every length-n window of one host or a list."""
    if isinstance(hosts, str):
        hosts = [hosts]
    return frozenset(h[i:i + n] for h in hosts for i in range(len(h) - n + 1))


def naive_containment(host, K, patterns):
    """Slow direct rescan of every window; oracle for _pattern_window_stats."""
    for i in range(len(host) - K + 1):
        w = host[i:i + K]
        for p in sorted(set(patterns)):
            if p not in w:
                return False, i, p
    return True, None, None


def test_count_occurrences_overlapping():
    assert count_occurrences("aa", "aaaa") == 3
    assert count_occurrences("aba", "ababa") == 2
    assert count_occurrences("b", "aaa") == 0


def test_count_occurrences_empty_pattern_rejected():
    with pytest.raises(ValueError):
        count_occurrences("", "abc")


def test_subadditivity_of_occurrence_counts():
    # Phi_u(w0) + Phi_u(w1) <= Phi_u(w0 w1) <= Phi_u(w0) + Phi_u(w1) + |u| - 1
    rng = random.Random(12345)
    for _ in range(10_000):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 5)))
        w0 = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
        w1 = "".join(rng.choice("ab") for _ in range(rng.randint(0, 30)))
        lo = count_occurrences(u, w0) + count_occurrences(u, w1) if u else 0
        mid = count_occurrences(u, w0 + w1)
        assert lo <= mid <= lo + len(u) - 1


@given(u=st.text(alphabet="01", min_size=1, max_size=6), w0=words01, w1=words01)
@settings(max_examples=300)
def test_subadditivity_property(u, w0, w1):
    lo = count_occurrences(u, w0) + count_occurrences(u, w1)
    mid = count_occurrences(u, w0 + w1)
    assert lo <= mid <= lo + len(u) - 1


def test_min_period():
    assert min_period("abab") == 2
    assert min_period("aaaa") == 1
    assert min_period("abcab") == 3
    assert min_period("abc", d_max=2) is None
    assert min_period("a") == 1


def test_factor_set_exact():
    fs = factor_set("aabab", 2)
    assert fs == frozenset({"aa", "ab", "ba"})
    assert "ab" in fs and "bb" not in fs and "abc" not in fs
    assert factor_set("aabab", 0) == frozenset({""})
    assert factor_set("ab", 3) == frozenset()


def test_factor_set_host_order_invariance():
    rng = random.Random(5)
    hosts = ["".join(rng.choice("01") for _ in range(rng.randint(3, 30))) for _ in range(8)]
    for n in (1, 2, 4):
        assert factor_set(hosts, n) == factor_set(list(reversed(hosts)), n)


def _brute_counts(host, cap, seps):
    out = {}
    for n in range(1, cap + 1):
        out[n] = len(set(host[i:i + n] for i in range(len(host) - n + 1)
                         if not any(s in host[i:i + n] for s in seps)))
    return out


def test_window_census_python_path():
    # the census against brute-force python sets: random hosts with and
    # without separators, caps past the host length, hosts made only of
    # separators, and separators at both ends
    rng = random.Random(3)
    cases = [("|", 3), ("|||", 1), ("|||", 5), ("|01|", 6), ("||0110||", 9),
             ("0", 1), ("01", 70), ("|" + "01" * 20 + "|", 45)]
    for _ in range(300):
        letters = rng.choice(("01", "01|"))
        host = "".join(rng.choice(letters) for _ in range(rng.randint(1, 60)))
        cases.append((host, rng.randint(1, 70)))
    # around the 64-bit width m = 64 // b and the lcp pass's 32-bit width
    # m = 32 // b, b = sigma.bit_length() with "|" counted as a letter: 4
    # and 5 letters give m = 21 and 10, 21 letters m = 12 and 6, none a
    # power of two, and one letter gives m = 64 and 32; caps below, at and
    # just above m, hosts shorter than m, separators at the ends
    for letters, widths in (("abc|", (21, 10)), ("abcd|", (21, 10)),
                            ("abcdefghijklmnopqrst|", (12, 6)), ("0", (64, 32))):
        for m in widths:
            for cap in (m - 1, m, m + 1, 2 * m + 1):
                for size in (m - 3, m + 1, 3 * m):
                    host = letters + "".join(rng.choice(letters) for _ in range(size))
                    cases.append((host, cap))
                    cases.append(("|" + host[::-1] + "|", cap))
            cases.append((letters.rstrip("|"), m + 1))
    cases += [("0" * 64, 64), ("0" * 65, 65), ("0" * 130, 129), ("00|00", 64)]
    for host, cap in cases:
        c = WindowCensus(host, cap, separators="|")
        brute = _brute_counts(host, cap, "|")
        for n in range(1, cap + 1):
            assert c.count(n) == brute[n], (host, cap, n)


def test_window_census_blocks_are_occurrence_sets():
    rng = random.Random(12)
    hosts = ["|" * 4, "|0|", "0110|0110", "012" * 9,
             "".join(rng.choice("abcde") for _ in range(120))]
    hosts += ["".join(rng.choice("01|") for _ in range(rng.randint(1, 80))) for _ in range(60)]
    for host in hosts:
        cap = rng.randint(1, 12)
        c = WindowCensus(host, cap, separators="|")
        for n in range(1, cap + 1):
            blocks = c.blocks(n)
            windows = [host[b[0]:b[0] + n] for b in blocks]
            assert windows == sorted(set(host[i:i + n] for i in range(len(host) - n + 1)
                                         if "|" not in host[i:i + n]))
            assert len(blocks) == c.count(n)
            # positions come in sa order, which ascends at n = cap
            for w, b in zip(windows, blocks):
                got = b.tolist() if n == cap else sorted(b.tolist())
                assert got == occurrence_positions(w, host)
            assert [sorted(b.tolist()) for b in blocks] == _key_sort_blocks(c, n)


def _key_sort_blocks(census, n):
    """Second oracle for blocks: label each valid sa entry with its run
    (a cumsum of lcp < n), then sort (run, position) keys, so that the
    positions ascend inside each block."""
    valid = census.vlen >= n
    bid = np.cumsum(census.lcp < n)[valid]
    width = np.int64(len(census.host) + 1)
    key = bid * width + census.sa[valid]
    if len(key) == 0:
        return []
    key.sort()
    np.remainder(key, width, out=key)
    return [b.tolist() for b in np.split(key, np.flatnonzero(np.diff(bid)) + 1)]


def _fibonacci(length):
    a, b = "0", "01"
    while len(b) < length:
        a, b = b, b + a
    return b[:length]


def test_window_census_blocks_are_views_of_sa():
    host = _fibonacci(10**6)
    c = WindowCensus(host, 64)
    # a key sort over every position (_key_sort_blocks) peaks at 25 bytes a
    # host char here
    peak = _traced_peak(lambda: c.blocks(32))
    assert peak < 2 * len(host), peak
    blocks = c.blocks(32)
    assert len(blocks) == c.count(32) == 33
    assert all(np.shares_memory(b, c.sa) for b in blocks)
    with pytest.raises(ValueError, match="read-only"):
        blocks[0].sort()


def _slice_census(host, cap, seps):
    """Oracle for the census arrays: a plain sort of the slices
    host[i:i+cap], ties by position; lcp[t] the common prefix of sorted
    neighbours (0 at t = 0), vlen[t] the separator-free run at sa[t]."""
    sa = sorted(range(len(host)), key=lambda i: (host[i:i + cap], i))
    lcp = [0]
    for a, b in zip(sa, sa[1:]):
        u, v = host[a:a + cap], host[b:b + cap]
        h = 0
        while h < min(len(u), len(v)) and u[h] == v[h]:
            h += 1
        lcp.append(h)
    vlen = []
    for i in sa:
        j = i
        while j < len(host) and j - i < cap and host[j] not in seps:
            j += 1
        vlen.append(j - i)
    return sa, lcp, vlen


def test_window_census_arrays_match_slice_sort():
    # three letters and "|" take 3 bits a letter, one letter 1 bit.  Caps
    # from below the level-0 width to a few rounds past it, strictly
    # between two rounds (the exact-cap last round), hosts shorter than a
    # round's offsets, and separators at both ends
    rng = random.Random(21)
    cases = []
    for letters, caps in (("abc|", (5, 20, 21, 42, 84, 30, 63, 100)),
                          ("a", (1, 63, 64, 128, 100, 200))):
        for cap in caps:
            for size in (1, 15, 40, 150):
                host = "".join(rng.choice(letters) for _ in range(size))
                cases.append((host, cap))
                cases.append(("|" + host + "|", cap))
    # a round with s = k at cap >= 4m: the least suffix's rank must not meet
    # the negative ranks past the end
    cases.append(("a" * 200, 256))
    for host, cap in cases:
        c = WindowCensus(host, cap, separators="|")
        sa, lcp, vlen = _slice_census(host, cap, "|")
        assert c.sa.tolist() == sa, (host, cap)
        assert c.lcp.tolist() == lcp, (host, cap)
        assert c.vlen.tolist() == vlen, (host, cap)
        for n in range(1, cap + 1):
            windows = sorted(set(host[i:i + n] for i in range(len(host) - n + 1)
                                 if "|" not in host[i:i + n]))
            assert [b.tolist() for b in c.blocks(n)] == \
                [[i for i in sa if host[i:i + n] == w] for w in windows], (host, cap, n)
    # hosts of 2^j and 2^j + 1 letters, where the position bits pb and so
    # the level-0 width (63 - pb) // bits change.  Ranks take at most
    # pb + 1 bits, so rounds pack 3 to 7 windows; caps that are no multiple
    # of the width end on a window overlapping at cap - k, and "abc|" at
    # 129 letters and more stops a round at 6 windows (108 letters) short of
    # cap 120, then takes a 2-window round at offsets 0 and 12
    cases = [("".join(rng.choice(letters) for _ in range(size)), cap)
             for size in (64, 65, 128, 129, 256, 257)
             for letters, cap in (("abc|", 120), ("a", 150), ("ab", 90))]
    # a periodic run of 9,000 letters and a random tail of 3,000: the run's
    # suffixes sort into a few long blocks of equal rank, so the rank
    # changes lie sparse over several 1024-entry chunks of sa, and dense
    # among the tail's suffixes.  The lcp pass takes runs of several chunks
    # and single dense chunks, and ends on a run short of a chunk's length
    # of rank changes
    for run, tail in (("ab", "abc"), ("abc", "abc|")):
        host = run * (9000 // len(run)) + "".join(rng.choice(tail)
                                                  for _ in range(3000))
        cases += [(host, 40), (host, 100)]
    # 70,000 letters take chunks of 1,093 entries, and level 0 packs
    # (63 - 17) // 3 = 15 letters: each chunk's keys read the 14 letters
    # past its end, and cap 40 takes rounds past level 0
    cases.append(("".join(rng.choice("abc|") for _ in range(70_000)), 40))
    for host, cap in cases:
        c = WindowCensus(host, cap, separators="|")
        sa, lcp, vlen = _slice_census(host, cap, "|")
        assert c.sa.tolist() == sa, (host, cap)
        assert c.lcp.tolist() == lcp, (host, cap)
        assert c.vlen.tolist() == vlen, (host, cap)


def test_window_census_fallback_round():
    # 2.2 M positions take pb = 22 bits, so level 0 packs (63 - 22) // 2 = 20
    # letters; a random host has nearly 2.2 M distinct 20-letter windows,
    # whose ranks take 22 bits, and no two ranks fit beside the position.
    # The round to cap 24 then sorts rank_20(i) << 22 | place, with place
    # from the level-0 order shifted by 4, and holds sa beside the rank
    # level: that round charges 20 bytes a char, not 16, before it
    # allocates sa, so a budget that admits 16 refuses it there
    L = 2_200_000
    codes = np.random.default_rng(16).integers(0, 3, L, dtype=np.uint8)
    host = (codes + ord("0")).tobytes().decode("ascii")
    with pytest.raises(ValueError, match="budget: fallback round of the "
                                         "census of 2200000 chars at cap 24"):
        WindowCensus(host, 24, max_bytes=16 * L + 8 * 25 + 2**17)
    built = []
    peak = _traced_peak(lambda: built.append(WindowCensus(host, 24)))
    assert peak < 20 * L + 8 * 25 + 2**17, peak
    c = built[0]
    assert c.count(20) >= 2**21
    # the distinct 2-bit packed windows of each length, counted on a sort
    codes = codes.astype(np.uint64)
    for n in (1, 7, 20, 21, 24):
        packed = np.zeros(L - n + 1, dtype=np.uint64)
        for j in range(n):
            packed <<= np.uint64(2)
            packed |= codes[j:L - n + 1 + j]
        packed.sort()
        assert c.count(n) == 1 + np.count_nonzero(packed[1:] != packed[:-1]), n
    rng = random.Random(16)
    for t in [rng.randrange(1, L) for _ in range(3000)]:
        a, b = int(c.sa[t - 1]), int(c.sa[t])
        u, v = host[a:a + 24], host[b:b + 24]
        assert (u, a) < (v, b), t
        h = 0
        while h < min(len(u), len(v)) and u[h] == v[h]:
            h += 1
        assert c.lcp[t] == h, t


def _census_need(host, cap):
    # the census's byte estimate for a host of fewer than 2^21 chars: 16
    # bytes a host char (14 in arrays at the peak, under 2 in chunked
    # temporaries), cap + 1 int32 ranks and uint32 codes past the end, and
    # 128 KiB for the least chunk.  It leaves out the 4 bytes a separator
    # that the census adds for their positions, so a separator host is
    # checked against a tighter bound
    return 16 * len(host) + 8 * (cap + 1) + 2**17


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_window_census_budget_checked_before_allocating():
    host = "01" * 50_000
    need = _census_need(host, 100)
    assert need == 16 * 100_000 + 8 * 101 + 2**17
    assert WindowCensus(host, 100, max_bytes=need).count(100) == 2

    def refused():
        with pytest.raises(ValueError, match="^budget: census of 100000 chars at cap 100"):
            WindowCensus(host, 100, max_bytes=need - 1)
    # the encoded host and a letter count, no census array
    assert _traced_peak(refused) < 2 * len(host)


def test_window_census_estimate_bounds_its_peak():
    rng = random.Random(9)
    cases = [("012", 162, ""), ("ab|", 1188, "|"), ("abcde", 300, ""),
             ("01", 4096, ""), ("0", 200, "")]
    for letters, cap, seps in cases:
        host = "".join(rng.choice(letters) for _ in range(100_000))
        peak = _traced_peak(lambda: WindowCensus(host, cap, separators=seps))
        assert peak < _census_need(host, cap), (letters, cap, peak)
    host = "".join(rng.choice("ab|") for _ in range(1_000_000))
    peak = _traced_peak(lambda: WindowCensus(host, 1188, separators="|"))
    assert peak < _census_need(host, 1188), peak


def test_window_census_numpy_path():
    rng = random.Random(4)
    host = "".join(rng.choice("012") for _ in range(250_000))
    c = WindowCensus(host, 24)
    for n in (1, 2, 3, 11, 24):
        assert c.count(n) == len(set(host[i:i + n] for i in range(len(host) - n + 1)))


def test_window_census_numpy_path_with_separator():
    rng = random.Random(6)
    host = "".join(rng.choice("01#") for _ in range(200_000))
    c = WindowCensus(host, 10, separators="#")
    brute = _brute_counts(host, 10, "#")
    for n in range(1, 11):
        assert c.count(n) == brute[n]


def _window_stats(host, K, p):
    return _pattern_window_stats(occurrence_positions(p, host), len(p), len(host), K)


def test_pattern_window_stats_vs_naive():
    # the first failing window, then the smallest pattern missing from it
    rng = random.Random(8)
    for _ in range(200):
        host = "".join(rng.choice("01") for _ in range(rng.randint(3, 40)))
        K = rng.randint(1, len(host))
        pats = sorted(set("".join(rng.choice("01") for _ in range(rng.randint(1, K)))
                          for _ in range(3)))
        fails = [(fail, p) for p in pats
                 for ok, fail, _ in [_window_stats(host, K, p)] if not ok]
        ok, fail, pat = naive_containment(host, K, pats)
        assert ok == (not fails)
        if not ok:
            assert min(fails) == (fail, pat)


def test_pattern_window_min_lengths_are_minimal():
    rng = random.Random(11)
    for _ in range(100):
        host = "".join(rng.choice("01") for _ in range(rng.randint(5, 40)))
        p = "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
        if p not in host:
            continue
        mk = _window_stats(host, len(host), p)[2]
        assert naive_containment(host, mk, [p])[0]
        if mk > len(p) and mk - 1 >= len(p):
            assert not naive_containment(host, mk - 1, [p])[0]


def test_occurrence_positions():
    assert occurrence_positions("aa", "aaaa") == [0, 1, 2]
    assert occurrence_positions("x", "aaaa") == []
