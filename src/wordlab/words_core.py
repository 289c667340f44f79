# Core utilities on finite words over small alphabets.
#
# Conventions used throughout the package:
#   a "word" is a plain python str over a small alphabet (e.g. "012" or "ab")
#   p(n) = number of distinct factors of length n (subword complexity)
#   occurrences are counted with overlaps
#   all frequencies are exact rationals (fractions.Fraction)
#
# One exact counting backend lives here: a sorted-window census (suffix
# sorting by prefix doubling from packed letter codes, numpy) that gives,
# for every length n <= cap, the number of distinct windows and the
# ascending occurrence positions of each.  It checks the byte budget before
# it allocates.

import os
from dataclasses import dataclass, field

import numpy as np

DEFAULT_MAX_BYTES = 2 * 2**30


def max_bytes_budget(override=None):
    """Resource budget in bytes; WORDLAB_MAX_BYTES overrides the default."""
    if override is not None:
        return int(override)
    env = os.environ.get("WORDLAB_MAX_BYTES")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError("WORDLAB_MAX_BYTES must be an integer, got %r" % env)
    return DEFAULT_MAX_BYTES


def count_occurrences(pattern, host):
    """Number of (overlapping) occurrences of pattern in host."""
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    count = 0
    i = host.find(pattern)
    while i != -1:
        count += 1
        i = host.find(pattern, i + 1)
    return count


def occurrence_positions(pattern, host):
    """Sorted list of all (overlapping) start positions of pattern in host."""
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    out = []
    i = host.find(pattern)
    while i != -1:
        out.append(i)
        i = host.find(pattern, i + 1)
    return out


def min_period(word, d_max=None):
    """Smallest period d >= 1 of word, or None if no period <= d_max exists.

    d is a period when word[i] == word[i+d] for all valid i.
    """
    n = len(word)
    if d_max is None:
        d_max = n
    d_max = min(d_max, n)
    for d in range(1, d_max + 1):
        if d >= n or word[d:] == word[:-d]:
            return d
    return None


# bytes a set member takes beyond its n characters: the 49-byte str header
# and its share of the hash table (91-109 bytes measured on 64-bit CPython
# 3.11 for n = 20..100)
_SET_MEMBER_BYTES = 112


# ---------------------------------------------------------------------------
# sliding containment scan


@dataclass
class ScanResult:
    ok: bool
    window_length: int
    failing_window: int = None       # start index of first window missing a pattern
    missing_pattern: str = None
    min_window_lengths: dict = field(default_factory=dict)

    @property
    def min_uniform_length(self):
        """Smallest K such that every length-K window contains every pattern."""
        return max(self.min_window_lengths.values())


def _pattern_window_stats(pos, L, host_len, K):
    """(ok, first_fail, min_K) of 'every length-K window of a host of length
    host_len contains a pattern of length L', given the pattern's ascending
    occurrence positions pos.

    min_K is the smallest window length that works for this pattern, from the
    occurrence statistics: first occurrence, last occurrence, largest gap.
    """
    if len(pos) == 0:
        return False, 0, None
    pos = np.asarray(pos, dtype=np.int64)
    gaps = np.diff(pos)
    max_gap = int(gaps.max()) if len(gaps) else 0
    min_K = max(int(pos[0]) + L, L + max_gap - 1, host_len - int(pos[-1]))
    if K >= min_K:
        return True, None, min_K
    # window [i, i+K) contains the pattern iff some occurrence s has
    # i <= s <= i+K-L; reconstruct the first failing window start
    if pos[0] > K - L:
        return False, 0, min_K
    n_windows = host_len - K + 1
    wide = np.flatnonzero((gaps > K - L + 1) & (pos[:-1] + 1 <= n_windows - 1))
    if len(wide):
        return False, int(pos[wide[0]]) + 1, min_K
    return False, min(int(pos[-1]) + 1, n_windows - 1), min_K


def sliding_containment_scan(host, K, patterns):
    """Does every length-K window of host contain every pattern?

    Patterns must be nonempty and no longer than K; host must admit at
    least one window.  Returns a ScanResult with the first failing window
    (smallest start index, then lexicographically smallest pattern) and the
    per-pattern minimal uniform window lengths.
    """
    if len(host) < K:
        raise ValueError("host shorter than window length")
    stats = {}
    failures = []
    for p in sorted(set(patterns)):
        if len(p) == 0:
            raise ValueError("empty pattern")
        if len(p) > K:
            raise ValueError("pattern longer than window")
        ok, fail, min_K = _pattern_window_stats(occurrence_positions(p, host),
                                                len(p), len(host), K)
        stats[p] = min_K if min_K is not None else len(host) + 1
        if not ok:
            failures.append((fail, p))
    if failures:
        fail, p = min(failures)
        return ScanResult(ok=False, window_length=K, failing_window=fail,
                          missing_pattern=p, min_window_lengths=stats)
    return ScanResult(ok=True, window_length=K, min_window_lengths=stats)


# ---------------------------------------------------------------------------
# sorted-window census
#
# Exact distinct-window counts for every n <= cap over one host string, where
# windows containing a separator character do not count.  Built by sorting
# the cap-truncated suffixes; a length-n factor corresponds to a maximal run
# of suffixes sharing their first n characters, so
#     count(n) = #{ i : lcp[i] < n <= vlen[i] }
# with lcp[i] the (capped) common prefix of sa[i-1], sa[i] (lcp[0] = -1) and
# vlen[i] the separator-free run length starting at sa[i], capped at cap.
#
# The sort is Manber-Myers prefix doubling started from packed codes: the
# host's sigma letters are coded 1..sigma in letter order, 0 past the end, in
# b = sigma.bit_length() bits, so each position's next m = min(cap, 64 // b)
# letters fit one uint64 (m = 32 for three letters).  One stable sort of
# those codes ranks every m-letter window, so doubling starts at k = m, not
# at k = 1, and runs while k < cap.  The rank levels k = m 2^j <= cap are
# kept for the lcp, which descends them in steps m 2^j and then reads the
# remaining fewer-than-m common letters off the packed codes.

# work arrays of 8 bytes a host position alive next to the rank levels at
# the build's peak, a sort round: the packed codes, the sort key, the order,
# and the sort's buffer with the int32 dense-rank buffer; one more covers the
# encoded host and the lcp pass's chunk temporaries
_CENSUS_WORK_ARRAYS = 5


def _pack_windows(codes, m, bits):
    """uint64 array whose entry i holds codes[i .. i+m-1], first letter in
    the high bits, for i = 0 .. len(codes) - m.  Each shift-OR widens the
    windows from w to min(2w, m) letters; when m is not a power of two the
    last step overlaps, and the overlapping bits hold the same letters."""
    packed, w = codes, 1
    while w < m:
        s = min(w, m - w)
        packed = (packed[:-s] << np.uint64(bits * s)) | packed[s:]
        w += s
    return packed


class WindowCensus:

    def __init__(self, host, cap, separators="", max_bytes=None):
        if cap <= 0:
            raise ValueError("cap must be positive")
        if not host:
            raise ValueError("empty host")
        self.host = host
        self.cap = cap
        self.separators = separators
        sa, lcp, vlen = self._build_numpy(host, cap, separators, max_bytes)
        self.sa = sa
        self.lcp = lcp
        self.vlen = vlen
        lcpc = np.minimum(lcp, vlen)
        lcpc[0] = -1
        add = np.bincount(lcpc + 1, minlength=cap + 2)
        sub = np.bincount(vlen + 1, minlength=cap + 2)
        counts = np.cumsum(add - sub)
        # counts[n] = #{lcpc < n} - #{vlen < n}, valid for 0 <= n <= cap
        self.counts = counts[:cap + 1].astype(np.int64)

    def count(self, n):
        """Exact number of distinct separator-free length-n windows."""
        if not (1 <= n <= self.cap):
            raise ValueError("n out of census range")
        return int(self.counts[n])

    def blocks(self, n):
        """Ascending start positions of each distinct separator-free length-n
        window: one int64 array per window, windows in lexicographic order.

        The suffixes that share their first n characters are adjacent in sa,
        and a new block starts wherever lcp < n.
        """
        if not (1 <= n <= self.cap):
            raise ValueError("n out of census range")
        valid = self.vlen >= n
        bid = np.cumsum(self.lcp < n)[valid]
        # sort (block, position) keys: block order is kept, so bid still
        # labels the sorted keys, and positions ascend inside each block
        width = np.int64(len(self.host) + 1)
        key = bid * width + self.sa[valid]
        if len(key) == 0:
            return []
        key.sort()
        np.remainder(key, width, out=key)
        return np.split(key, np.flatnonzero(np.diff(bid)) + 1)

    @staticmethod
    def _build_numpy(host, cap, separators, max_bytes):
        arr = np.frombuffer(host.encode("latin1"), dtype=np.uint8)
        L = len(arr)
        pad = cap + 1
        lut = np.zeros(256, dtype=np.uint64)
        seen = np.zeros(256, dtype=bool)
        seen[arr] = True
        sigma = int(np.count_nonzero(seen))
        lut[seen] = np.arange(1, sigma + 1, dtype=np.uint64)
        bits = sigma.bit_length()
        m = min(cap, 64 // bits)
        n_levels = (cap // m).bit_length()      # rank levels k = m 2^j <= cap
        need = n_levels * (L + pad) * 4 + _CENSUS_WORK_ARRAYS * L * 8
        budget = max_bytes_budget(max_bytes)
        if need > budget:
            raise ValueError("budget: census of %d chars at cap %d needs about "
                             "%d bytes > %d" % (L, cap, need, budget))

        codes = np.zeros(L + m, dtype=np.uint64)
        codes[:L] = lut[arr]
        packed = _pack_windows(codes, m, bits)  # L + 1 entries, packed[L] = 0
        del codes
        dense = np.empty(L, dtype=np.int32)
        # sorted neighbours are compared a chunk at a time, a sixteenth of
        # the host, so the temporaries stay small beside the rank levels
        chunk = max(L >> 4, 4096)

        def ranks(order, key):
            # the level's rank array: dense ranks of key, then unique
            # negative ranks past the end, so comparisons there fail; the
            # sorted keys are read a chunk at a time
            dense[:1] = 0
            for lo in range(0, L - 1, chunk):
                skey = key[order[lo:lo + chunk + 1]]
                np.not_equal(skey[1:], skey[:-1], out=dense[lo + 1:lo + len(skey)])
            np.cumsum(dense, out=dense)
            r = np.empty(L + pad, dtype=np.int32)
            r[order] = dense
            r[L:] = -np.arange(1, pad + 1, dtype=np.int32)
            return r

        # level 0 ranks the m-letter windows; the end code 0 sorts below
        # every letter, as the negative padding ranks do
        order = np.argsort(packed[:L], kind="stable")
        levels = [ranks(order, packed)]
        k = m
        while k < cap:
            key = levels[-1][:L].astype(np.int64)
            key += pad
            key <<= np.int64(33)
            key += levels[-1][k:L + k]
            key += pad
            del order
            order = np.argsort(key, kind="stable")
            k <<= 1
            if k <= cap:
                levels.append(ranks(order, key))
            del key
        del dense
        sa = order
        # capped lcp of adjacent sorted suffixes, a chunk of pairs at a time:
        # descend the rank levels in steps m 2^j (a step past cap only
        # overshoots an lcp that is capped anyway), then read the common
        # leading letters (fewer than m) off the packed codes, where the
        # first differing letter t sits in bits [b(m-1-t), b(m-t)); equal
        # codes give top = -1, so m letters; packed[L] = 0 stops a window at
        # the host end
        pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
        lcp = np.zeros(L, dtype=np.int32)
        for lo in range(1, L, chunk):
            x = sa[lo:lo + chunk]
            y = sa[lo - 1:lo - 1 + len(x)]
            h = np.zeros(len(x), dtype=np.int64)
            for j in range(n_levels - 1, -1, -1):
                eq = levels[j][x + h] == levels[j][y + h]
                np.add(h, m << j, out=h, where=eq)
            top = np.searchsorted(pow2, packed[x + h] ^ packed[y + h], side="right") - 1
            h += m - 1 - top // bits
            lcp[lo:lo + len(x)] = np.minimum(h, cap)
        del levels, packed
        if separators:
            sep_pos = np.flatnonzero(np.isin(arr, np.frombuffer(separators.encode("latin1"), dtype=np.uint8)))
            sep_pos = np.concatenate((sep_pos, [L]))
            vlen = sep_pos[np.searchsorted(sep_pos, sa, side="left")]
            vlen -= sa
        else:
            vlen = L - sa
        np.minimum(vlen, cap, out=vlen)
        return sa, lcp, vlen.astype(np.int32)
