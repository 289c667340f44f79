# Core utilities on finite words over small alphabets.
#
# Conventions used throughout the package:
#   a "word" is a plain python str over a small alphabet (e.g. "012" or "ab")
#   p(n) = number of distinct factors of length n (subword complexity)
#   occurrences are counted with overlaps
#   all frequencies are exact rationals (fractions.Fraction)
#
# One exact counting backend lives here: a sorted-window census that gives,
# for every length n <= cap, the number of distinct windows and the
# occurrence positions of each, a run of the suffix array.  It sorts
# suffixes by prefix doubling from packed letter codes (numpy): every round
# is one value sort, the last round reaches exactly cap, only the current
# rank level is kept, and the lcp is computed only where the rank changes.
# It checks the byte budget before it allocates.

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


def check_budget(need, override, what):
    """The one byte-budget gate: raise ValueError when need exceeds the
    budget of max_bytes_budget(override).  The message is "budget: ", then
    what, which ends in its verb, then need and the budget."""
    budget = max_bytes_budget(override)
    if need > budget:
        raise ValueError("budget: %s %d bytes > %d" % (what, need, budget))


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

# bytes a listed word takes beyond its letters: the 49-byte str header and
# its 8-byte list slot
_LISTED_WORD_BYTES = 57


def _words_bytes(count, length):
    return count * (length + _LISTED_WORD_BYTES)


# ---------------------------------------------------------------------------
# sliding containment scan


@dataclass
class ScanResult:
    ok: bool
    window_length: int
    failing_window: int = None       # start index of first window missing a pattern
    missing_pattern: str = None
    min_window_lengths: dict = field(default_factory=dict)


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
# with lcp[i] the (capped) common prefix of sa[i-1], sa[i] (lcp[0] = 0, read
# as -1) and vlen[i] the separator-free run length starting at sa[i], capped
# at cap.
#
# The sort is Manber-Myers prefix doubling started from packed codes: the
# host's sigma letters are coded 1..sigma in letter order, 0 past the end, in
# b = sigma.bit_length() bits, so each position's next m = min(cap, 64 // b)
# letters fit one uint64 (m = 32 for three letters).  Level 0 value-sorts
# those codes and ranks every m-letter window by searchsorted into the
# distinct ones.  A round from rank_k to rank_{k+s} needs no argsort: the
# previous order shifted by s lists the positions by rank_k(i+s), those whose
# i+s is past the end first, and one in-place sort of the int64 values
# rank_k(i) << 31 | place (place = index in that list) orders them by
# (rank_k(i), rank_k(i+s)).  Rounds double k while 2k <= cap; the last takes
# s = cap - k, so its two overlapping k-windows cover exactly [i, i+cap), and
# sorted neighbours of equal rank have lcp = cap.  Only the current rank level
# is kept.  A window that runs past the host end holds the end code 0, which
# no letter has, so its rank is unique from level 0 on.  The exact lcp is
# taken only at the block boundaries, the neighbours of different rank, by
# comparing m-letter codes packed again after the doubling.

# bytes a host position takes at the build's peak: a doubling round holds
# the int32 rank level and order, the int64 sort values, a bool boundary
# flag and the encoded host (4 + 4 + 8 + 1 + 1 = 18); level 0 (the packed
# codes, their sorted copy, the flags, the host) and the lcp pass (the packed
# codes, int32 sa and lcp, the flags, the host) hold as much.  The chunked
# temporaries take under 80 bytes a chunk entry: under 2 bytes a host
# position, or 80 KiB at the least chunk
_CENSUS_BYTES_PER_CHAR = 20
_CENSUS_SLACK = 2**17


def _pack_windows(arr, lut, m, bits, length):
    """uint64 array of `length` entries whose entry i holds the codes lut[]
    of arr[i .. i+m-1], first letter in the high bits, code 0 past the end
    of arr (length >= len(arr) + m - 1).  Each shift-OR widens the windows
    from w to min(2w, m) letters in place, a chunk at a time from the left,
    so a chunk reads only entries that still hold w-letter windows; when m
    is not a power of two the last step overlaps, and the overlapping bits
    hold the same letters.  Entries past the end stay 0, which is right."""
    packed = np.zeros(length, dtype=np.uint64)
    for lo, hi in _spans(len(arr)):
        packed[lo:hi] = lut[arr[lo:hi]]
    w = 1
    while w < m:
        s = min(w, m - w)
        shift = np.uint64(bits * s)
        for lo, hi in _spans(len(arr)):
            packed[lo:hi] = (packed[lo:hi] << shift) | packed[lo + s:hi + s]
        w += s
    return packed


def _spans(L, start=0):
    """The (lo, hi) chunks of range(start, L), a 64th of L but at least 1024
    long: arrays of a host position are read a chunk at a time, so the
    temporaries stay small beside them."""
    step = max(L >> 6, 1024)
    return [(lo, min(lo + step, L)) for lo in range(start, L, step)]


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
        sa.flags.writeable = False          # blocks() hands out views of it
        self.sa = sa
        self.lcp = lcp
        self.vlen = vlen
        # counts[n] = #{lcpc < n} - #{vlen < n}, valid for 0 <= n <= cap,
        # with lcpc = min(lcp, vlen) and lcpc[0] = -1; bincount a chunk at a
        # time, since it copies its input to int64
        add = np.zeros(cap + 2, dtype=np.int64)
        add[0] = 1
        sub = np.zeros(cap + 2, dtype=np.int64)
        for lo, hi in _spans(len(lcp)):
            lcpc = np.minimum(lcp[max(lo, 1):hi], vlen[max(lo, 1):hi])
            add[1:] += np.bincount(lcpc, minlength=cap + 1)
            sub[1:] += np.bincount(vlen[lo:hi], minlength=cap + 1)
        counts = np.cumsum(add - sub)
        self.counts = counts[:cap + 1].astype(np.int64)

    def count(self, n):
        """Exact number of distinct separator-free length-n windows."""
        if not (1 <= n <= self.cap):
            raise ValueError("n out of census range")
        return int(self.counts[n])

    def blocks(self, n):
        """Start positions of each distinct separator-free length-n window,
        windows in lexicographic order: read-only views of sa, positions in
        sa order, which ascends at n = cap.

        Suffixes sharing their first n characters are a run of sa, split
        where lcp < n.  Windows sharing n letters with one that holds a
        separator or the host end (vlen < n) hold it too, so the blocks are
        the runs whose first entry has vlen >= n.
        """
        if not (1 <= n <= self.cap):
            raise ValueError("n out of census range")
        starts = np.flatnonzero(self.lcp < n)
        runs = np.split(self.sa, starts[1:])
        return [r for r, valid in zip(runs, self.vlen[starts] >= n) if valid]

    @staticmethod
    def _build_numpy(host, cap, separators, max_bytes):
        arr = np.frombuffer(host.encode("latin1"), dtype=np.uint8)
        L = len(arr)
        lut = np.zeros(256, dtype=np.uint64)
        seen = np.zeros(256, dtype=bool)
        seen[arr] = True
        sigma = int(np.count_nonzero(seen))
        lut[seen] = np.arange(1, sigma + 1, dtype=np.uint64)
        bits = sigma.bit_length()
        m = min(cap, 64 // bits)
        # the per-char peak, the padding past the end (cap + 1 int32 ranks,
        # cap uint64 codes) and the slack for the least chunk
        check_budget(_CENSUS_BYTES_PER_CHAR * L + 12 * (cap + 1) + _CENSUS_SLACK,
                     max_bytes, "census of %d chars at cap %d needs about" % (L, cap))
        if L + cap >= 2**31:
            raise ValueError("census of %d chars at cap %d: positions past "
                             "int32" % (L, cap))
        place_bits = np.int64(31)
        place_mask = np.int64(2**31 - 1)
        fresh = np.empty(L, dtype=bool)     # fresh[t]: sorted t starts a rank
        fresh[0] = True

        # level 0: the sorted distinct m-letter codes, compacted in place,
        # and each position's rank among them, written into the packed
        # codes' buffer behind the codes still unread; past the end unique
        # negative ranks, so comparisons there fail
        packed = _pack_windows(arr, lut, m, bits, L + cap)
        codes = np.sort(packed[:L])
        u = 1
        for lo, hi in _spans(L, 1):
            part = codes[lo:hi][codes[lo:hi] != codes[lo - 1:hi - 1]]
            codes[u:u + len(part)] = part
            u += len(part)
        codes = codes[:u]
        level0 = packed.view(np.int32)
        for lo, hi in _spans(L):
            level0[lo:hi] = np.searchsorted(codes, packed[lo:hi])
        del codes
        rank = np.empty(L + cap + 1, dtype=np.int32)
        rank[:L] = level0[:L]
        rank[L:] = -np.arange(1, cap + 2, dtype=np.int32)
        del packed, level0

        def sort_ranks(by):
            # reorder the positions by[place] by (rank, place) with one sort
            # of the values rank << 31 | place, and mark in fresh where a new
            # rank starts.  The int32 order is written into the sorted
            # values' own buffer, behind the values still unread, then back
            # into by
            key = np.empty(L, dtype=np.int64)
            for lo, hi in _spans(L):
                part = key[lo:hi]
                part[:] = rank[by[lo:hi]]
                part <<= place_bits
                part |= np.arange(lo, hi)
            key.sort()
            for lo, hi in _spans(L, 1):
                np.not_equal(key[lo:hi] >> place_bits, key[lo - 1:hi - 1] >> place_bits,
                             out=fresh[lo:hi])
            out = key.view(np.int32)
            for lo, hi in _spans(L):
                out[lo:hi] = by[key[lo:hi] & place_mask]
            by[:] = out[:L]

        # the level-0 order: ties by position
        order = np.arange(L, dtype=np.int32)
        sort_ranks(order)
        k = m
        while k < cap:
            s = min(k, cap - k)
            # the positions by rank_k(i+s): i+s past the end first, then the
            # order shifted by s, compacted in place from the right
            top = L
            for lo, hi in reversed(_spans(L)):
                part = order[lo:hi][order[lo:hi] >= s] - s
                order[top - len(part):top] = part
                top -= len(part)
            order[:top] = np.arange(L - top, L, dtype=np.int32)
            sort_ranks(order)
            # equal rank_k(i): a new rank where rank_k(i+s) differs, then the
            # dense ranks in sorted order replace rank_k
            for lo, hi in _spans(L, 1):
                fresh[lo:hi] |= rank[order[lo:hi] + s] != rank[order[lo - 1:hi - 1] + s]
            base = -1
            for lo, hi in _spans(L):
                dense = np.cumsum(fresh[lo:hi], dtype=np.int32)
                dense += base
                rank[order[lo:hi]] = dense
                base = int(dense[-1])
            k += s
        del rank
        sa = order

        # capped lcp of the sorted neighbours of different rank (equal rank
        # means lcp = cap), a chunk at a time: step through both windows m
        # letters at a time while the codes agree, then read the common
        # leading letters (fewer than m) off the first differing codes, where
        # letter t sits in bits [b(m-1-t), b(m-t)); the end code 0 stops a
        # window at the host end
        packed = _pack_windows(arr, lut, m, bits, L + cap)
        pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
        lcp = np.full(L, cap, dtype=np.int32)
        lcp[0] = 0
        for lo, hi in _spans(L, 1):
            t = np.flatnonzero(fresh[lo:hi]) + lo
            x, y = sa[t], sa[t - 1]
            h = 0
            while len(t) and h < cap:
                d = packed[x + h] ^ packed[y + h]
                hit = d != 0
                msb = np.searchsorted(pow2, d[hit], side="right") - 1
                lcp[t[hit]] = np.minimum(h + m - 1 - msb // bits, cap)
                t, x, y = t[~hit], x[~hit], y[~hit]
                h += m
        del packed, fresh

        vlen = np.empty(L, dtype=np.int32)
        if separators:
            # the int32 separator positions, then L
            is_sep = np.zeros(256, dtype=bool)
            is_sep[np.frombuffer(separators.encode("latin1"), dtype=np.uint8)] = True
            at_sep = is_sep[arr]
            stops = np.empty(np.count_nonzero(at_sep) + 1, dtype=np.int32)
            stops[-1] = L
            n_stops = 0
            for lo, hi in _spans(L):
                part = np.flatnonzero(at_sep[lo:hi]) + lo
                stops[n_stops:n_stops + len(part)] = part
                n_stops += len(part)
            del at_sep
            for lo, hi in _spans(L):
                vlen[lo:hi] = stops[np.searchsorted(stops, sa[lo:hi])] - sa[lo:hi]
        else:
            np.subtract(L, sa, out=vlen)
        np.minimum(vlen, cap, out=vlen)
        return sa, lcp, vlen
