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
# is one sort of packed rank tuples keyed by position, the last round
# reaches exactly cap, only the current rank level is kept, and the lcp is
# computed only where the rank changes.
# It checks the byte budget before it allocates.

import os

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
# The sort is Manber-Myers prefix doubling, every round one in-place sort of
# int64 keys whose low pb bits hold the position i (pb = (L-1).bit_length()),
# so equal high bits tie by position.  Level 0 codes the host's sigma letters
# 1..sigma in letter order, 0 past the end, in b = sigma.bit_length() bits,
# and packs i's next (63 - pb) // b letters above i, a chunk of keys at a
# time.  After a sort, new ranks start where the high bits change; the dense
# ranks 1..D are one chunked cumsum, written back by position, and every
# position past the end reads rank 0.  The next round packs the ranks of q
# windows at offsets 0, k, 2k, ..., q as large as q D.bit_length() + pb <=
# 63, read off contiguous slices of the rank level, so a round gathers
# nothing; when q k passes cap, the last offset is cap - k, and the
# overlapping windows cover exactly [i, i+cap).  A window
# that runs past the host end holds the end code 0, which no letter has, so
# its rank is unique from level 0 on, and a window starting past the end reads
# 0, below every letter: the key order is the order of the truncated
# suffixes.  When not even two ranks fit, the round sorts rank_k(i) << pb |
# place instead, where place indexes the positions listed by rank_k(i+s) (i+s
# past the end first, then the previous order shifted by s), and splits equal
# rank_k(i) where rank_k(i+s) differs.  The order of the last sort is sa, and
# sorted neighbours of equal high bits have lcp = cap.  Only the current rank
# level is kept, and sa is allocated when first needed.  The exact lcp is
# taken only at the block boundaries, the neighbours of different rank, by
# comparing m-letter uint32 codes packed after the doubling,
# m = min(cap, 32 // b).

# bytes a host position takes at the build's peak, phase by phase, with the
# bool boundary flags and the encoded host (2): level 0 the int64 keys (10);
# a round the keys and the int32 rank level (14); forming sa the keys and
# int32 sa (14); the lcp pass the uint32 codes, sa and int32 lcp (14); vlen
# with separators sa, lcp, vlen and the bool separator flags in place of the
# boundary flags (14), plus 4 bytes a separator.  A round that cannot pack
# two ranks also fills sa with the positions by rank_k(i+s) (18), so the
# first such round checks the budget again, 4 bytes a char more, before it
# allocates sa.  The chunked temporaries take under 80 bytes
# a chunk entry: under 2 bytes a host position, or 80 KiB at the least
# chunk; the lcp pass's runs of chunks hold at most a chunk's length of rank
# changes
_CENSUS_BYTES_PER_CHAR = 16
_CENSUS_SLACK = 2**17


def _pack_windows(arr, lut, m, bits, lo, hi, dtype):
    """hi - lo codes of an unsigned dtype, entry j holding lut[] of
    arr[lo+j .. lo+j+m-1], first letter in the high bits, 0 past the end of
    arr.  Each whole-buffer shift-OR widens the windows of the chunk and the
    m - 1 letters after it from w to min(2w, m) letters; when m is not a
    power of two the last step overlaps, on bits that hold the same letters."""
    part = arr[lo:hi + m - 1]
    codes = np.zeros(hi - lo + m - 1, dtype=dtype)
    codes[:len(part)] = lut[part]
    w = 1
    while w < m:
        s = min(w, m - w)
        codes[:-s] = (codes[:-s] << bits * s) | codes[s:]
        w += s
    return codes[:hi - lo]


def _spans(L, start=0):
    """The (lo, hi) chunks of range(start, L), a 64th of L but at least 1024
    long: arrays of a host position are read a chunk at a time, so the
    temporaries stay small beside them."""
    step = _span_len(L)
    return [(lo, min(lo + step, L)) for lo in range(start, L, step)]


def _span_len(L):
    return max(L >> 6, 1024)


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
        m = min(cap, 32 // bits)
        pb = (L - 1).bit_length()           # bits of a position
        mask = (1 << pb) - 1
        free = 63 - pb                      # key bits above the position
        # the per-char peak, the separators' positions, the padding past the
        # end (cap int32 ranks and uint32 codes) and the slack for the least
        # chunk; a fallback round charges its 4 bytes a char when it runs
        extra = 4 * sum(host.count(c) for c in set(separators)) \
            + 8 * (cap + 1) + _CENSUS_SLACK
        what = "census of %d chars at cap %d needs about" % (L, cap)
        check_budget(_CENSUS_BYTES_PER_CHAR * L + extra, max_bytes, what)
        if L + cap >= 2**31:
            raise ValueError("census of %d chars at cap %d: positions past "
                             "int32" % (L, cap))
        fresh = np.empty(L, dtype=bool)     # fresh[t]: sorted t starts a rank
        fresh[0] = True

        # level 0: the key of i is its next k letters' packed codes << pb | i
        k = min(cap, free // bits)
        key = np.empty(L, dtype=np.int64)
        for lo, hi in _spans(L):
            codes = _pack_windows(arr, lut, k, bits, lo, hi, np.uint64)
            np.left_shift(codes.view(np.int64), pb, out=key[lo:hi])
            key[lo:hi] |= np.arange(lo, hi)
        rank = np.zeros(L + cap, dtype=np.int32)
        sa = None                           # allocated when first needed
        s = 0                               # a fallback round's shift
        while True:
            key.sort()
            for lo, hi in _spans(L, 1):
                high = key[lo - 1:hi] >> pb
                np.not_equal(high[1:], high[:-1], out=fresh[lo:hi])
            if s:
                # the low bits hold places in sa; put the positions back,
                # then split equal rank_k(i) where rank_k(i + s) differs
                for lo, hi in _spans(L):
                    at = sa[key[lo:hi] & mask]
                    key[lo:hi] &= ~mask
                    key[lo:hi] |= at
                for lo, hi in _spans(L, 1):
                    at = key[lo - 1:hi] & mask
                    at += s
                    there = rank[at]
                    fresh[lo:hi] |= there[1:] != there[:-1]
            if k == cap:
                break
            # the dense ranks 1..D in sorted order replace rank_k; past the
            # end stays 0
            D = 0
            for lo, hi in _spans(L):
                dense = np.cumsum(fresh[lo:hi], dtype=np.int32)
                dense += D
                rank[key[lo:hi] & mask] = dense
                D = int(dense[-1])
            rb = D.bit_length()
            q = free // rb
            if q >= 2:
                # the ranks of q windows at offsets 0, k, 2k, ..., the last
                # at cap - k when q k passes cap, above the position
                nxt = min(q * k, cap)
                offsets = [min(j * k, nxt - k) for j in range(-(-nxt // k))]
                for lo, hi in _spans(L):
                    key[lo:hi] = rank[lo:hi]
                    for off in offsets[1:]:
                        key[lo:hi] <<= rb
                        key[lo:hi] |= rank[lo + off:hi + off]
                    key[lo:hi] <<= pb
                    key[lo:hi] |= np.arange(lo, hi)
                k, s = nxt, 0
            else:
                # not two ranks fit: rank_k(i) << pb | place, the place of i
                # in sa listing the positions by rank_k(i + s): i + s past
                # the end first, then the sorted order shifted by s
                s = min(k, cap - k)
                if sa is None:
                    check_budget((_CENSUS_BYTES_PER_CHAR + 4) * L + extra,
                                 max_bytes, "fallback round of the " + what)
                    sa = np.empty(L, dtype=np.int32)
                top = min(s, L)
                sa[:top] = np.arange(L - top, L, dtype=np.int32)
                for lo, hi in _spans(L):
                    at = key[lo:hi] & mask
                    at = at[at >= s] - s
                    sa[top:top + len(at)] = at
                    top += len(at)
                for lo, hi in _spans(L):
                    key[lo:hi] = rank[sa[lo:hi]]
                    key[lo:hi] <<= pb
                    key[lo:hi] |= np.arange(lo, hi)
                k += s
        del rank
        sa = np.empty(L, dtype=np.int32) if sa is None else sa
        for lo, hi in _spans(L):
            sa[lo:hi] = key[lo:hi] & mask
        del key

        # capped lcp of the sorted neighbours of different rank (equal rank
        # means lcp = cap): step through both windows m letters at a time
        # while the codes agree, then read the common leading letters (fewer
        # than m) off the first differing codes, where letter t sits in bits
        # [b(m-1-t), b(m-t)); the end code 0 stops a window at the host end.
        # Runs of chunks are taken together while their rank changes number
        # at most a chunk's length, so a host whose rank changes are sparse
        # pays the up to cap / m steps once a run, not once a chunk
        packed = np.zeros(L + cap, dtype=np.uint32)
        for lo, hi in _spans(L):
            packed[lo:hi] = _pack_windows(arr, lut, m, bits, lo, hi, np.uint32)
        pow2 = 1 << np.arange(32, dtype=np.uint32)
        lcp = np.full(L, cap, dtype=np.int32)
        lcp[0] = 0

        def gather(lo, hi):
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

        step, start, full = _span_len(L), 1, 0
        for lo, hi in _spans(L, 1):
            k = np.count_nonzero(fresh[lo:hi])
            if full + k > step:
                gather(start, lo)
                start, full = lo, 0
            full += k
        gather(start, L)
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
