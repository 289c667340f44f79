# Core utilities on finite words over small alphabets.
#
# Conventions used throughout the package:
#   a "word" is a plain python str over a small alphabet (e.g. "012" or "ab")
#   p(n) = number of distinct factors of length n (subword complexity)
#   occurrences are counted with overlaps
#   all frequencies are exact rationals (fractions.Fraction)
#
# One exact counting backend lives here: a sorted-window census (suffix
# sorting, numpy) that gives, for every length n <= cap, the number of
# distinct windows and the ascending occurrence positions of each.  Exact
# sets of factor strings serve small hosts; the byte budget is checked
# before they are built.

import os
from dataclasses import dataclass, field
from fractions import Fraction

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


class Alphabet:
    """An ordered finite alphabet of single characters."""

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in symbols):
            raise ValueError("alphabet symbols must be single characters")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, s):
        return s in self._index

    def __iter__(self):
        return iter(self.symbols)

    def index(self, s):
        return self._index[s]

    def validate(self, word):
        for c in word:
            if c not in self._index:
                raise ValueError("symbol %r not in alphabet %r" % (c, "".join(self.symbols)))

    def __repr__(self):
        return "Alphabet(%r)" % ("".join(self.symbols),)


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


def frequency(pattern, host):
    """phi_u(w) = Phi_u(w) / |w| as an exact Fraction.

    Phi_u(w) is the overlapping occurrence count.
    """
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    if len(host) == 0:
        raise ValueError("empty host")
    if len(host) < len(pattern):
        return Fraction(0)
    return Fraction(count_occurrences(pattern, host), len(host))


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


# ---------------------------------------------------------------------------
# factor sets

# bytes a set member takes beyond its n characters: the 49-byte str header
# and its share of the hash table (91-109 bytes measured on 64-bit CPython
# 3.11 for n = 20..100)
_SET_MEMBER_BYTES = 112


def factor_set(hosts, n, max_bytes=None):
    """frozenset of the length-n factors of the given host words.

    Raises ValueError("budget: ...") before building any string when the
    windows could take more than the byte budget as set members.
    """
    if isinstance(hosts, str):
        hosts = [hosts]
    if n < 0:
        raise ValueError("factor length must be non-negative")
    if n == 0:
        return frozenset({""})
    budget = max_bytes_budget(max_bytes)
    total_windows = sum(max(0, len(h) - n + 1) for h in hosts)
    need = total_windows * (n + _SET_MEMBER_BYTES)
    if need > budget:
        raise ValueError("budget: %d length-%d windows need up to %d bytes > %d"
                         % (total_windows, n, need, budget))
    return frozenset(h[i:i + n] for h in hosts for i in range(len(h) - n + 1))


def distinct_factor_count(hosts, n, max_bytes=None):
    """Exact number of distinct length-n factors of the host words."""
    return len(factor_set(hosts, n, max_bytes=max_bytes))


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


def naive_containment(host, K, patterns):
    """Slow direct rescan of every window; oracle for sliding_containment_scan."""
    for i in range(len(host) - K + 1):
        w = host[i:i + K]
        for p in sorted(set(patterns)):
            if p not in w:
                return False, i, p
    return True, None, None


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


class WindowCensus:

    def __init__(self, host, cap, separators=""):
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.host = host
        self.cap = cap
        self.separators = separators
        sa, lcp, vlen = self._build_numpy(host, cap, separators)
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
    def _build_numpy(host, cap, separators):
        arr = np.frombuffer(host.encode("latin1"), dtype=np.uint8)
        L = len(arr)
        pad = cap + 1
        # per-level rank arrays; padding positions get unique negative ranks
        # so any comparison against them fails
        def with_pad(core):
            r = np.empty(L + pad, dtype=np.int32)
            r[:L] = core
            r[L:] = -np.arange(1, pad + 1, dtype=np.int32)
            return r

        rank = with_pad(arr.astype(np.int32))
        levels = [rank]
        k = 1
        order = np.argsort(rank[:L], kind="stable")
        while k < cap:
            key = ((rank[:L].astype(np.int64) + pad) << np.int64(33)) \
                | (rank[k:L + k].astype(np.int64) + pad)
            order = np.argsort(key)
            skey = key[order]
            newr = np.empty(L, dtype=np.int32)
            newr[order] = np.cumsum(np.concatenate(([0], (np.diff(skey) != 0).astype(np.int32))), dtype=np.int32)
            del key, skey
            rank = with_pad(newr)
            levels.append(rank)
            k <<= 1
        sa = order.astype(np.int64)
        # capped lcp of adjacent sorted suffixes via the level ranks
        x = sa[1:]
        y = sa[:-1]
        h = np.zeros(L - 1, dtype=np.int64)
        for j in range(len(levels) - 1, -1, -1):
            step = 1 << j
            if step > cap:
                continue
            lev = levels[j]
            can = h + step <= cap
            eq = can & (lev[x + h] == lev[y + h])
            h = h + np.where(eq, step, 0)
        del levels
        lcp = np.zeros(L, dtype=np.int64)
        lcp[1:] = np.minimum(h, cap)
        if separators:
            sep_pos = np.flatnonzero(np.isin(arr, np.frombuffer(separators.encode("latin1"), dtype=np.uint8)))
            sep_pos = np.concatenate((sep_pos, [L]))
            nxt = sep_pos[np.searchsorted(sep_pos, np.arange(L), side="left")]
            vlen_all = nxt - np.arange(L)
        else:
            vlen_all = L - np.arange(L)
        vlen = np.minimum(vlen_all, cap)[sa]
        return sa, lcp, vlen
