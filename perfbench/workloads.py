"""One iteration of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py --workload NAME --seed N --t0 T --trace 0|1

T is the spawning process's time.perf_counter() at spawn.  On Linux that
clock is CLOCK_MONOTONIC, which all processes share, so the child can
report its start-up and set-up times from the moment it was spawned.

The child imports the whole wordlab library, as the wordlab CLI does, then
builds the workload's word families and runs its verdicts through the
library's public API.  Every check compares an exact value or verdict
with the EXPECTED table below; a call that raises counts as one failed
check.  Nothing is retried.  With --trace 1 every call runs inside a span
(name, start, end, parent, RSS high-water mark, counts); the spans stay in
memory and are printed with the result when the workload ends.

The last stdout line is one JSON object (see `main`).
"""

import sys

OPTIMIZE_EXIT = 3

if sys.flags.optimize:
    # `python -O` strips the library's assert-based checks, so a verdict
    # obtained under it is worthless.
    sys.stderr.write("perfbench: refusing to run with sys.flags.optimize=%d\n"
                     % sys.flags.optimize)
    sys.exit(OPTIMIZE_EXIT)

import argparse
import importlib
import json
import math
import random
import resource
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction

# import order follows the library's own dependencies, so each import span
# holds only that module's own import cost (words_core's includes numpy)
MODULES = ("words_core", "growth_functions", "xk_words", "substitution_word",
           "steinberg_algebra", "ergodic_subshift")
# the per-layer counts a traced run reports, each added up by Run.count
COUNTS = ("words_core.census_chars", "xk_words.host_chars",
          "steinberg_algebra.contains_calls", "steinberg_algebra.contains_distinct",
          "ergodic_subshift.deepest_words")

EXPECTED = {
    "xk-ergodic": {
        "level_sizes": [2, 4, 16, 256, 256, 65536],
        "p_81": 29193,
        # p_w(162) from criterion 07; the sampled host's windows are
        # factors of w, so their count cannot exceed it
        "p_w_162": 2280457,
        "W_sizes": [2, 2, 4, 16, 32, 32, 512, 512, 131072],
        "d_sequence": {2: 2, 3: 16, 4: 128, 5: 1024, 6: 8192, 7: 65536},
        "n0": 5,
    },
    "subst-algebra": {
        "p_18": 68,
        "p_1188": 2590,
        "rec_18": 197,
        "unit_terms": {0: 128, 1: 718},
        "ret_lower_18": 90,
    },
}

# workload sizes; chosen so that one iteration takes a few seconds on a
# 2-core machine and several iterations fit in one benchmark run
XK_HOST_WORDS = 4096          # X_6 words in the sampled level-6 host
XK_CENSUS_CAP = 162           # the spike criterion's census cap
SUBST_SLICE = 400_000         # chars taken from each of alpha_4, beta_4
SUBST_CAP = 1188              # Ntilde_3: longest n the level-3 census covers
ERGODIC_MAX_LEVEL = 8
ERGODIC_FREQ_N = 4


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Spans, counts and checks of one workload iteration."""

    def __init__(self, t0, traced):
        self.t0 = t0
        self.traced = traced
        self.spans = []
        self.counts = {}
        self.attempted = 0
        self.failures = []
        self.setup_end = None
        self._stack = []

    @contextmanager
    def span(self, name):
        """Time the enclosed calls into one module; name is module.call."""
        if not self.traced:
            yield
            return
        rec = {"name": name, "start": time.perf_counter() - self.t0,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0
            rec["rss_mb"] = _rss_mb()

    def count(self, name, value):
        """Add to a count of the iteration and of the latest span."""
        self.counts[name] = self.counts.get(name, 0) + value
        if self.spans:
            counts = self.spans[-1].setdefault("counts", {})
            counts[name] = counts.get(name, 0) + value

    def setup_done(self):
        self.setup_end = time.perf_counter()

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, detail or "failed"))

    def equal(self, name, got, want):
        self.check(name, got == want, "got %r, expected %r" % (got, want))

    @contextmanager
    def guard(self, name):
        """A call that raises inside counts as one failed check."""
        try:
            yield
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failures.append("%s: raised %s: %s" % (name, type(exc).__name__, exc))


# ---------------------------------------------------------------------------
# xk-ergodic: criterion 06 and the spike criterion's cap-162 census, then
# criterion 09, frequency deviation, factor decomposition, the sandwich and
# criterion 08.  The census runs while the ergodic levels built at set-up
# are held, and sets the peak RSS; the later spans stay below it.


def xk_ergodic(run, lib, seed):
    xk, es, gf = lib["xk_words"], lib["ergodic_subshift"], lib["growth_functions"]
    with run.span("xk_words.build_levels"):
        oracle = xk.XkOracle(xk.XkParams(r=2, max_level=6))
    with run.span("growth_functions.f_table"):
        f = gf.GrowthTable.from_function(_two_to_ceil_sqrt, 1024)
    with run.span("ergodic_subshift.build"):
        levels = es.build_ergodic_levels(es.ErgodicParams(f=f, max_level=ERGODIC_MAX_LEVEL))
    run.setup_done()
    _xk_census(run, lib, oracle, seed)
    del oracle
    _ergodic_growth(run, lib, levels, seed)


def _xk_census(run, lib, oracle, seed):
    xk, wc = lib["xk_words"], lib["words_core"]
    want = EXPECTED["xk-ergodic"]
    with run.guard("criterion 06"), run.span("xk_words.structure"):
        rep = xk.verify_xk_structure(oracle)
        run.check("06 boundary letters", all(rep["boundary_letters"].values()))
        run.check("06 extension", all(rep["extension"].values()))
        run.check("06 pushdown", all(all(d.values()) for d in rep["pushdown"].values()))
        run.equal("06 level sizes", [oracle.level(k).s for k in range(1, 7)],
                  want["level_sizes"])

    with run.guard("p(1..81)"):
        with run.span("xk_words.table"):
            table = xk.xk_complexity_table(oracle, 1, 81)
        p = table["p"]
        run.equal("p(81)", p[81], want["p_81"])
        run.check("p(n) <= 4 * 3^(alpha 2^r + 1) n^(alpha 2^r + 1)",
                  all(table["bound_alpha_2r_ok"].values()))

    with run.guard("level-6 census"):
        # a seeded host of X_6 words joined by 0^243, as the search host is;
        # its first halves run through every X_5 word, so its windows of
        # length <= 81 are exactly L_w(n), and no window of length <= 162
        # spans two words, so every window is a factor of w
        rng = random.Random(seed)
        x5 = list(oracle.level(5).words)
        rng.shuffle(x5)
        zeros81 = "0" * 81
        words = [x5[i % len(x5)] + zeros81 + x5[rng.randrange(len(x5))]
                 for i in range(XK_HOST_WORDS)]
        x6 = set(oracle.level(6).words)
        run.check("sampled words lie in X_6", all(w in x6 for w in words))
        sample = ("0" * 243).join(words)
        with run.span("words_core.census"):
            census = wc.WindowCensus(sample, XK_CENSUS_CAP)
        run.count("words_core.census_chars", len(sample))
        got = [census.count(n) for n in range(1, XK_CENSUS_CAP + 1)]
        del census
        run.equal("census p(1..81) agrees with the level-5 table",
                  got[:81], [p[n] for n in range(1, 82)])
        run.check("census p(162) <= p_w(162)", got[-1] <= want["p_w_162"],
                  "got %d" % got[-1])
        run.equal("census p(1..162) agrees with a sort of packed windows",
                  got, _window_counts(sample, XK_CENSUS_CAP))

    with run.guard("language queries"):
        # seeded length-162 windows of the sampled host are factors of w;
        # nonzero letters never touch in w, so "11" is not
        with run.span("xk_words.host"):
            host = oracle.search_host(6)
        run.count("xk_words.host_chars", len(host))
        queries = [sample[i:i + XK_CENSUS_CAP] for i in
                   (rng.randrange(len(sample) - XK_CENSUS_CAP) for _ in range(16))]
        with run.span("xk_words.contains"):
            found = [oracle.contains(u) for u in queries + ["11"]]
        run.equal("contains: 16 sampled factors, then 11", found, [True] * 16 + [False])


def _window_counts(text, cap):
    """p(1..cap) of a text over 0, 1, 2, by a route that shares nothing with
    WindowCensus: each position's next letters, two bits a letter, fill a row
    of uint64 words; the rows are sorted, and the length-n prefixes of sorted
    rows differ where two neighbours agree on fewer than n letters.  Letters
    past the end read as 3, so the n - 1 rows that run off the end have
    prefixes of their own, which are taken off."""
    import numpy as np              # already loaded by words_core
    width = 32 * -(-cap // 32)      # letters per row
    L = len(text)
    codes = np.full(L + width, 3, dtype=np.uint64)
    codes[:L] = np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")
    if codes[:L].max() > 2:
        raise ValueError("letters other than 0, 1, 2")
    packed = codes
    for k in (1, 2, 4, 8, 16):      # packed[i] holds letters i .. i + 2k - 1
        packed = (packed[:-k] << np.uint64(2 * k)) | packed[k:]
    cols = [packed[32 * j:32 * j + L] for j in range(width // 32)]
    order = np.lexsort(cols[::-1])
    agree = np.full(L - 1, width)   # common prefix of sorted neighbours
    undecided = np.ones(L - 1, dtype=bool)
    pow2 = np.uint64(1) << np.arange(64, dtype=np.uint64)
    for j, col in enumerate(cols):
        s = col[order]
        x = s[1:] ^ s[:-1]
        hit = undecided & (x != 0)
        top = np.searchsorted(pow2, x[hit], side="right") - 1
        agree[hit] = 32 * j + (63 - top) // 2
        undecided &= ~hit
    below = np.cumsum(np.bincount(np.minimum(agree, cap), minlength=cap + 1))
    return [1 + int(below[n - 1]) - (n - 1) for n in range(1, cap + 1)]


def _two_to_ceil_sqrt(n):
    r = math.isqrt(n)
    return 2 ** (r + (0 if r * r == n else 1))


def _ergodic_growth(run, lib, levels, seed):
    es, gf = lib["ergodic_subshift"], lib["growth_functions"]
    want = EXPECTED["xk-ergodic"]
    run.count("ergodic_subshift.deepest_words", len(levels.W(levels.deepest)))
    run.equal("W sizes", [len(lv.W) for lv in levels.levels], want["W_sizes"])
    rng = random.Random(seed)

    # in W(8), 95% of letters are a and 5% are b; u=a is left out: its
    # interval counts make 32M str.find calls, 6-7 s that would leave too
    # few iterations in a run for a steady median
    for u in ("b", "ab", "aab"):
        with run.guard("criterion 09 u=%s" % u), run.span("ergodic_subshift.nesting"):
            run.check("09 nesting u=%s" % u, es.verify_interval_nesting(levels, u)["pass"])

    with run.guard("frequency deviation"), run.span("ergodic_subshift.freq_deviation"):
        rep = es.verify_frequency_deviation(levels, "ab", ERGODIC_FREQ_N)
        run.check("frequency deviation u=ab n=%d" % ERGODIC_FREQ_N, rep["pass"])

    with run.guard("decomposition"):
        deep = levels.W(levels.deepest)
        word = deep[rng.randrange(len(deep))]
        i = rng.randrange(len(word) - 96)
        v = word[i:i + rng.randint(32, 96)]
        with run.span("ergodic_subshift.decompose"):
            rep = es.decompose_factor(levels, v)
        run.check("decomposition spells v",
                  "".join(w for _, w in rep["blocks"]) == v
                  and rep["r"] + rep["s"] == len(rep["blocks"]))

    with run.guard("sandwich"), run.span("ergodic_subshift.sandwich"):
        rep = es.verify_sandwich(levels)
        run.check("sandwich", all(r["lower_ok"] and r["count_ok"] for r in rep.values()))

    with run.guard("criterion 08"):
        with run.span("growth_functions.table"):
            g = gf.GrowthTable.from_name("n^2", 10**6)
        with run.span("growth_functions.witness"):
            w = gf.build_superlinear_witness(g)      # runs verify_witness
        run.equal("08 d-sequence", w.d, want["d_sequence"])
        run.equal("08 n0", w.n0, want["n0"])
        run.check("08 witness checks", all(v for k, v in w.checks.items()
                                           if k not in ("d_sequence", "n0")))


# ---------------------------------------------------------------------------
# subst-algebra: criteria 01-05 and 10-12, the return bracket, and a
# separator census on seeded windows of the level-4 masters.  The census runs
# last: it sets the peak RSS.  Run before the algebra, the peak depended on
# whether the algebra's heap growth happened to reuse the census's freed
# memory, and moved by 36 MB between otherwise identical runs.


def subst_algebra(run, lib, seed):
    sw, sa, wc = lib["substitution_word"], lib["steinberg_algebra"], lib["words_core"]
    want = EXPECTED["subst-algebra"]
    with run.span("substitution_word.build"):
        levels = sw.build_substitution_levels(sw.SubstParams(gamma=2))
    with run.span("steinberg_algebra.language"):
        lang = _counting_language(sa)(levels) if run.traced else sa.SubstLanguage(levels)
    run.setup_done()
    rng = random.Random(seed)

    with run.guard("criterion 01"), run.span("substitution_word.densities"):
        for k in range(5):
            d = sw.densities(levels, k)
            run.equal("01 densities k=%d" % k,
                      (d["phi_a_alpha"], d["phi_a_beta"]),
                      (Fraction(3**k + 1, 2 * 3**k), Fraction(3**k - 1, 2 * 3**k)))

    p = {}
    with run.guard("criterion 02"):
        with run.span("substitution_word.complexity"):
            for n in range(1, SUBST_CAP + 1):
                p[n] = levels.complexity(n)
        run.equal("02 p(18)", p[18], want["p_18"])
        run.equal("02 p(1188)", p[SUBST_CAP], want["p_1188"])
        run.check("02 n+1 <= p(n) <= 14n",
                  all(p[n] >= n + 1 and (n < levels.Nt[1] or p[n] <= 14 * n)
                      for n in p))

    with run.guard("criteria 03-04"), run.span("substitution_word.structure"):
        for k in range(3):
            r = sw.beta_cubed_positions(levels, k)
            lo, hi = levels.N[k + 1] - 3 * levels.N[k] + 2, levels.N[k + 1]
            pos = r["beta_cubed_in_AB"]["positions"]
            run.check("03 beta^3 localized k=%d" % k,
                      bool(pos) and all(lo <= i <= hi for i in pos))
        for k in (1, 2, 3):
            run.check("04 aperiodic k=%d" % k,
                      wc.min_period(levels.AB(k), levels.Nt[k]) is None
                      and wc.min_period(levels.BA(k), levels.Nt[k]) is None)

    with run.guard("criterion 05"), run.span("substitution_word.rec_find"):
        run.equal("05 Rec(18)", sw.recurrence_function(levels, 18)["rec"],
                  want["rec_18"])

    @contextmanager
    def algebra(check, call):
        """A guarded steinberg_algebra span; in a traced iteration the
        language queries made inside it are counted when it ends."""
        calls, distinct = (lang.calls, len(lang.seen)) if run.traced else (0, 0)
        with run.guard(check), run.span("steinberg_algebra." + call):
            yield
        if run.traced:
            run.count("steinberg_algebra.contains_calls", lang.calls - calls)
            run.count("steinberg_algebra.contains_distinct", len(lang.seen) - distinct)

    with algebra("criterion 10", "identities"):
        _algebra_identities(run, sa, lang, rng)

    with algebra("criterion 11", "unit_decomposition"):
        for l in (0, 1):
            rep = sa.verify_unit_decomposition(lang, l)
            run.check("11 pass l=%d" % l, rep["pass"])
            run.equal("11 terms l=%d" % l, rep["terms"], want["unit_terms"][l])
            run.check("11 degree bounds l=%d" % l,
                      rep["max_left_degree"] <= 12 * rep["N_l1"]
                      and rep["max_right_degree"] <= 9 * rep["N_l1"])

    with algebra("criterion 12", "witness_products"):
        host = levels.AB(3)
        for i in range(20):
            terms = {}
            while not terms:
                for _ in range(rng.randint(1, 4)):
                    d = rng.randint(-3, 3)
                    L = rng.randint(1, 3)
                    lo = rng.randint(-3, 4 - L)
                    j = rng.randrange(len(host) - 4)
                    c = rng.randint(-3, 3)
                    if c:
                        terms[(d, lo, host[j:j + L])] = c
            rep = sa.witness_product(sa.AlgebraElement(lang, terms))
            run.check("12 witness product %d" % i, rep["pass"])

    with algebra("return bracket", "ret_bracket"):
        rep = sa.ret_bracket_report(lang, 18)
        run.equal("ret bracket (rec, lower, vanish)",
                  (rep["rec"], rep["lower_Ret"], rep["type_star_vanish"]),
                  (want["rec_18"], want["ret_lower_18"], True))

    with run.guard("separator census"):
        # any window of alpha_4 or beta_4 longer than two periods
        # (alpha_3^2 beta_3 or its mirror) plus Ntilde_3 holds alpha_3 beta_3
        # and beta_3 alpha_3, so its factors of length <= Ntilde_3 are L_w(n)
        a0 = rng.randrange(levels.N[4] - SUBST_SLICE)
        b0 = rng.randrange(levels.N[4] - SUBST_SLICE)
        host = (levels.alpha[4][a0:a0 + SUBST_SLICE] + "|"
                + levels.beta[4][b0:b0 + SUBST_SLICE])
        with run.span("words_core.census_sep"):
            census = wc.WindowCensus(host, SUBST_CAP, separators="|")
        run.count("words_core.census_chars", len(host))
        run.equal("separator census agrees with p(1..1188)",
                  [census.count(n) for n in range(1, SUBST_CAP + 1)],
                  [p.get(n) for n in range(1, SUBST_CAP + 1)])


def _counting_language(sa):
    class CountingLanguage(sa.SubstLanguage):
        """SubstLanguage that counts its membership queries."""

        def __init__(self, levels):
            super().__init__(levels)
            self.calls = 0
            self.seen = set()

        def contains(self, u):
            self.calls += 1
            self.seen.add(u)
            return super().contains(u)

    return CountingLanguage


def _algebra_identities(run, sa, lang, rng):
    gens = sa.make_generators(lang)
    one, T, Tinv, proj = gens["one"], gens["T"], gens["Tinv"], gens["proj"]
    run.check("10 T * T^-1 = T^-1 * T = 1",
              sa.convolve(T, Tinv) == one and sa.convolve(Tinv, T) == one)
    run.check("10 sum of projections = 1", sum(proj.values(), sa.zero(lang)) == one)
    T3 = sa.convolve(sa.convolve(T, T), T)
    Tm3 = sa.convolve(sa.convolve(Tinv, Tinv), Tinv)
    run.equal("10 T^-3 1_a T^3", sa.convolve(sa.convolve(Tm3, proj["a"]), T3).terms,
              {(0, 3, "a"): Fraction(1)})
    host = lang.levels.AB(3)

    def rand_elem():
        t = {}
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(host) - 3)
            L = rng.randint(0, 2)
            key = ((rng.randint(-2, 2), rng.randint(-2, 0), host[i:i + L]) if L
                   else (rng.randint(-2, 2), 0, ""))
            t[key] = rng.randint(-3, 3)
        return sa.AlgebraElement(lang, t)

    assoc = True
    for _ in range(1000):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assoc = assoc and (sa.convolve(sa.convolve(a, b, canonical=False), c).terms
                           == sa.convolve(a, sa.convolve(b, c, canonical=False)).terms)
    run.check("10 associativity on 1000 seeded triples", assoc)
    graded = True
    for _ in range(1000):
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        i, j = rng.randrange(len(host) - 2), rng.randrange(len(host) - 2)
        fe = sa.AlgebraElement(lang, {(p, 0, host[i:i + 2]): 1})
        ge = sa.AlgebraElement(lang, {(q, 0, host[j:j + 2]): 1})
        graded = graded and all(d == p + q for d, _, _ in
                                sa.convolve(fe, ge, canonical=False).terms)
    run.check("10 grading on 1000 seeded pairs", graded)


WORKLOADS = {
    "xk-ergodic": xk_ergodic,
    "subst-algebra": subst_algebra,
}


def main(argv=None):
    """Print one JSON line: {"startup_s", "setup_s", "attempted",
    "failures", "versions", "counts", "spans"}; spans only with --trace 1."""
    t_main = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(args.t0, bool(args.trace))
    lib = {}
    with run.span("workload"):
        for name in MODULES:
            with run.span(name + ".import"):
                lib[name] = importlib.import_module("wordlab." + name)
        # a raise outside the guarded checks means the set-up failed
        with run.guard("set-up"):
            WORKLOADS[args.workload](run, lib, args.seed)
    out = {
        "startup_s": t_main - args.t0,
        "setup_s": (run.setup_end or time.perf_counter()) - args.t0,
        "attempted": run.attempted,
        "failures": run.failures,
        "versions": {"python": sys.version.split()[0],
                     "numpy": sys.modules["numpy"].__version__
                     if "numpy" in sys.modules else None},
        "counts": run.counts,
    }
    if run.traced:
        out["spans"] = run.spans
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
