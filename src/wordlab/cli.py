# Batch front-end: build the word families, run the analyzers and the
# lemma-verification suites, and emit deterministic CSV/JSON reports.
#
# Exit codes:
#   0  success, every verification in the run passed
#   1  at least one verification failed; the failing witness is serialized
#      (a check that raises AssertionError gives {"failed_assertion": msg})
#   2  usage or resource errors
#
# Determinism contract: identical invocations produce identical bytes.  All
# randomized choices flow through the single recorded seed, which appears in
# every report header.  CSV cells hold exact rationals as "num/den"; JSON
# reports carry a versioned schema tag.

import argparse
import json
import os
import sys
from fractions import Fraction

from .growth_functions import (
    GrowthTable,
    build_superlinear_witness,
    discrete_derivative,
    witness_properties,
)
from .words_core import check_budget, max_bytes_budget

SCHEMA = "wordlab-report/1"
MIN_MAX_BYTES = 64 * 2**20


class UsageError(Exception):
    pass


class VerificationFailure(Exception):
    """Carries the failing witness for serialization."""

    def __init__(self, witness):
        super().__init__("verification failed")
        self.witness = witness


def _rat(x):
    """Exact "num/den" rendering; integers stay plain."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 \
            else str(x.numerator)
    return x


def _jsonable(x):
    if isinstance(x, Fraction):
        return _rat(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        seq = sorted(x) if isinstance(x, (set, frozenset)) else x
        return [_jsonable(v) for v in seq]
    if isinstance(x, bytes):
        return x.decode("ascii", "replace")
    return x


def parse_range(text):
    """"LO..HI" or a single integer."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
    else:
        lo = hi = int(text)
    if lo > hi or lo < 1:
        raise UsageError("bad range %r" % text)
    return lo, hi


def parse_int_list(text, flag):
    """The integers of a comma-separated flag value."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError("--%s takes comma-separated integers, got %r"
                         % (flag, text)) from None


def load_config(path):
    """Plain-text key=value defaults; flags override."""
    out = {}
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError("config line without '=': %r" % line)
                k, v = line.split("=", 1)
                out[k.strip().replace("-", "_")] = v.strip()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError("cannot read config %s: %s" % (path, e))
    return out


def emit_report(payload, args, rows=None, columns=None, passed=True):
    """Serialize a run deterministically.

    JSON output is the full payload under a versioned header.  CSV output
    needs tabular rows; the header line records seed and command so that
    every report carries its provenance.  A run that did not pass then
    raises VerificationFailure with the payload as its witness.
    """
    command = "%s %s" % (args.family, args.command)
    if args.format == "json":
        doc = {
            "schema": SCHEMA,
            "command": command,
            "seed": args.seed,
            "pass": passed,
            "report": _jsonable(payload),
        }
        text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    else:
        if rows is None:
            raise UsageError("command %s has no CSV form; use --format json"
                             % command)
        lines = ["# schema=%s command=%s seed=%d pass=%s"
                 % (SCHEMA, command.replace(" ", ":"), args.seed, passed)]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(str(_rat(c)) for c in row))
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError("unwritable output path %s: %s" % (args.output, e))
    else:
        sys.stdout.write(text)
    if not passed:
        raise VerificationFailure(payload)


# ---------------------------------------------------------------- families
# Runners map flags to library calls and print what they return; every
# verdict is a raised check or a report's `pass` key.

# Peak bytes per n of `growth build`, which tabulates f, f' and omega and
# holds and prints one row per n: from tracemalloc peaks for g = n^2 at
# n_max = 10^5 and 4*10^5, 660 with --format json and 280 with csv.  The
# witness is held as O(log n_max) segments and `growth check` decides every
# property on them, so it costs nothing per n.
_GROWTH_BYTES_PER_N = 700


def run_growth(args):
    g = GrowthTable.from_name(args.g, args.n_max)
    w = build_superlinear_witness(g)           # runs verify_witness
    if args.command == "check":
        # on the witness's segments: no table of f is built
        emit_report(witness_properties(w), args)
        return
    check_budget(_GROWTH_BYTES_PER_N * args.n_max, args.max_bytes,
                 "growth build tabulates %d values of f, about" % args.n_max)
    deriv, flag = discrete_derivative(w.f)
    rows = [(n, w.f.values[n], deriv.values[n], w.omega[n])
            for n in range(1, w.f.n_max + 1)]
    payload = {
        "g": args.g,
        "n_max": args.n_max,
        "d_sequence": w.d,
        "n0": w.n0,
        "superlinear_from": w.superlinear_from,
        "derivative_flag": flag,
        "table": rows if args.format == "json" else "see CSV",
    }
    emit_report(payload, args, rows=rows, columns=["n", "f", "f_prime", "omega"])


def run_xk(args):
    from .xk_words import (
        XkOracle,
        XkParams,
        verify_derivative_spike,
        verify_xk_structure,
        xk_complexity_table,
    )
    oracle = XkOracle(XkParams(r=args.r, max_level=args.max_level,
                               max_bytes=args.max_bytes))
    if args.command == "build":
        rows = [(lv.k, lv.n, lv.s, lv.phase,
                 "explicit" if lv.explicit else "implicit")
                for lv in oracle.levels[1:]]
        emit_report({"r": args.r, "levels": rows}, args, rows=rows,
                    columns=["k", "n_k", "s_k", "phase", "storage"])
    elif args.command == "complexity":
        lo, hi = parse_range(args.n)
        t = xk_complexity_table(oracle, lo, hi)
        rows = [(n, t["p"][n], t["p_prime"].get(n, ""),
                 t["bound_alpha_2r_ok"][n])
                for n in range(lo, hi + 1)]
        emit_report({"range": [lo, hi], "table": rows}, args, rows=rows,
                    columns=["n", "p", "p_prime", "bound_ok"])
    elif args.command == "verify-structure":
        emit_report(verify_xk_structure(oracle), args)
    else:                                      # verify-spike
        rep = verify_derivative_spike(oracle, l=args.l,
                                      epsilon=Fraction(args.epsilon))
        emit_report(rep, args, passed=rep["pass"])


def run_ergodic(args):
    from .ergodic_subshift import (
        ErgodicParams,
        build_ergodic_levels,
        decompose_factor,
        interval_rows,
        verify_interval_nesting,
    )
    n_max = max(2 ** (args.max_level + 2), 16)
    params = ErgodicParams(f=GrowthTable.from_name(args.f, n_max),
                           max_level=args.max_level, choice_policy=args.policy,
                           seed=args.seed, max_bytes=args.max_bytes)
    levels = build_ergodic_levels(params)
    if args.command == "build":
        rows = [(row["k"], row["c_k"], row["W_size"], row["queue_len"],
                 row["consumed_head"]) for row in levels.run_log]
        payload = {"f": args.f, "policy": args.policy,
                   "c": levels.cseq.c, "N": levels.cseq.N,
                   "ones": sorted(levels.cseq.ones), "log": rows}
        emit_report(payload, args, rows=rows,
                    columns=["k", "c_k", "W_size", "queue_len", "consumed"])
    elif args.command == "intervals":
        rows = interval_rows(levels, args.u)
        rep = verify_interval_nesting(levels, args.u)
        emit_report({"u": args.u, "rows": rows, "nesting": rep}, args,
                    rows=rows, columns=["n", "a_n", "b_n", "delta_n"],
                    passed=rep["pass"])
    else:                                      # decompose
        d = decompose_factor(levels, args.word)
        rows = [(m, blk) for m, blk in d["blocks"]]
        emit_report({"word": args.word, "decomposition": d}, args,
                    rows=rows, columns=["level", "block"])


def _subst_levels(args):
    from .substitution_word import SubstParams, build_substitution_levels
    if args.n_list:
        params = SubstParams(n_list=parse_int_list(args.n_list, "n-list"),
                             max_bytes=args.max_bytes)
    else:
        params = SubstParams(gamma=Fraction(args.gamma),
                             max_bytes=args.max_bytes)
    return build_substitution_levels(params, K=args.levels)


def run_subst(args):
    from .substitution_word import (
        complexity_rows,
        densities,
        recurrence_function,
        verify_substitution_lemmas,
    )
    levels = _subst_levels(args)
    if args.command == "build":
        rows = [(k, levels.n[k] if k else "", levels.N[k], levels.Nt[k])
                for k in range(levels.K + 1)]
        emit_report({"gamma": args.gamma, "K": levels.K, "table": rows},
                    args, rows=rows, columns=["k", "n_k", "N_k", "Ntilde_k"])
    elif args.command == "complexity":
        lo, hi = parse_range(args.n)
        rows = complexity_rows(levels, lo, hi)
        emit_report({"range": [lo, hi], "table": rows}, args, rows=rows,
                    columns=["n", "p", "p_prime", "bounds_ok"])
    elif args.command == "densities":
        rows = []
        for k in range(levels.K + 1):
            d = densities(levels, k)
            rows.append((k, d["phi_a_alpha"], d["phi_b_alpha"],
                         d["phi_a_beta"], d["phi_b_beta"]))
        emit_report({"table": rows}, args, rows=rows,
                    columns=["k", "phi_a_alpha", "phi_b_alpha",
                             "phi_a_beta", "phi_b_beta"])
    elif args.command == "recurrence":
        rows = []
        for n in parse_int_list(args.n, "n"):
            r = recurrence_function(levels, n)
            rows.append((n, r["rec"], r["upper_bound_7Nk"]))
        emit_report({"table": rows}, args, rows=rows,
                    columns=["n", "rec", "upper_7Nk"])
    else:                                      # verify
        rec_samples = parse_int_list(args.rec_samples, "rec-samples") \
            if args.rec_samples else []
        emit_report(verify_substitution_lemmas(levels, args.k_max,
                                               rec_samples=rec_samples,
                                               p_max=args.p_max), args)


def run_algebra(args):
    from .steinberg_algebra import (
        SubstLanguage,
        make_generators,
        ret_bracket_report,
        verify_algebra_identities,
        verify_random_witness_products,
        verify_unit_decomposition,
        w_basis_dimensions,
        witness_product,
    )
    lang = SubstLanguage(_subst_levels(args))
    if args.command == "identities":
        rep = verify_algebra_identities(lang, args.trials, args.seed)
    elif args.command == "witness-product":
        if args.random:
            rep = verify_random_witness_products(lang, args.random, args.seed,
                                                 l=args.l)
        else:
            rep = witness_product(make_generators(lang)["proj"][args.proj],
                                  l=args.l)
    elif args.command == "decompose-identity":
        rep = verify_unit_decomposition(lang, args.l)
    elif args.command == "ret-bracket":
        rep = ret_bracket_report(lang, args.n)
    else:                                      # dims
        rows = [(r["N"], r["dim"], r.get("ratio_2N_over_N", ""))
                for r in w_basis_dimensions(lang, args.N)]
        emit_report({"table": rows}, args, rows=rows,
                    columns=["N", "dim_W_N", "ratio_2N_over_N"])
        return
    emit_report(rep, args)


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a UsageError, as every exit 2 is."""

    def error(self, message):
        raise UsageError("%s: %s" % (self.prog, message))


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument("--output", default=None, help="file path; default stdout")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--max-bytes", type=int, default=None,
                        help="resource budget; env WORDLAB_MAX_BYTES honored")
    common.add_argument("--config", default=None,
                        help="key=value file supplying flag defaults")

    p = _Parser(prog="wordlab")
    fam = p.add_subparsers(dest="family", required=True)

    g = fam.add_parser("growth")
    g.add_argument("--g", default="n^2",
                   help="id | n^2 | nlogn | 2^ceil-sqrt | const-2")
    g.add_argument("--n-max", type=int, default=4096)
    gs = g.add_subparsers(dest="command", required=True)
    gs.add_parser("build", parents=[common])
    gs.add_parser("check", parents=[common])

    x = fam.add_parser("xk")
    x.add_argument("--r", type=int, default=2)
    x.add_argument("--max-level", type=int, default=5)
    xs = x.add_subparsers(dest="command", required=True)
    xs.add_parser("build", parents=[common])
    xc = xs.add_parser("complexity", parents=[common])
    xc.add_argument("--n", help="LO..HI")
    xs.add_parser("verify-structure", parents=[common])
    xv = xs.add_parser("verify-spike", parents=[common])
    xv.add_argument("--l", type=int, default=1)
    xv.add_argument("--epsilon", default="1/2")

    e = fam.add_parser("ergodic")
    e.add_argument("--f", default="2^ceil-sqrt")
    e.add_argument("--max-level", type=int, default=8)
    e.add_argument("--policy", default="lexicographic",
                   choices=("lexicographic", "seeded-random"))
    es = e.add_subparsers(dest="command", required=True)
    es.add_parser("build", parents=[common])
    ei = es.add_parser("intervals", parents=[common])
    ei.add_argument("--u")
    ed = es.add_parser("decompose", parents=[common])
    ed.add_argument("--word")

    s = fam.add_parser("subst")
    s.add_argument("--gamma", default="2")
    s.add_argument("--n-list", default=None, help="explicit n_1,n_2,...")
    s.add_argument("--levels", type=int, default=None)
    ss = s.add_subparsers(dest="command", required=True)
    ss.add_parser("build", parents=[common])
    sc = ss.add_parser("complexity", parents=[common])
    sc.add_argument("--n", help="LO..HI")
    ss.add_parser("densities", parents=[common])
    sr = ss.add_parser("recurrence", parents=[common])
    sr.add_argument("--n", help="comma-separated lengths")
    sv = ss.add_parser("verify", parents=[common])
    sv.add_argument("--k-max", type=int, default=2)
    sv.add_argument("--rec-samples", default="")
    sv.add_argument("--p-max", type=int, default=None)

    a = fam.add_parser("algebra")
    a.add_argument("--gamma", default="2")
    a.add_argument("--n-list", default=None)
    a.add_argument("--levels", type=int, default=None)
    as_ = a.add_subparsers(dest="command", required=True)
    ai = as_.add_parser("identities", parents=[common])
    ai.add_argument("--trials", type=int, default=1000)
    aw = as_.add_parser("witness-product", parents=[common])
    aw.add_argument("--l", type=int, default=None)
    aw.add_argument("--proj", default="a", choices=("a", "b"))
    aw.add_argument("--random", type=int, default=0,
                    help="verify this many seeded random elements of W_3")
    ad = as_.add_parser("decompose-identity", parents=[common])
    ad.add_argument("--l", type=int, default=0)
    ar = as_.add_parser("ret-bracket", parents=[common])
    ar.add_argument("--n", type=int, default=18)
    an = as_.add_parser("dims", parents=[common])
    an.add_argument("--N", type=int, default=2)
    return p


# flags a command cannot run without; checked after the config pass, so
# that a config file may supply them
_REQUIRED = {
    ("xk", "complexity"): "n",
    ("ergodic", "intervals"): "u",
    ("ergodic", "decompose"): "word",
    ("subst", "complexity"): "n",
    ("subst", "recurrence"): "n",
}

_RUNNERS = {
    "growth": run_growth,
    "xk": run_xk,
    "ergodic": run_ergodic,
    "subst": run_subst,
    "algebra": run_algebra,
}


def _subcommands(parser):
    """name -> parser of the parser's subcommands."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _options(parser):
    """dest -> action of the parser's flags that a config file may set."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _config_defaults(parser, args):
    """Install the config file's values as defaults of the parsers on this
    command's path, each typed and checked by the flag that owns it.  Keys
    of other commands are ignored; keys that are no flag are an error."""
    families = _subcommands(parser)
    known = {key for fam in families.values()
             for sub in [fam, *_subcommands(fam).values()] for key in _options(sub)}
    fam = families[args.family]
    path = (fam, _subcommands(fam)[args.command])
    for key, raw in load_config(args.config).items():
        if key not in known:
            raise UsageError("config key %r is not a flag" % key)
        for sub in path:
            action = _options(sub).get(key)
            if action is None:
                continue
            try:
                value = action.type(raw) if action.type else raw
            except ValueError:
                raise UsageError("config value %s=%r is not a valid %s"
                                 % (key, raw, action.type.__name__))
            if action.choices is not None and value not in action.choices:
                raise UsageError("config value %s=%r: choose from %s"
                                 % (key, raw, ", ".join(action.choices)))
            sub.set_defaults(**{key: value})


def parse_and_dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # config supplies defaults only: parsing again lets every flag given
        # on the command line win, in any spelling argparse accepts
        if args.config:
            _config_defaults(parser, args)
            args = parser.parse_args(argv)
        flag = _REQUIRED.get((args.family, args.command))
        if flag and getattr(args, flag) is None:
            raise UsageError("the following arguments are required: --%s" % flag)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    except UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    try:
        if args.max_bytes is None and os.environ.get("WORDLAB_MAX_BYTES"):
            args.max_bytes = max_bytes_budget()
        if args.max_bytes is not None and args.max_bytes < MIN_MAX_BYTES:
            raise UsageError("max_bytes must be >= %d" % MIN_MAX_BYTES)
        try:
            _RUNNERS[args.family](args)
        except AssertionError as e:
            # a check that raises explicitly, so it also holds under python -O
            raise VerificationFailure({"failed_assertion": str(e)}) from e
        return 0
    except VerificationFailure as e:
        sys.stderr.write(json.dumps(
            {"schema": SCHEMA, "witness": _jsonable(e.witness)},
            sort_keys=True) + "\n")
        return 1
    except UsageError as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    except (ValueError, MemoryError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def main():
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
