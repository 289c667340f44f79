import json

import pytest

from wordlab.cli import parse_and_dispatch, parse_range, UsageError


def run(capsys, *argv):
    code = parse_and_dispatch(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_parse_range():
    assert parse_range("1..40") == (1, 40)
    assert parse_range("7") == (7, 7)
    with pytest.raises(UsageError):
        parse_range("9..2")


def test_densities_csv(capsys):
    code, out, _ = run(capsys, "subst", "--gamma", "2", "densities",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# schema=") and "seed=0" in lines[0]
    assert lines[1] == "k,phi_a_alpha,phi_b_alpha,phi_a_beta,phi_b_beta"
    assert lines[2] == "0,1,0,0,1"
    assert lines[3] == "1,2/3,1/3,1/3,2/3"


def test_byte_stability(capsys):
    argv = ("subst", "--gamma", "2", "complexity", "--n", "1..50",
            "--format", "csv")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_complexity_rows_obey_14n(capsys):
    code, out, _ = run(capsys, "subst", "--gamma", "2", "--levels", "4",
                       "complexity", "--n", "3..200", "--format", "csv")
    assert code == 0
    for line in out.strip().split("\n")[2:]:
        n, p = line.split(",")[:2]
        assert int(p) <= 14 * int(n)


def test_json_header(capsys):
    code, out, _ = run(capsys, "subst", "--gamma", "2", "build",
                       "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "wordlab-report/1"
    assert doc["seed"] == 3 and doc["pass"] is True
    assert doc["command"] == "subst build"


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(capsys, "subst", "--nope", "build")
    assert code == 2
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_bad_range_exits_2(capsys):
    code, _, err = run(capsys, "subst", "--gamma", "2", "complexity",
                       "--n", "9..2")
    assert code == 2 and "error" in err


def test_config_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "wl.cfg"
    cfg.write_text("seed=11\nformat=csv\n")
    code, out, _ = run(capsys, "subst", "--gamma", "2", "densities",
                       "--config", str(cfg))
    assert code == 0 and out.startswith("#") and "seed=11" in out.split("\n")[0]
    # an explicit flag wins over the config value
    code, out, _ = run(capsys, "subst", "--gamma", "2", "densities",
                       "--config", str(cfg), "--seed", "4")
    assert "seed=4" in out.split("\n")[0]
    # the --flag=value spelling wins too
    cfg.write_text("seed=7\nformat=csv\n")
    code, out, _ = run(capsys, "subst", "--gamma", "2", "densities",
                       "--config", str(cfg), "--seed=4")
    assert code == 0 and "seed=4" in out.split("\n")[0]
    cfg.write_text("bogus_key=1\n")
    code, _, err = run(capsys, "subst", "--gamma", "2", "densities",
                       "--config", str(cfg))
    assert code == 2 and "bogus_key" in err
    # each value takes the type of the flag it fills: --n is an integer
    # for ret-bracket and a string for recurrence
    cfg.write_text("n=18\n")
    code, out, err = run(capsys, "algebra", "ret-bracket", "--config", str(cfg))
    assert code == 0, err
    assert json.loads(out)["report"]["rec"] == 197
    code, out, _ = run(capsys, "subst", "--gamma", "2", "recurrence",
                       "--n", "1", "--config", str(cfg), "--format", "csv")
    assert code == 0 and out.split("\n")[2] == "1,4,42"
    # and must be one of the flag's choices
    cfg.write_text("format=xml\n")
    code, out, err = run(capsys, "subst", "--gamma", "2", "densities",
                         "--config", str(cfg))
    assert code == 2 and out == "" and "format" in err and "xml" in err
    cfg.write_text("seed=seven\n")
    code, out, err = run(capsys, "subst", "--gamma", "2", "densities",
                         "--config", str(cfg))
    assert code == 2 and out == "" and "seed" in err
    cfg.write_bytes(b"\xffseed=1\n")
    code, out, err = run(capsys, "subst", "--gamma", "2", "densities",
                         "--config", str(cfg))
    assert code == 2 and out == "" and "cannot read config" in err


def test_config_supplies_required_flag(tmp_path, capsys):
    cfg = tmp_path / "wl.cfg"
    cfg.write_text("n=1..5\n")
    code, out, err = run(capsys, "subst", "--gamma", "2", "complexity",
                         "--config", str(cfg))
    assert code == 0, err
    _, want, _ = run(capsys, "subst", "--gamma", "2", "complexity",
                     "--n", "1..5")
    assert out == want
    # missing from the command line and from the config: still exit 2
    cfg.write_text("seed=3\n")
    for argv, flag in ((("xk", "complexity"), "--n"),
                       (("subst", "complexity"), "--n"),
                       (("subst", "recurrence"), "--n"),
                       (("ergodic", "intervals"), "--u"),
                       (("ergodic", "decompose"), "--word")):
        for config in ((), ("--config", str(cfg))):
            code, out, err = run(capsys, *argv, *config)
            assert code == 2 and out == "" and flag in err, (argv, err)


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run(capsys, "subst", "--gamma", "2", "densities",
                       "--format", "csv", "--output", str(dest))
    assert code == 0 and out == ""
    assert dest.read_text().splitlines()[2] == "0,1,0,0,1"
    code, _, err = run(capsys, "subst", "--gamma", "2", "densities",
                       "--output", str(tmp_path / "no" / "dir" / "x"))
    assert code == 2 and "unwritable" in err


def test_max_bytes_floor(capsys):
    code, _, err = run(capsys, "subst", "--gamma", "2", "densities",
                       "--max-bytes", "1000")
    assert code == 2 and "max_bytes" in err


@pytest.mark.parametrize("argv", [
    ("algebra", "witness-product", "--proj", "c"),
    ("algebra", "witness-product", "--l", "10"),
    ("algebra", "decompose-identity", "--l", "-1"),
    ("subst", "--levels", "0", "build"),
    ("algebra", "witness-product", "--random", "-1"),
    ("algebra", "identities", "--trials", "-5"),
    ("algebra", "dims", "--N", "-1"),
], ids=["proj-c", "witness-l10", "decompose-l-1", "levels-0", "random-1",
        "trials-5", "dims-N-1"])
def test_bad_algebra_and_subst_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (("subst", "--n-list", "2,2", "--levels", "5", "build"),
     "error: depth: n_list gives 2 levels, 5 asked"),
    (("subst", "--gamma", "2", "verify", "--k-max", "-1"),
     "error: k_max must be >= 0, got -1"),
    (("subst", "--gamma", "2", "verify", "--p-max", "0"),
     "error: complexity range must have 1 <= lo <= hi, got 1..0"),
    (("subst", "--gamma", "2", "recurrence", "--n", "1..3"),
     "error: --n takes comma-separated integers, got '1..3'"),
    (("subst", "--gamma", "2", "verify", "--rec-samples", "18,x"),
     "error: --rec-samples takes comma-separated integers, got '18,x'"),
    (("subst", "--n-list", "2;2", "build"),
     "error: --n-list takes comma-separated integers, got '2;2'"),
], ids=["n-list-short-of-levels", "k-max-1", "p-max-0", "n-range",
        "rec-samples-letter", "n-list-semicolon"])
def test_subst_refuses_what_it_cannot_check(capsys, argv, message):
    # an n_list shorter than --levels used to build K = 2; a negative k_max
    # or a p_max below 1 used to pass having checked nothing; a comma list
    # given as a range ended in "invalid literal for int()"
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_census_budget_exits_2(capsys):
    # Rec(108) takes a cap-108 census of each 3,359,232-char level-4 master,
    # estimated at 20 bytes a char: about 67.3 MB > 64 MiB
    code, out, err = run(capsys, "subst", "--gamma", "2", "recurrence",
                         "--n", "108", "--max-bytes", "67108864")
    assert code == 2 and out == ""
    assert "budget: census of 3359232 chars at cap 108" in err


def test_growth_build_and_check(capsys):
    code, out, _ = run(capsys, "growth", "--n-max", "2048", "build",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[1] == "n,f,f_prime,omega"
    assert lines[2] == "1,2,0,0"
    code, out, _ = run(capsys, "growth", "--n-max", "2048", "check")
    assert code == 0 and json.loads(out)["pass"] is True
    # g = id is not superlinear enough to place the d-sequence
    code, _, _ = run(capsys, "growth", "--g", "id", "--n-max", "64", "build")
    assert code == 2


def _timed_run(capsys, *argv):
    """run() with its wall time and tracemalloc peak."""
    import time
    import tracemalloc
    tracemalloc.start()
    t0 = time.perf_counter()
    result = run(capsys, *argv)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return result, elapsed, peak


def test_growth_budget_exits_2(capsys):
    (code, out, err), elapsed, peak = _timed_run(
        capsys, "growth", "--n-max", "1000000000000", "build")
    assert code == 2 and out == ""
    assert "budget: growth build tabulates 1000000000000 values" in err
    assert elapsed < 1 and peak < 1 << 20


def test_growth_check_at_10_to_12(capsys):
    # check decides every property on the witness's segments: no table of f
    (code, out, _), elapsed, peak = _timed_run(
        capsys, "growth", "--g", "n^2", "--n-max", "1000000000000", "check")
    assert code == 0
    props = json.loads(out)["report"]["f_properties"]
    assert props["submultiplicative"] is False
    assert props["violating_pair"] == [1, 255]
    assert elapsed < 1 and peak < 1 << 20


def test_xk_build_and_complexity(capsys):
    code, out, _ = run(capsys, "xk", "--max-level", "5", "build",
                       "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[2] == "1,1,2,base,explicit"
    code, out, _ = run(capsys, "xk", "--max-level", "5", "complexity",
                       "--n", "9", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[2].startswith("9,85,")


def test_xk_verify_structure(capsys):
    code, out, _ = run(capsys, "xk", "--max-level", "4", "verify-structure")
    assert code == 0 and json.loads(out)["pass"] is True


def test_ergodic_commands(capsys):
    code, out, _ = run(capsys, "ergodic", "--max-level", "6", "build",
                       "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[2].startswith("0,1,2,")
    code, out, _ = run(capsys, "ergodic", "--max-level", "6", "intervals",
                       "--u", "ab", "--format", "csv")
    assert code == 0
    code, out, _ = run(capsys, "ergodic", "--max-level", "6", "decompose",
                       "--word", "ab")
    assert code == 0
    got = json.loads(out)["report"]["decomposition"]
    assert "".join(b for _, b in got["blocks"]) == "ab"
    code, _, _ = run(capsys, "ergodic", "--max-level", "6", "decompose",
                     "--word", "zz")
    assert code == 2


def test_subst_recurrence(capsys):
    code, out, _ = run(capsys, "subst", "--gamma", "2", "recurrence",
                       "--n", "1,18", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[2] == "1,4,42" and lines[3] == "18,197,252"


def test_algebra_commands(capsys):
    code, out, _ = run(capsys, "algebra", "identities", "--trials", "25")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "algebra", "dims", "--N", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[2] == "0,2," and lines[3] == "1,24,35/12"
    code, out, _ = run(capsys, "algebra", "witness-product", "--proj", "a",
                       "--l", "1")
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run(capsys, "algebra", "decompose-identity", "--l", "0")
    assert code == 0 and json.loads(out)["pass"] is True


def test_failure_serializes_witness(capsys, monkeypatch):
    import wordlab.xk_words as xw

    def fake(oracle, l=1, epsilon=None):
        return {"pass": False, "reason": "synthetic failure for plumbing"}

    monkeypatch.setattr(xw, "verify_derivative_spike", fake)
    code, _, err = run(capsys, "xk", "--max-level", "5", "verify-spike",
                       "--l", "1")
    assert code == 1
    doc = json.loads(err)
    assert doc["witness"]["reason"].startswith("synthetic")

    # a check that raises inside the spike is a verification failure too
    def raising(oracle, l=1, epsilon=None):
        raise AssertionError("synthetic failed check")

    monkeypatch.setattr(xw, "verify_derivative_spike", raising)
    code, out, err = run(capsys, "xk", "--max-level", "5", "verify-spike",
                         "--l", "1")
    assert code == 1 and out == ""
    assert json.loads(err)["witness"] == {"failed_assertion": "synthetic failed check"}



def test_failed_checks_exit_1_in_densities_and_structure(capsys, monkeypatch):
    import dataclasses

    import wordlab.substitution_word as sw
    import wordlab.xk_words as xw

    real_build = sw.build_substitution_levels

    def swapped(params, K=None):
        levels = real_build(params, K)
        levels.alpha, levels.beta = levels.beta, levels.alpha
        return levels

    monkeypatch.setattr(sw, "build_substitution_levels", swapped)
    code, out, err = run(capsys, "subst", "--gamma", "2", "densities")
    assert code == 1 and out == ""
    assert json.loads(err)["witness"] == {
        "failed_assertion": "phi_a(alpha_0) != (1+3^-0)/2"}

    real = xw.XkOracle.level

    def zero_led(self, k):
        lv = real(self, k)
        return dataclasses.replace(lv, words=["0" + w for w in lv.words]) \
            if k == 2 else lv

    monkeypatch.setattr(xw.XkOracle, "level", zero_led)
    code, out, err = run(capsys, "xk", "--max-level", "4", "verify-structure")
    assert code == 1 and out == ""
    assert json.loads(err)["witness"] == {
        "failed_assertion": "level 2 word with 0 at the boundary"}


def test_moved_verdicts_exit_1_in_identities_and_complexity(capsys, monkeypatch):
    import wordlab.steinberg_algebra as sa
    import wordlab.substitution_word as sw

    real_gens = sa.make_generators

    def no_inverse(lang, char=None):
        gens = real_gens(lang, char)
        return dict(gens, Tinv=gens["T"])

    monkeypatch.setattr(sa, "make_generators", no_inverse)
    code, out, err = run(capsys, "algebra", "identities", "--trials", "3")
    assert code == 1 and out == ""
    assert json.loads(err)["witness"] == {"failed_assertion": "T T^-1 != 1"}

    monkeypatch.setattr(sw.SubstLevels, "complexity", lambda self, n: n)
    code, out, err = run(capsys, "subst", "--gamma", "2", "complexity",
                         "--n", "3..9")
    assert code == 1 and out == ""
    assert json.loads(err)["witness"] == {
        "failed_assertion": "p(3) = 3 breaks n+1 <= p(n) <= 14n"}


def test_ret_bracket_master_length_check_exits_1(capsys):
    # at gamma = 1 the level-2 masters are longer than ceil(K n^gamma)
    code, out, err = run(capsys, "algebra", "--gamma", "1", "ret-bracket",
                         "--n", "2")
    assert code == 1 and out == ""
    assert json.loads(err)["witness"]["failed_assertion"].startswith(
        "master length 2 N_2 = 72 exceeds ceil(K n^gamma) = 40")


# the flags that take a string, drawn from small values that mean something
_STRING_FLAGS = {
    "g": ("n^2", "nlogn", "id", "2^ceil-sqrt", "const-2"),
    "f": ("2^ceil-sqrt", "const-2", "n^2"),
    "n": ("-1", "0", "1", "2", "3", "1..3"),
    "u": ("a", "b", "ab"),
    "word": ("a", "ab", "zz"),
    "rec_samples": ("", "1", "2,3"),
}


def _argv_strategy():
    """One command line for each subcommand of build_parser(): every integer
    flag and every flag in _STRING_FLAGS given, integers in -1..3, a value
    of every choice, and one time in eight a 1 MiB budget."""
    from hypothesis import strategies as st

    from wordlab.cli import _subcommands, build_parser

    def flags(parser):
        parts = []
        for a in parser._actions:
            if a.choices is not None and a.option_strings:
                values = st.sampled_from(sorted(a.choices))
            elif a.type is int and a.dest != "max_bytes":
                values = st.integers(-1, 3)
            elif a.dest in _STRING_FLAGS:
                values = st.sampled_from(_STRING_FLAGS[a.dest])
            else:
                continue
            parts.append(values.map(lambda v, o=a.option_strings[0]: "%s=%s" % (o, v)))
        return st.tuples(*parts)

    budget = st.integers(0, 7).map(lambda i: ("--max-bytes=1048576",) if i == 0 else ())
    return st.tuples(*(
        st.tuples(st.just((name,)), flags(fam), st.just((cmd,)), flags(sub), budget)
        .map(lambda t: [x for part in t for x in part])
        for name, fam in _subcommands(build_parser()).items()
        for cmd, sub in _subcommands(fam).items()))


def test_cli_contract_on_drawn_command_lines():
    # every command line ends in exit 0, 1 or 2, never in a traceback: 2
    # with one error line, 1 with the JSON witness on stderr
    import contextlib
    import io

    from hypothesis import given, settings

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_argv_strategy())
    def check(argvs):
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = parse_and_dispatch(argv)
            assert code in (0, 1, 2), argv
            if code == 2:
                assert err.getvalue().startswith("error:"), (argv, err.getvalue())
                assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
            elif code == 1:
                assert "witness" in json.loads(err.getvalue()), argv

    check()


# sha256 of stdout recorded before substitution-language queries moved to
# the junction windows, before the ergodic intervals moved to the level
# recursion, before the growth witness was held as segments, and (the last
# two) before the recurrence function read only census blocks; any change to
# these report bytes is a regression
PINNED_STDOUT = [
    (("algebra", "decompose-identity", "--l", "1"),
     "d0c1d7cbc3532c0056e39fb9f3634e543a061ba2f918aa0204c6a47924f8f4ac"),
    (("subst", "--gamma", "2", "complexity", "--n", "1..1188", "--format", "csv"),
     "74f80d9b7ac1329f75249f063c3ca519f7b744da6dd0a8e4d1a4670f272fbc71"),
    (("ergodic", "intervals", "--u", "ab", "--format", "csv"),
     "d5963a910c268dcf58ef5bf7fd018c356deb1f90941c89b0b5feca352f39376b"),
    (("ergodic", "intervals", "--u", "a", "--format", "csv"),
     "fd53c1282bbe2df974bcef83a9c8dbb3fe5e731114f11a1a623b6f2014addaa8"),
    # re-taken when submultiplicativity of f came to be decided exactly: the
    # earlier bytes claimed true from a stride sample of pairs, though
    # f(256) = 600 > f(1) f(255) = 2 * 277
    (("growth", "--g", "n^2", "--n-max", "100000", "check"),
     "27b1ec9de3165e90e0f48f388091ab8065c0c6fa3ad99522589442c4185b8f6d"),
    (("growth", "--g", "nlogn", "--n-max", "4096", "build", "--format", "csv"),
     "7a2986c06c8394a29074f0a3a9bf4db2424e8faa087a1ba7121867c6624ab3e1"),
    (("subst", "--gamma", "2", "recurrence", "--n", "1,18"),
     "8028ef9364d5d9117f6fe499afed2f372c22d15a53e3374673b5d71eb59e358a"),
    (("algebra", "ret-bracket", "--n", "18"),
     "0b7028b9b517e44536c216505928bb4b59ac60664bf2b1311c3c1176951eab3a"),
    (("ergodic", "build"),
     "d4379ac2b9303c6134fb102b0015d80899241811567ebe68ed610071cab54268"),
    (("ergodic", "--policy", "seeded-random", "build", "--seed", "7"),
     "4498cde52de59207c66542b1518751b8f364ec150a89d1938c44ecd1aae7e643"),
    # a factor of a W(8) word that lies in no W(7) word
    (("ergodic", "decompose", "--word",
      "aaaaaaaaaaaaaaaaabaaaaaaaaaaaaaaaaababaaaaaaaaab"),
     "586adf24122b80b8f8156aa13ed91f3d053f4227c87d460b415ff2f0e6bce655"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT,
                         ids=["decompose-identity-l1", "complexity-1188",
                              "ergodic-intervals-ab", "ergodic-intervals-a",
                              "growth-check-n2", "growth-build-nlogn",
                              "recurrence-1-18", "ret-bracket-18",
                              "ergodic-build", "ergodic-build-seeded-random-7",
                              "ergodic-decompose-level-8"])
def test_pinned_stdout_bytes(capsys, argv, digest):
    import hashlib
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_GROWTH_CHECK_N2 = ("growth", "--g", "n^2", "--n-max", "100000", "check")
_DECOMPOSE_L1 = ("algebra", "decompose-identity", "--l", "1")


def _pinned_under_python_O(run_python_O, argv):
    """The command's stdout under python -O, which strips assert, matches its
    pinned digest."""
    import hashlib
    proc = run_python_O(
        "import sys\nfrom wordlab import cli\n"
        "sys.exit(cli.parse_and_dispatch(%r) if sys.flags.optimize else 3)"
        % list(argv))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
        dict(PINNED_STDOUT)[argv]


def test_growth_check_bytes_under_python_O(run_python_O):
    # no verdict of growth check rests on an assert that python -O strips
    _pinned_under_python_O(run_python_O, _GROWTH_CHECK_N2)


def test_decompose_identity_l1_bytes_under_python_O(run_python_O):
    # nor does the unit decomposition's, whose l = 1 sum collapses in one count
    _pinned_under_python_O(run_python_O, _DECOMPOSE_L1)


def test_workers_flag_removed(capsys):
    code, _, _ = run(capsys, "subst", "--gamma", "2", "densities",
                     "--workers", "2")
    assert code == 2


def test_growth_help_names_every_growth_function():
    from wordlab.cli import _subcommands, build_parser
    from wordlab.growth_functions import _NAMED
    growth = _subcommands(build_parser())["growth"]
    g = next(a for a in growth._actions if a.dest == "g")
    assert g.help.split(" | ") == list(_NAMED)
