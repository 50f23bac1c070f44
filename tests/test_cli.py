"""Command-line behaviour: output formats, exit codes, and the cache."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overcong import ResidueRing, expand_monomial, load_series, modseries
from overcong.cli import CACHE_ENV, main
from test_prover import reference_scan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err


@contextlib.contextmanager
def deadline(seconds):
    # Fails the test from the main thread once `seconds` have passed; not
    # an OSError (TimeoutError is one), which the CLI would report as exit 2.
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_expand_phi_text(capsys):
    code, out, _ = run(capsys, "expand", "phi", "--mod", "11", "--trunc", "4")
    assert code == 0
    assert out == "1 2 0 0 2"


def test_expand_json(capsys):
    code, out, _ = run(capsys, "--output", "json",
                       "expand", "rm:10", "--mod", "11", "--trunc", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [1, 9, 4]


def test_expand_eta_spec(capsys):
    code, out, _ = run(capsys, "expand", "eta:2^5,1^-2,4^-2",
                       "--mod", "11", "--trunc", "4")
    assert code == 0
    assert out == "1 2 0 0 2"


@pytest.mark.parametrize("generator, trunc, message", [
    ("eta:3^1,5^-7", 5_000_000, "not an integral power"),
    ("eta:2^-4,4^8", modseries.TRUNC_CAP, "truncation must lie in"),
], ids=["fractional-power", "shift-past-the-cap"])
def test_a_bad_eta_quotient_is_rejected_before_its_expansion(capsys, monkeypatch, generator,
                                                            trunc, message):
    # The leading power is read from the quotient; the expansion, seconds
    # and hundreds of MB at these truncations, never starts.
    monkeypatch.setattr("overcong.cli.eta_quotient", lambda *args: pytest.fail("expanded"))
    code, _, err = run(capsys, "expand", generator, "--mod", "13", "--trunc", str(trunc))
    assert code == 2 and message in err


def test_expand_weight2_generator(capsys):
    code, out, _ = run(capsys, "expand", "F", "--mod", "13", "--trunc", "5")
    assert code == 0
    assert out.split()[:4] == ["0", "1", "0", "4"]


def test_expand_unknown_generator_usage_error(capsys):
    code, _, err = run(capsys, "expand", "zeta", "--mod", "11", "--trunc", "4")
    assert code == 2
    assert "unknown generator" in err


def test_expand_overpartition(capsys):
    code, out, _ = run(capsys, "expand", "overpartition", "--mod", "13", "--trunc", "3")
    assert code == 0
    assert out == "1 2 4 8"


def test_decompose_from_file(capsys, tmp_path):
    series = expand_monomial(5, 1, 40, ResidueRing(11))
    path = tmp_path / "coeffs.txt"
    path.write_text(" ".join(str(c) for c in series.coeffs))
    code, out, _ = run(capsys, "decompose", "--k2", "9", "--mod", "11",
                       "--input", str(path))
    assert code == 0
    assert out == "0 1 0"


def test_decompose_from_stdin(capsys, monkeypatch):
    import io
    series = expand_monomial(2, 2, 30, ResidueRing(13))
    monkeypatch.setattr("sys.stdin", io.StringIO(" ".join(str(c) for c in series.coeffs)))
    code, out, _ = run(capsys, "decompose", "--k2", "10", "--mod", "13")
    assert code == 0
    assert out == "0 0 1"


def test_decompose_out_of_span_fails(capsys, tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text(" ".join(["0"] * 30 + ["5"] + ["0"] * 10))
    code, out, _ = run(capsys, "decompose", "--k2", "9", "--mod", "11",
                       "--input", str(path))
    assert code == 1
    assert "q^30" in out


def test_bound_gamma0_progression(capsys):
    code, out, _ = run(capsys, "--output", "json", "bound", "--weight2", "9",
                       "--level", "256", "--group", "g0", "--progression", "8,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 384
    assert payload["bound"] == 289
    assert payload["progression"]["max_n"] == 35


def test_bound_gamma1_inclusive_limit(capsys):
    code, out, _ = run(capsys, "--output", "json", "bound", "--weight2", "15",
                       "--level", "340736", "--group", "g1", "--progression", "88,19")
    assert code == 0
    assert json.loads(out)["progression"]["max_n"] == 1_226_649_601


def test_bound_rejects_mismatched_progression(capsys):
    code, _, err = run(capsys, "bound", "--weight2", "15", "--level", "340736",
                       "--group", "g1", "--progression", "104,29")
    assert code == 2
    assert "does not pair" in err


def test_lemma1_cli(capsys):
    code, out, _ = run(capsys, "--output", "json", "lemma1",
                       "--p", "3", "--alpha", "2", "--trunc", "200")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_claim_pass_and_fail(capsys):
    claim = json.dumps({"modulus": 5, "multiplier": 1, "progression": [40, 35]})
    code, out, _ = run(capsys, "check", "--claim", claim, "--nmax", "100")
    assert code == 0
    assert "verified" in out
    bad = json.dumps({"modulus": 3, "multiplier": 1, "progression": [2, 0]})
    code, out, _ = run(capsys, "check", "--claim", bad, "--nmax", "20")
    assert code == 1
    assert "counterexample at index 0" in out


def test_scan_cli(capsys):
    code, out, _ = run(capsys, "--output", "json", "scan", "--mod", "5",
                       "--d", "1", "--A", "40", "--nmax", "100000",
                       "--max-index", "200000")
    assert code == 0
    payload = json.loads(out)
    assert [c["progression"] for c in payload["claims"]] == [[40, 35]]


def test_check_rechecks_a_claim_at_the_scan_depth(capsys):
    code, out, _ = run(capsys, "--output", "json", "scan", "--mod", "7",
                       "--d", "16", "--A", "56", "--nmax", "1000000",
                       "--max-index", "200000")
    assert code == 0
    claims = json.loads(out)["claims"]
    assert claims
    claim = claims[0]
    a, b = claim["progression"]
    d = claim["multiplier"]
    # The scan's depth as an --nmax: the same indices, the same support.
    code, out, _ = run(capsys, "--output", "json", "check", "--claim", json.dumps(claim),
                       "--nmax", str((200000 // d - b) // a))
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["support"]) == ("verified", claim["support"])
    # The top index 16*(56*10^6 + b) is past the cap; the error names the
    # largest --nmax that fits.
    code, _, err = run(capsys, "check", "--claim", json.dumps(claim), "--nmax", "1000000")
    assert code == 2
    assert "budget exceeded" in err
    assert f"n_max <= {((1 << 24) // d - b) // a} stays within it" in err


def test_scan_cli_comma_lists(capsys):
    code, out, _ = run(capsys, "--output", "json", "scan", "--mod", "5",
                       "--d", "1,2", "--A", "40,8", "--nmax", "2000",
                       "--max-index", "120000", "--min-support", "50")
    assert code == 0
    pairs = {(c["multiplier"], c["progression"][0]) for c in json.loads(out)["claims"]}
    assert (1, 40) in pairs


def test_scan_with_a_step_past_the_budget_prints_the_reference_claims(capsys):
    # Only offsets 0..100 are in budget: no grid of 10^30 columns is built.
    code, out, _ = run(capsys, "scan", "--mod", "5", "--d", "1", "--A", str(10 ** 30),
                       "--nmax", "5", "--min-support", "1", "--max-index", "100")
    assert code == 0
    want = reference_scan(5, [1], [10 ** 30], 5, 1, 100)
    assert want
    assert out == "\n".join(f"{c.describe()}  [support {c.support}]" for c in want)


def test_one_thread_starts_no_pool_thread(capsys, monkeypatch, pool_tasks):
    # Two usable CPUs and a cold solve mod 23# whose top push spans more
    # than two push chunks: without the limit it would share its steps with
    # the pool thread, and start this pool's thread, not started yet.
    monkeypatch.setattr(modseries.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    trunc = 3 * modseries._PUSH_CHUNK
    with ThreadPoolExecutor(1, thread_name_prefix="modseries") as pool:
        monkeypatch.setattr(modseries, "_POOL", pool)
        code, out, _ = run(capsys, "--threads", "1", "expand", "overpartition",
                           "--mod", "223092870", "--trunc", str(trunc))
    assert code == 0 and len(out.split()) == trunc + 1
    assert not pool_tasks and not pool._threads
    assert modseries._POOL is pool and not modseries._SHARE


def test_scan_stdout_is_the_same_for_every_thread_count(capsys, monkeypatch):
    # Two usable CPUs, so --threads 2 and 3 and the default solve with the
    # pool; every run starts from a cold store.
    monkeypatch.setattr(modseries.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    scan = ("--output", "json", "scan", "--mod", "7", "--d", "16,3", "--A", "56,8,13",
            "--nmax", "1000000", "--max-index", "300000")
    outputs = set()
    for threads in (["--threads", "1"], ["--threads", "2"], ["--threads", "3"], []):
        code, out, _ = run(capsys, *threads, *scan)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["claims"]


def test_threads_caps_the_solver_pool_at_one_thread(capsys, monkeypatch):
    # `bound` solves nothing: the limit is only read.  Any limit of two or
    # more, or none, shares with the one pool thread; a limit of one
    # shares nothing.
    monkeypatch.setattr(modseries.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    bound = ("bound", "--weight2", "9", "--level", "4", "--group", "g0")
    for threads, shares in ((["--threads", "1000000"], True), ([], True),
                            (["--threads", "1"], False), (["--threads", "2"], True)):
        assert run(capsys, *threads, *bound)[0] == 0
        assert modseries._SHARE is shares
    assert modseries._pool_map(abs, [-1, -2]) == [1, 2]
    assert modseries._POOL._max_workers == 1


def test_prove_thm11_json(capsys):
    code, out, _ = run(capsys, "--output", "json", "prove", "thm11")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    steps = {s["name"]: s for s in payload["steps"]}
    assert steps["decompose"]["witness"] == [1, 1, 0]


def test_verify_identity_cli(capsys):
    code, out, _ = run(capsys, "--output", "json",
                       "verify-identity", "17", "--trunc", "150")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_cache_reuse_and_determinism(capsys, tmp_path):
    cache = tmp_path / "cache"
    args = ("--cache-dir", str(cache), "expand", "overpartition",
            "--mod", "7", "--trunc", "50")
    code1, out1, _ = run(capsys, *args)
    files = list(cache.glob("*.qser"))
    assert code1 == 0 and len(files) == 1
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out1
    assert list(cache.glob("*.qser")) == files


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OVERCONG_CACHE_DIR", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "expand", "overpartition", "--mod", "11", "--trunc", "20")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.qser"))


@pytest.mark.parametrize("generator", ["phi", "F", "rm:12", "eta:2^-4,4^8"])
def test_only_the_overpartition_stream_is_cached(capsys, tmp_path, generator):
    cache = tmp_path / "cache"
    expand = ("expand", generator, "--mod", "13", "--trunc", "30")
    code, plain, _ = run(capsys, *expand)
    assert code == 0
    code, cached, _ = run(capsys, "--cache-dir", str(cache), *expand)
    assert code == 0 and cached == plain
    assert not list(cache.rglob("*"))


def test_a_cached_command_does_not_load_openssl(tmp_path):
    # Naming a cache file needs no hash, so a --cache-dir run never imports
    # hashlib and, through it, the OpenSSL bindings.
    code = (
        "import sys\n"
        "from overcong.cli import main\n"
        "cache = sys.argv[1]\n"
        "assert main(['--cache-dir', cache, 'scan', '--mod', '5', '--d', '1', '--A', '40',\n"
        "             '--nmax', '1000', '--max-index', '20000']) == 0\n"
        "assert main(['--cache-dir', cache, 'expand', 'overpartition', '--mod', '13',\n"
        "             '--trunc', '30']) == 0\n"
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cache")],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert list((tmp_path / "cache").glob("*.qser"))


def test_scan_reuses_disk_cache(capsys, tmp_path, monkeypatch):
    import overcong.prover as prover
    cache = str(tmp_path / "cache")
    argv = ("--cache-dir", cache, "scan", "--mod", "5", "--d", "1", "--A", "40",
            "--nmax", "1000", "--max-index", "50000")
    code, out1, _ = run(capsys, *argv)
    assert code == 0 and list((tmp_path / "cache").glob("*.qser"))
    # A fresh process starts with an empty store; the stream must come back
    # from disk without being recomputed.
    prover.STORE.reset(cache)
    monkeypatch.setattr(prover, "overpartition_series",
                        lambda trunc, ring, out, start:
                        (_ for _ in ()).throw(AssertionError("recomputed")))
    code, out2, _ = run(capsys, *argv)
    assert code == 0 and out2 == out1
    # A shorter budget is a prefix of the file; a longer one must compute.
    code, _, _ = run(capsys, *argv[:-1], "20000")
    assert code == 0
    with pytest.raises(AssertionError, match="recomputed"):
        run(capsys, *argv[:-1], "60000")


def test_cache_file_serves_shorter_truncations_and_grows(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    expand = ("--cache-dir", cache, "expand", "overpartition", "--mod", "13", "--trunc")
    _, long_out, _ = run(capsys, *expand, "60")
    _, short_out, _ = run(capsys, *expand, "20")
    assert short_out.split() == long_out.split()[:21]
    _, grown_out, _ = run(capsys, *expand, "90")
    assert grown_out.split()[:61] == long_out.split()
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1 and load_series(files[0]).trunc == 90


@pytest.mark.parametrize("argv", [
    ("expand", "phi", "--mod", "11", "--trunc", "-1"),
    ("scan", "--mod", "5", "--d", "0", "--A", "40", "--nmax", "100"),
    ("scan", "--mod", "5", "--d", "1", "--A", "0", "--nmax", "100"),
    ("check", "--claim", "{}", "--nmax", "10"),
    ("check", "--claim", "[1]", "--nmax", "10"),
    ("lemma1", "--p", "3", "--trunc", "-2"),
    ("bound", "--weight2", "15", "--level", "30976", "--group", "g1",
     "--progression", "88,200"),
    ("check", "--claim", '{"modulus": 7, "progression": [8, 3], "conditions": '
     '[{"type": "kronecker", "p": 0, "sign": 1}]}', "--nmax", "10"),
    ("check", "--claim", '{"modulus": 7, "progression": [8, 3], "conditions": '
     '[{"type": "residue", "modulus": 5, "residues": []}]}', "--nmax", "10"),
    ("check", "--claim", '{"modulus": 7, "progression": [8, 3], "conditions": '
     '[{"type": "residue", "modulus": 8, "residues": [5]}]}', "--nmax", "10"),
    ("verify-identity", "17", "--trunc", "0"),
    ("verify-identity", "17", "--trunc", "5000000"),
    ("check", "--claim", "[" * 100_000, "--nmax", "1"),
    ("decompose", "--k2", "1000000000", "--mod", "13"),
    ("bound", "--weight2", "3", "--level", "9223372036854775804", "--group", "g0"),
    ("expand", "phi", "--mod", "11", "--trunc", str(modseries.TRUNC_CAP + 1)),
    ("expand", "eta:2^-4,4^8", "--mod", "11", "--trunc", str(modseries.TRUNC_CAP + 1)),
], ids=["expand-negative-trunc", "scan-d-zero", "scan-A-zero", "check-empty-claim",
        "check-list-claim", "lemma1-negative-trunc", "bound-g1-offset-past-step",
        "check-kronecker-p-zero", "check-empty-residue-list", "check-support-zero",
        "verify-identity-trunc-below-basis", "verify-identity-trunc-past-the-index-cap",
        "check-claim-nested-too-deeply",
        "decompose-input-shorter-than-its-basis", "bound-level-past-the-cap",
        "expand-phi-trunc-past-the-cap", "expand-eta-trunc-past-the-cap"])
def test_bad_input_is_a_usage_error(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3"))
    try:
        with deadline(10):  # a usage error is immediate; some inputs hung
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "negative dimensions" not in err
    assert "error" in err


def test_stdout_identical_across_runs(capsys):
    argv = ("--output", "json", "verify-identity", "17", "--trunc", "120")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# Ints at the edges every option must survive: zero, negative, and far past
# every budget cap.  Values between the caps and ~1e6 are left out on
# purpose: they are valid budgets and would cost seconds each.
_EDGE_INTS = st.one_of(st.integers(-3, 40), st.sampled_from(
    [2 ** 31 - 1, 2 ** 31, 2 ** 63, 10 ** 30, -(10 ** 30)]))
_MODULI = st.one_of(_EDGE_INTS, st.sampled_from([13, 223_092_870]))
_TEXT = st.text(st.characters(codec="ascii", exclude_categories=["Cc"]), max_size=8)


def _int_list():
    return st.lists(_EDGE_INTS, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))


_ETA_FACTOR = st.one_of(
    st.tuples(_EDGE_INTS, _EDGE_INTS).map(lambda dr: f"{dr[0]}^{dr[1]}"),
    _EDGE_INTS.map(str), _TEXT)
_GENERATORS = st.one_of(
    st.sampled_from(["phi", "F", "overpartition", "rm:", "eta:", "zeta"]),
    _EDGE_INTS.map(lambda e: f"rm:{e}"),
    st.lists(_ETA_FACTOR, min_size=1, max_size=3).map(lambda fs: "eta:" + ",".join(fs)))
_JSON = st.recursive(
    st.none() | st.booleans() | _EDGE_INTS | st.floats(allow_nan=False) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8)
_CONDITION = st.one_of(
    st.fixed_dictionaries({"type": st.just("residue"), "modulus": _EDGE_INTS,
                           "residues": st.lists(_EDGE_INTS, max_size=3)}),
    st.fixed_dictionaries({"type": st.just("kronecker"), "p": _EDGE_INTS,
                           "sign": _EDGE_INTS}),
    _JSON)
_CLAIM = st.one_of(
    st.fixed_dictionaries(
        {"modulus": _MODULI, "progression": st.lists(_EDGE_INTS, min_size=2, max_size=2)},
        optional={"multiplier": _EDGE_INTS, "conditions": st.lists(_CONDITION, max_size=2),
                  "status": _JSON, "support": _EDGE_INTS}).map(json.dumps),
    _JSON.map(json.dumps), _TEXT)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


# A generated command line holds this in place of a cache directory; the
# test makes a fresh one for each example.
_FRESH_CACHE = "<fresh cache directory>"


@st.composite
def _argv(draw):
    """A generated command line for one of the subcommands, with a stdin."""
    argv = draw(_opt("--output", st.sampled_from(["text", "json", "xml"])))
    argv += draw(_opt("--threads", st.sampled_from([-1, 0, 1, 2])))
    argv += draw(_opt("--cache-dir", st.just(_FRESH_CACHE)))
    cmd = draw(st.sampled_from(["expand", "decompose", "bound", "prove",
                                "verify-identity", "lemma1", "scan", "check"]))
    stdin = ""
    if cmd == "expand":
        argv += ["expand", draw(_GENERATORS), "--mod", str(draw(_MODULI)),
                 "--trunc", str(draw(_EDGE_INTS))]
    elif cmd == "decompose":
        argv += ["decompose", "--k2", str(draw(_EDGE_INTS)), "--mod", str(draw(_MODULI))]
        argv += draw(_opt("--input", st.just("no-such-coefficient-file.txt")))
        stdin = " ".join(draw(st.lists(st.one_of(_EDGE_INTS.map(str), _TEXT), max_size=40)))
    elif cmd == "bound":
        argv += ["bound", "--weight2", str(draw(_EDGE_INTS)), "--level", str(draw(_EDGE_INTS)),
                 "--group", draw(st.sampled_from(["g0", "g1", "g2"]))]
        argv += draw(_opt("--progression", _int_list()))
    elif cmd == "prove":
        argv += ["prove", draw(st.sampled_from(["thm11", "thm13", "thm17", ""]))]
    elif cmd == "verify-identity":
        argv += ["verify-identity", str(draw(st.sampled_from([17, 23, 13, -17])))]
        argv += draw(_opt("--trunc", _EDGE_INTS))
    elif cmd == "lemma1":
        argv += ["lemma1", "--p", str(draw(_EDGE_INTS))]
        argv += draw(_opt("--alpha", _EDGE_INTS)) + draw(_opt("--trunc", _EDGE_INTS))
    elif cmd == "scan":
        # --max-index is always given: its default is a 1e6-5e6 budget.
        argv += ["scan", "--mod", str(draw(_MODULI)), "--d", draw(_int_list()),
                 "--A", draw(_int_list()), "--nmax", str(draw(_EDGE_INTS)),
                 "--max-index", str(draw(_EDGE_INTS))]
        argv += draw(_opt("--min-support", _EDGE_INTS))
    else:
        argv += ["check", "--claim", draw(_CLAIM), "--nmax", str(draw(_EDGE_INTS))]
    return argv, stdin


def _run_contained(argv, stdin):
    # No cache directory from the environment: only a drawn --cache-dir
    # reaches the disk.
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.environ.pop(CACHE_ENV, None)
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse: usage errors, --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(_argv())
@example((["expand", "eta:3^8", "--mod", "13", "--trunc", "6"], ""))
@example((["decompose", "--k2", "1000000000", "--mod", "13"], "1 2 3"))
@example((["lemma1", "--p", "3", "--alpha", str(10 ** 30), "--trunc", "5"], ""))
@example((["lemma1", "--p", "3", "--trunc", str(2 ** 63)], ""))
@example((["scan", "--mod", "5", "--d", "1", "--A", str(10 ** 30), "--nmax", "9",
           "--max-index", "40", "--min-support", "0"], ""))
@example((["scan", "--mod", "5", "--d", "1", "--A", str(10 ** 30), "--nmax", "5",
           "--min-support", "1", "--max-index", "100"], ""))
@example((["scan", "--mod", "2", "--d", "1", "--A", str(10 ** 30), "--nmax", "5",
           "--min-support", "0", "--max-index", "1"], ""))
@example((["expand", f"eta:{10 ** 30}", "--mod", "11", "--trunc", "5"], ""))
@example((["check", "--claim", json.dumps({"modulus": 5, "multiplier": 10 ** 30,
           "progression": [10 ** 30, 0]}), "--nmax", "0"], ""))
@example((["check", "--claim", json.dumps({"modulus": 5, "progression": [40, 35], "conditions": [
           {"type": "residue", "modulus": 10 ** 30, "residues": [1]}]}), "--nmax", "9"], ""))
@example((["--threads", "2", "scan", "--mod", "5", "--d", "1,2", "--A", "40,8",
           "--nmax", "40", "--max-index", "40", "--min-support", "0"], ""))
@example((["--cache-dir", _FRESH_CACHE, "expand", "overpartition", "--mod", "13",
           "--trunc", "6"], ""))
def test_any_argv_keeps_the_exit_code_contract(case):
    # With a cache directory the second run reads the stream from disk.
    argv, stdin = case
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache")
        argv = [cache if arg == _FRESH_CACHE else arg for arg in argv]
        code, out, err = _run_contained(argv, stdin)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        assert _run_contained(argv, stdin)[1] == out, argv
