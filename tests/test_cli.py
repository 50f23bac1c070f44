"""Command-line behaviour: output formats, exit codes, and the cache."""

import json

import pytest

from overcong import ResidueRing, expand_monomial, load_series
from overcong.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err


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


def test_scan_cli_comma_lists(capsys):
    code, out, _ = run(capsys, "--output", "json", "scan", "--mod", "5",
                       "--d", "1,2", "--A", "40,8", "--nmax", "2000",
                       "--max-index", "120000", "--min-support", "50")
    assert code == 0
    pairs = {(c["multiplier"], c["progression"][0]) for c in json.loads(out)["claims"]}
    assert (1, 40) in pairs


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
    code, _, _ = run(capsys, "expand", "phi", "--mod", "11", "--trunc", "20")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.qser"))


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
                        lambda *a: (_ for _ in ()).throw(AssertionError("recomputed")))
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
], ids=["expand-negative-trunc", "scan-d-zero", "scan-A-zero", "check-empty-claim",
        "check-list-claim", "lemma1-negative-trunc"])
def test_bad_input_is_a_usage_error(capsys, argv):
    try:
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
