"""Write the golden-output corpus that tests/test_golden.py replays.

    PYTHONPATH=src python tests/golden/generate.py

runs every command below in-process through ``overcong.cli.main`` and
records its exit code in corpus.json and its stdout in <name>.out, next to
this script; it also records the sha256 of the overpartition streams
pinned below.  The files it writes are the expected output: a change
that makes the replay fail has changed what overcong prints.  Regenerate
only when a change is meant to alter the output (a new command, a fixed
wrong answer), and say in CHANGES.md which files changed and why;
regenerating is never a way to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from overcong import (ResidueRing, modseries, overpartition_series, prover,
                      r_m_bruteforce)
from overcong.cli import main as cli_main

HERE = Path(__file__).resolve().parent

PRIMORIAL_23 = 223_092_870
MERSENNE_31 = (1 << 31) - 1

# The expand generators: theta, the weight-2 block, a theta power, the
# stream, and eta quotients with negative exponents (eta(2z)/eta(z)^2 is
# the overpartition generating function; eta(4z)^8/eta(2z)^4 is F).
GENERATORS = ("phi", "F", "rm:12", "overpartition", "eta:1^-2,2", "eta:2^-4,4^8")
# Depths kept short enough that the corpus stays small: about one digit
# per coefficient mod 2 and 13, ten mod 23# and 2^31 - 1.
EXPAND_TRUNC = {2: 3000, 13: 1500, PRIMORIAL_23: 500, MERSENNE_31: 500}

LEMMA1 = ((2, 1), (3, 2), (5, 1), (11, 1), (13, 1))
BOUNDS = (
    ("9", "256", "g0", None),
    ("11", "512", "g0", None),
    ("15", "340736", "g1", "88,19"),
    ("21", "562432", "g1", "104,29"),
)
# Acceptance criterion 7's four scans at a tenth of its depth: modulus,
# multiplier d, step A, max-index, minimum support.
CRITERION7_REDUCED = (
    (7, 16, 56, 100_000, 2),
    (17, 17 * 11 ** 2, 88, 500_000, 2),
    (23, 23 * 13 ** 2, 104, 500_000, 1),
    (5, 1, 40, 100_000, 2),
)
CLAIM_7 = {"modulus": 7, "multiplier": 16, "progression": [56, 11],
           "conditions": [{"type": "residue", "modulus": 8, "residues": [3]},
                          {"type": "kronecker", "p": 7, "sign": 1}]}
# A neighbouring progression of the same family, which is false.
CLAIM_7_REFUTED = {"modulus": 7, "multiplier": 16, "progression": [56, 13], "conditions": []}

# The scan grids perfbench's explore-warm workload draws for seed 1, as
# label -> argv with its --threads and --output options left to the corpus.
EXPLORE_WARM_SEED1 = {
    "scan-7": ["scan", "--mod", "7", "--d", "16,10,39,57", "--A", "56,112,120,16",
               "--nmax", "1000000", "--max-index", "500000"],
    "scan-17-wide": ["scan", "--mod", "17", "--d", "1,3,4,7,9,11,13,14,16,19,20,23",
                     "--A", "8,16,24,32,40,48,56,64,72,80",
                     "--nmax", "1000000", "--max-index", "1000000"],
}

# Streams pinned by digest: the shared 23# stream at the rediscover depth
# through the store, and each modulus's own stream at 2^16 from
# overpartition_series directly.
SHARED_STREAM_DEPTH = 1_800_000
OWN_STREAM_DEPTH = 1 << 16
OWN_STREAM_MODULI = (2, 5, 7, 11, 13, 17, 23, PRIMORIAL_23, MERSENNE_31)


def commands() -> list[dict]:
    """Every command of the corpus: name, argv and, for decompose, stdin."""
    out = []

    def add(name, argv, stdin=None):
        entry = {"name": name, "argv": list(argv)}
        if stdin is not None:
            entry["stdin"] = stdin
        out.append(entry)

    for fmt in ("text", "json"):
        for theorem in ("thm11", "thm13"):
            add(f"prove-{theorem}-{fmt}", ["--output", fmt, "prove", theorem])
        for modulus in ("17", "23"):
            add(f"verify-identity-{modulus}-{fmt}",
                ["--output", fmt, "verify-identity", modulus])
    add("verify-identity-23-trunc-3000", ["verify-identity", "23", "--trunc", "3000"])

    for modulus, trunc in EXPAND_TRUNC.items():
        for gen in GENERATORS:
            slug = gen.replace(":", "-").replace("^", "").replace(",", "_")
            add(f"expand-{slug}-mod-{modulus}",
                ["expand", gen, "--mod", str(modulus), "--trunc", str(trunc)])
    add("expand-rm-7-json", ["--output", "json", "expand", "rm:7", "--mod", "65521",
                             "--trunc", "40"])

    # r_9 = phi^9 lies in the k2 = 9 space; a perturbed copy does not.  Its
    # coefficients come from the brute-force lattice count, not from a product.
    r9 = [r_m_bruteforce(n, 9) for n in range(17)]
    perturbed = r9[:-1] + [r9[-1] + 1]
    r9, perturbed = (" ".join(map(str, c)) for c in (r9, perturbed))
    add("decompose-r9-mod-13", ["decompose", "--k2", "9", "--mod", "13"], r9)
    add("decompose-r9-mod-13-json", ["--output", "json", "decompose", "--k2", "9",
                                     "--mod", "13"], r9)
    add("decompose-perturbed-mod-13", ["decompose", "--k2", "9", "--mod", "13"],
        perturbed)

    for weight2, level, group, progression in BOUNDS:
        argv = ["bound", "--weight2", weight2, "--level", level, "--group", group]
        if progression:
            argv += ["--progression", progression]
        add(f"bound-{weight2}-{level}", argv)
        add(f"bound-{weight2}-{level}-json", ["--output", "json", *argv])

    for p, alpha in LEMMA1:
        add(f"lemma1-{p}-{alpha}", ["--output", "json", "lemma1", "--p", str(p),
                                    "--alpha", str(alpha), "--trunc", "500"])
    add("lemma1-2-10-trunc-5000", ["lemma1", "--p", "2", "--alpha", "10",
                                   "--trunc", "5000"])

    for threads in ("1", "2"):
        for label, argv in EXPLORE_WARM_SEED1.items():
            add(f"explore-warm-{label}-threads-{threads}",
                ["--threads", threads, "--output", "json", *argv])
        for modulus, d, a, max_index, support in CRITERION7_REDUCED:
            add(f"criterion7-scan-{modulus}-threads-{threads}",
                ["--threads", threads, "scan", "--mod", str(modulus), "--d", str(d),
                 "--A", str(a), "--nmax", "1000000", "--max-index", str(max_index),
                 "--min-support", str(support)])

    add("check-verified", ["check", "--claim", json.dumps(CLAIM_7, sort_keys=True),
                           "--nmax", "200"])
    add("check-verified-json", ["--output", "json", "check", "--claim",
                                json.dumps(CLAIM_7, sort_keys=True), "--nmax", "200"])
    add("check-refuted", ["check", "--claim", json.dumps(CLAIM_7_REFUTED, sort_keys=True),
                          "--nmax", "200"])

    usage = {
        "no-subcommand": [],
        "prove-unknown-theorem": ["prove", "thm12"],
        "expand-unknown-generator": ["expand", "zeta", "--mod", "13", "--trunc", "5"],
        "expand-modulus-one": ["expand", "phi", "--mod", "1", "--trunc", "5"],
        "expand-modulus-past-a-word": ["expand", "phi", "--mod", str(1 << 31),
                                       "--trunc", "5"],
        "expand-negative-trunc": ["expand", "phi", "--mod", "11", "--trunc", "-1"],
        "expand-eta-fractional-power": ["expand", "eta:1^1", "--mod", "13",
                                        "--trunc", "5"],
        "scan-d-zero": ["scan", "--mod", "5", "--d", "0", "--A", "40", "--nmax", "100"],
        "check-empty-claim": ["check", "--claim", "{}", "--nmax", "10"],
        "check-support-zero": ["check", "--claim", json.dumps(
            {"modulus": 7, "progression": [8, 3], "conditions": [
                {"type": "residue", "modulus": 8, "residues": [5]}]}), "--nmax", "10"],
        "check-past-the-index-budget": ["check", "--claim", json.dumps(CLAIM_7),
                                        "--nmax", "100000"],
        "verify-identity-trunc-below-basis": ["verify-identity", "17", "--trunc", "0"],
        "decompose-input-shorter-than-its-basis": ["decompose", "--k2", "1000",
                                                   "--mod", "13"],
        "bound-level-past-the-cap": ["bound", "--weight2", "3", "--level", str(1 << 62),
                                     "--group", "g0"],
        "bound-progression-off-the-level": ["bound", "--weight2", "15", "--level", "100",
                                            "--group", "g0", "--progression", "8,3"],
        "lemma1-negative-trunc": ["lemma1", "--p", "3", "--trunc", "-2"],
    }
    for name, argv in usage.items():
        add(f"usage-{name}", argv, "1 2 3" if argv[:1] == ["decompose"] else None)
    return out


def run(entry: dict) -> tuple[int, str]:
    """Exit code and stdout of one corpus command, run in-process."""
    stdout = io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(entry.get("stdin", ""))
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli_main(entry["argv"])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        sys.stdin = saved_stdin
        prover.STORE.reset()
        modseries._limit_threads(None)
    return code, stdout.getvalue()


def stream_digests() -> list[dict]:
    """sha256 of each pinned stream's residues as little-endian u32."""
    def digest(residues) -> str:
        return hashlib.sha256(np.asarray(residues).astype("<u4").tobytes()).hexdigest()

    out = [{"modulus": PRIMORIAL_23, "trunc": SHARED_STREAM_DEPTH, "via": "store",
            "sha256": digest(prover._pbar_stream(PRIMORIAL_23, SHARED_STREAM_DEPTH))}]
    prover.STORE.reset()
    for modulus in OWN_STREAM_MODULI:
        series = overpartition_series(OWN_STREAM_DEPTH, ResidueRing(modulus))
        out.append({"modulus": modulus, "trunc": OWN_STREAM_DEPTH,
                    "via": "overpartition_series", "sha256": digest(series.coeffs)})
    return out


def main() -> int:
    os.environ.pop("OVERCONG_CACHE_DIR", None)
    entries = commands()
    for old in HERE.glob("*.out"):
        old.unlink()
    for entry in entries:
        code, stdout = run(entry)
        entry["exit"] = code
        (HERE / f"{entry['name']}.out").write_text(stdout)
    corpus = {"commands": entries, "streams": stream_digests()}
    (HERE / "corpus.json").write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} commands, {len(corpus['streams'])} streams")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
