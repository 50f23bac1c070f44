"""The three benchmark workloads and their correctness gates.

A workload has a set-up, repeated a few times per run, and a pass, repeated
for the run's measuring time.  A timed proofs pass runs part of the short
commands in rotation; `run_pass(..., full=True)`, which the traced run
uses, runs every command of the workload.  A pass returns per-pass samples
for the generic end-to-end metrics:

    pass_s   wall time of one pass
    core_s   the workload's core computation within the pass
    check_s  its verification stage within the pass
    cmd_s    latencies of the workload's units of work
    latency  every command's latency by label, for the raw record

and `named` maps those onto the metric names of the workload's own story
(prove_thm13_s, scan_s, scan_wide_s, ...), which the report prints.

Every command the workload runs goes through `Harness.judge`: a wrong exit
code, a failed witness check or stdout that differs from the first time the
same command ran counts as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil

from child import REDISCOVER

# ---------------------------------------------------------------------------
# proofs: criteria 1, 2, 4, 5 and 6 as fresh CLI processes without a cache


def _steps(payload: dict) -> dict:
    return {s["name"]: s["witness"] for s in payload["steps"]}


def _theorem(decomposition, bound, indices, largest=None):
    def check(payload):
        steps = _steps(payload)
        sieve = steps["sturm-progression-check"]
        if not payload["pass"]:
            return "report does not pass"
        if steps["decompose"] != decomposition:
            return f"decomposition {steps['decompose']} != {decomposition}"
        if (sieve["bound"], sieve["indices_checked"]) != (bound, indices):
            return f"sieve bound/indices {sieve['bound']}/{sieve['indices_checked']}"
        if sieve["first_nonzero"] is not None:
            return f"nonzero coefficient at {sieve['first_nonzero']}"
        if largest is not None and payload["limits"]["largest_series_index"] != largest:
            return f"largest series index {payload['limits']['largest_series_index']}"
        return None
    return check


def _identity(derived):
    def check(payload):
        got = _steps(payload)["independent-derivation"]
        if not payload["pass"] or got != derived:
            return f"identity pass={payload['pass']} derivation {got} != {derived}"
        return None
    return check


def _lemma1(payload):
    return None if payload["pass"] else "lemma1 fails"


def _bound(field, expected):
    def check(payload):
        got = payload["progression"]["max_n"] if field == "max_n" else payload["bound"]
        return None if got == expected else f"{field} {got} != {expected}"
    return check


PROOF_COMMANDS = {
    "prove-thm11": (["prove", "thm11"], _theorem([1, 1, 0], 289, 36)),
    "prove-thm13": (["prove", "thm13"], _theorem([1, 4, 1, 0], 705, 88, 45120)),
    "verify-identity-17": (["verify-identity", "17"], _identity([1, 13, 13, 0])),
    "verify-identity-23": (["verify-identity", "23"], _identity([1, 9, 5, 14, 17, 20])),
}
# Criteria 5 and 6: short calls whose time is mostly CLI start-up.
SHORT_COMMANDS = {
    **{f"lemma1-{p}-{alpha}":
       (["lemma1", "--p", str(p), "--alpha", str(alpha), "--trunc", "500"], _lemma1)
       for p, alpha in ((2, 1), (3, 2), (5, 1), (11, 1), (13, 1))},
    "bound-9-256": (["bound", "--weight2", "9", "--level", "256", "--group", "g0"],
                    _bound("bound", 289)),
    "bound-11-512": (["bound", "--weight2", "11", "--level", "512", "--group", "g0"],
                     _bound("bound", 705)),
    "bound-15-340736": (["bound", "--weight2", "15", "--level", "340736",
                         "--group", "g1", "--progression", "88,19"],
                        _bound("max_n", 1_226_649_601)),
    "bound-21-562432": (["bound", "--weight2", "21", "--level", "562432",
                         "--group", "g1", "--progression", "104,29"],
                        _bound("max_n", 3_968_520_193)),
}
SHORT_PER_PASS = 3


def _json_gate(validate):
    def check(out):
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            return "stdout is not one JSON document"
        return validate(payload)
    return check


class Proofs:
    name = "proofs"
    setups = 9
    # CLI start-up and cache-sized convolutions, like the host probe: on a
    # seven-minute trace the probe cut the run-to-run spread from 0.13 to
    # 0.05 (README, "Statistics").
    probe_scaled = True
    named = {"pass_s": "proofs_pass_s", "core_s": "prove_thm13_s",
             "check_s": "verify_identity_s", "cmd_s": "short_cmd_s"}

    def __init__(self, seed: int, workdir: str):
        """Fixed inputs: the paper's two proofs and their witnesses."""
        self.passes = 0

    def setup(self, h, spans_dir=None) -> None:
        """Readiness probe: one cold CLI start (interpreter, imports, argparse)."""
        out = h.cli(["--help"])
        h.judge("cli-help", out, None)

    def run_pass(self, h, spans_dir=None, full=False) -> dict:
        """The four proof commands and SHORT_PER_PASS of the short calls, in
        rotation, so that every short call runs every third pass; a full
        pass runs all nine.  The two identity checks are run apart because
        the host's speed persists for a few seconds: adjacent, they would
        mostly share one draw of it."""
        short = list(SHORT_COMMANDS)
        if not full:
            first = self.passes * SHORT_PER_PASS % len(short)
            short = short[first:first + SHORT_PER_PASS]
        self.passes += 1
        middle = len(short) // 2
        order = (["verify-identity-17", "prove-thm11", *short[:middle], "prove-thm13",
                  *short[middle:-1], "verify-identity-23", *short[-1:]])
        latency = {}
        for label in order:
            args, validate = PROOF_COMMANDS.get(label) or SHORT_COMMANDS[label]
            out = h.cli(["--output", "json", *args], spans_dir, label)
            h.judge(label, out, _json_gate(validate))
            latency[label] = out.seconds
        return {"core_s": latency["prove-thm13"],
                "check_s": latency["verify-identity-17"] + latency["verify-identity-23"],
                "cmd_s": [latency[label] for label in short],
                "latency": latency}


# ---------------------------------------------------------------------------
# rediscover: criterion 7 through the API, one fresh process per pass

def _conditions(residue: int, p: int, sign: int) -> list[dict]:
    return [{"type": "residue", "modulus": 8, "residues": [residue]},
            {"type": "kronecker", "p": p, "sign": sign}]


# modulus -> (offsets B, the conditions every claim carries), per criterion 7.
REDISCOVERED = {
    7: ([11, 43, 51], _conditions(3, 7, 1)),
    17: ([19, 35, 43, 51, 83], _conditions(3, 11, -1)),
    23: ([29, 53, 61, 69, 77, 101], _conditions(5, 13, 1)),
}


def rediscover_errors(rows: list) -> list:
    """One entry per operation (the four scans, then every re-check): None,
    or why it is wrong."""
    if len(rows) != len(REDISCOVER):
        return [f"{len(rows)} scan results for {len(REDISCOVER)} scans"] * len(REDISCOVER)
    errors = []
    for row, (modulus, _, a, *_) in zip(rows, REDISCOVER):
        claims = row["claims"]
        offsets = sorted(c["progression"][1] for c in claims)
        error = None
        if row["modulus"] != modulus:
            error = f"scan order: modulus {row['modulus']} != {modulus}"
        elif len(row["rechecks"]) != len(claims):
            error = f"mod {modulus}: {len(row['rechecks'])} re-checks of {len(claims)} claims"
        elif modulus in REDISCOVERED:
            want_offsets, want_conditions = REDISCOVERED[modulus]
            if offsets != want_offsets:
                error = f"mod {modulus}: offsets {offsets} != {want_offsets}"
            elif any(c["conditions"] != want_conditions for c in claims):
                error = f"mod {modulus}: conditions differ from {want_conditions}"
        elif [a, 35] not in [c["progression"] for c in claims]:
            error = f"mod {modulus}: pbar({a}n+35) not found"
        errors.append(error)
    for row in rows:
        for claim, (status, _, counterexample) in zip(row["claims"], row["rechecks"]):
            errors.append(None if status == "verified" else
                          f"re-check mod {row['modulus']} {claim['progression']}: "
                          f"{status} at {counterexample}")
    return errors


class Rediscover:
    name = "rediscover"
    setups = 9
    # The recurrence over multi-megabyte arrays does not slow with the
    # probe: scaled, five runs spread 0.24 instead of 0.16.
    probe_scaled = False
    named = {"pass_s": "scan_set_s", "core_s": "scan_s", "check_s": "recheck_s",
             "cmd_s": "mean_step_s"}

    def __init__(self, seed: int, workdir: str):
        """Fixed inputs: the congruences criterion 7 must rediscover."""

    def setup(self, h, spans_dir=None) -> None:
        """Readiness probe: one cold import of the API in a fresh process."""
        out = h.spawn(["-c", "import overcong"])
        h.judge("api-import", out, None)

    def run_pass(self, h, spans_dir=None, full=True) -> dict:
        out = h.child(["rediscover"], spans_dir, "rediscover")
        try:
            rows = json.loads(out.stdout)
            timings = json.loads(out.stderr.splitlines()[-1])
            errors = rediscover_errors(rows)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            h.judge("rediscover", out, lambda _: f"unreadable output: {exc!r}")
            return {}
        # The process itself (exit code, stable stdout) is one more operation.
        h.judge("rediscover", out, None)
        for i, error in enumerate(errors):
            h.count(f"rediscover-op{i}", error)
        # Each scan and each modulus' group of re-checks inverts phi(-q)
        # once; cmd_s is the mean of those eight steps.
        steps = timings["scan_s"] + timings["recheck_s"]
        return {"core_s": sum(timings["scan_s"]), "check_s": sum(timings["recheck_s"]),
                "cmd_s": [sum(steps) / len(steps)], "latency": {"rediscover": out.seconds}}


# ---------------------------------------------------------------------------
# explore-warm: CLI scans and checks against a store set-up populated

WIDE_A = [8 * k for k in range(1, 11)]


class ExploreWarm:
    name = "explore-warm"
    setups = 3
    # Scaled and raw timings spread alike (0.09), so the probe's time goes
    # to passes instead.
    probe_scaled = False
    named = {"pass_s": "warm_pass_s", "core_s": "scan_wide_s",
             "check_s": "warm_checks_s", "cmd_s": "cmd_s"}

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.rng = rng
        self.store = os.path.join(workdir, "store")
        # Mod 7 around the known pbar(16(56n+B)) family, two scan threads.
        d7 = [16] + rng.sample([d for d in range(2, 65) if d != 16], 3)
        a7 = [56] + rng.sample([a for a in range(8, 121, 8) if a != 56], 3)
        # The wide grid: twelve small multipliers, d = 1 and one seeded d
        # from each of [2, 3], [4, 5], ..., [22, 23], against ten steps
        # A = 8k.  A pair gathers about max-index/d coefficients whatever
        # A is, so stratifying d keeps the gather work within a few percent
        # from seed to seed.
        d17 = [1] + [rng.choice((2 * k, 2 * k + 1)) for k in range(1, 12)]
        self.scans = {
            "scan-7": ["--threads", "2", "--output", "json", "scan", "--mod", "7",
                       "--d", _ints(d7), "--A", _ints(a7), "--nmax", "1000000",
                       "--max-index", "500000"],
            "scan-17-wide": ["--output", "json", "scan", "--mod", "17",
                             "--d", _ints(d17), "--A", _ints(WIDE_A),
                             "--nmax", "1000000", "--max-index", "1000000"],
        }
        self.checks = None
        self.reference: dict[str, bytes] = {}

    def _cmd(self, args):
        return ["--cache-dir", self.store, *args]

    def _pick_checks(self, claims: list[dict]) -> dict:
        """Three claims the scans emitted, each checked on a seeded budget
        of 1e5 to 2e5 coefficients (every index the scan already covered)."""
        picks = {}
        order = list(range(len(claims)))
        self.rng.shuffle(order)
        for i in order:
            claim = claims[i]
            budget = self.rng.randrange(100_000, 200_001)
            a, b = claim["progression"]
            n_max = (budget // claim["multiplier"] - b) // a
            if n_max >= 10:
                picks[f"check-{len(picks)}"] = [
                    "check", "--claim", json.dumps(claim, sort_keys=True),
                    "--nmax", str(n_max)]
            if len(picks) == 3:
                break
        return picks

    def setup(self, h, spans_dir=None) -> None:
        """Cold population: every command of a pass, once, on an empty store."""
        shutil.rmtree(self.store, ignore_errors=True)
        claims = []
        for label, args in self.scans.items():
            out = h.cli(self._cmd(args), spans_dir, f"setup-{label}")
            h.judge(f"setup-{label}", out, _scan_gate(label == "scan-7"))
            if out.code == 0:
                claims += json.loads(out.stdout)["claims"]
            self.reference.setdefault(label, out.stdout)
        if self.checks is None:
            self.checks = self._pick_checks(claims)
        for label, args in self.checks.items():
            out = h.cli(self._cmd(args), spans_dir, f"setup-{label}")
            h.judge(f"setup-{label}", out, _verified)
            self.reference.setdefault(label, out.stdout)

    def run_pass(self, h, spans_dir=None, full=True) -> dict:
        latency = {}
        for label, args in {**self.scans, **self.checks}.items():
            out = h.cli(self._cmd(args), spans_dir, label)
            h.judge(label, out, self._warm_gate(label))
            latency[label] = out.seconds
        return {"core_s": latency["scan-17-wide"],
                "check_s": sum(v for k, v in latency.items() if k.startswith("check")),
                "cmd_s": list(latency.values()), "latency": latency}

    def _warm_gate(self, label):
        def check(out):
            if out.stdout != self.reference[label]:
                return "warm stdout differs from the cold set-up's"
            return None
        return check


def _scan_gate(known_family: bool):
    """A claims document; the mod-7 grid must also report pbar(16(56n+B))
    = 0 mod 7 for B = 11, 43 and 51 with criterion 7's conditions, which its
    (16, 56) pair always scans."""
    def check(out):
        try:
            claims = json.loads(out.stdout)["claims"]
        except (ValueError, KeyError, TypeError):
            return "scan stdout is not a claims document"
        if not known_family:
            return None
        family = [c for c in claims
                  if c["multiplier"] == 16 and c["progression"][0] == 56]
        want_offsets, want_conditions = REDISCOVERED[7]
        offsets = sorted(c["progression"][1] for c in family)
        if offsets != want_offsets:
            return f"pbar(16(56n+B)) mod 7 offsets {offsets} != {want_offsets}"
        if any(c["conditions"] != want_conditions for c in family):
            return "pbar(16(56n+B)) mod 7 conditions differ from criterion 7's"
        return None
    return check


_VERIFIED = re.compile(rb": verified \(support [1-9][0-9]*\)\n$")


def _verified(out):
    """`check` verified the claim on at least one index."""
    if _VERIFIED.search(out.stdout):
        return None
    return "check did not verify the claim on a non-empty support"


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {w.name: w for w in (Proofs, Rediscover, ExploreWarm)}
