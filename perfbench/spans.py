"""Per-layer metrics from the span files of a traced pass.

Inclusive time of a function counts only its outermost span, so a function
that reaches itself again is not counted twice.  Self time subtracts the
direct child spans (coefficient-stream inversion, loads and saves for the
prover functions); counter-only functions such as ``chars.kronecker`` stay
inside their caller's self time.
"""

from __future__ import annotations

import json
from collections import defaultdict

# Step names of the ProofReports the proofs workload produces.
PROOF_STEPS = (
    "expand-theta-power", "hecke-vs-u", "decompose", "cancel-phi",
    "overpartition-consistency", "u-chain", "sturm-progression-check",
    "direct-crosscheck", "generating-function-side", "coefficientwise-compare",
    "independent-derivation",
)

# Functions whose inclusive seconds are reported as "<span name>.s".
TIMED = (
    "modseries.ring_invert", "modseries.ring_div", "modseries.load_series",
    "modseries.save_series", "qgen.overpartition_series", "qgen.weight2_form",
    "qgen.r_m_series", "halfint.decompose", "halfint.expand_monomial",
    "halfint.recombine", "halfint.hecke_T", "halfint.sieve_progression",
    "sturm.sturm_bound",
)


def read_records(paths) -> tuple[list[dict], list[dict]]:
    """Spans and counter lines of the given files.  Every line must parse."""
    spans, counters = [], []
    for path in paths:
        with open(path) as fh:
            for line in fh:
                record = json.loads(line)
                (counters if "counter" in record else spans).append(record)
    return spans, counters


def _inclusive(spans: list[dict], by_key: dict) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        parent = by_key.get((span["run"], span["parent"]))
        nested = False
        while parent is not None:
            if parent["name"] == span["name"]:
                nested = True
                break
            parent = by_key.get((parent["run"], parent["parent"]))
        if not nested:
            totals[span["name"]] += span["end"] - span["start"]
    return totals


def layer_metrics(spans: list[dict], counters: list[dict]) -> dict[str, float]:
    """Every per-layer metric except cli.import_s and the trace.* overheads,
    which the harness measures itself."""
    by_key = {(s["run"], s["id"]): s for s in spans}
    children: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])] += s["end"] - s["start"]
    inclusive = _inclusive(spans, by_key)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.s"] = inclusive.get(name, 0.0)

    inverts = named["modseries.ring_invert"]
    out["modseries.ring_invert.calls"] = len(inverts)
    out["modseries.ring_invert.coeffs"] = sum(s["trunc"] + 1 for s in inverts)

    for path in ("dense", "sparse"):
        muls = [s for s in named["modseries.ring_mul"] if s["path"] == path]
        out[f"modseries.ring_mul.{path}.s"] = sum(s["end"] - s["start"] for s in muls)
        out[f"modseries.ring_mul.{path}.calls"] = len(muls)

    for op in ("load_series", "save_series"):
        out[f"modseries.{op}.bytes"] = sum(s["bytes"] for s in named[f"modseries.{op}"])

    # Coefficients are counted as truncation indices, so the redundancy of
    # criterion 7's budgets is exactly 27e6 / 15e6 = 1.8 at any scale.
    streams = named["qgen.overpartition_series"]
    out["qgen.overpartition_series.calls"] = len(streams)
    out["qgen.overpartition_series.coeffs"] = sum(s["trunc"] for s in streams)
    largest: dict[int, int] = {}
    for s in streams:
        largest[s["modulus"]] = max(largest.get(s["modulus"], 0), s["trunc"])
    needed = sum(largest.values())
    out["qgen.overpartition_series.redundancy"] = (
        out["qgen.overpartition_series.coeffs"] / needed if needed else 0.0)

    kron = [c for c in counters if c["counter"] == "chars.kronecker"]
    out["chars.kronecker.calls"] = sum(c["calls"] for c in kron)
    out["chars.kronecker.s"] = sum(c["s"] for c in kron)
    out["sturm.sturm_bound.calls"] = len(named["sturm.sturm_bound"])

    for name in ("scan", "check_claim_direct"):
        out[f"prover.{name}.self_s"] = sum(
            s["end"] - s["start"] - children[(s["run"], s["id"])]
            for s in named[f"prover.{name}"])
    out["prover.scan.gathered"] = sum(s["gathered"] for s in named["prover.scan"])

    steps = dict.fromkeys(PROOF_STEPS, 0.0)
    for s in spans:
        for step, seconds in s.get("steps", ()):
            steps[step] = steps.get(step, 0.0) + seconds
    for step in PROOF_STEPS:
        out[f"prover.step.{step}.s"] = steps[step]

    loads = len(named["modseries.load_series"])
    lookups = loads + len(streams)
    out["store.hit_ratio"] = loads / lookups if lookups else 0.0
    out["trace.spans"] = len(spans)
    return out
