"""Self-test of the benchmark.  Runs one traced run per workload (about a
minute on a 2-core machine):

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans

# Per-layer metric -> the workload whose traced pass must make it non-zero.
# README.md gives the end-to-end metric each one should move.
HOME = {
    "modseries.ring_invert.s": "rediscover",
    "modseries.ring_invert.calls": "rediscover",
    "modseries.ring_invert.coeffs": "rediscover",
    "modseries.ring_div.s": "proofs",
    "modseries.ring_mul.dense.s": "proofs",
    "modseries.ring_mul.dense.calls": "proofs",
    "modseries.ring_mul.sparse.s": "proofs",
    "modseries.ring_mul.sparse.calls": "proofs",
    "modseries.load_series.s": "explore-warm",
    "modseries.load_series.bytes": "explore-warm",
    "modseries.save_series.s": "explore-warm",
    "modseries.save_series.bytes": "explore-warm",
    "qgen.overpartition_series.s": "rediscover",
    "qgen.overpartition_series.calls": "rediscover",
    "qgen.overpartition_series.coeffs": "rediscover",
    "qgen.overpartition_series.redundancy": "rediscover",
    "qgen.weight2_form.s": "proofs",
    "qgen.r_m_series.s": "proofs",
    "halfint.decompose.s": "proofs",
    "halfint.expand_monomial.s": "proofs",
    "halfint.recombine.s": "proofs",
    "halfint.hecke_T.s": "proofs",
    "halfint.sieve_progression.s": "proofs",
    "chars.kronecker.calls": "explore-warm",
    "chars.kronecker.s": "explore-warm",
    "sturm.sturm_bound.calls": "proofs",
    "sturm.sturm_bound.s": "proofs",
    "prover.scan.self_s": "explore-warm",
    "prover.scan.gathered": "explore-warm",
    "prover.check_claim_direct.self_s": "rediscover",
    **{f"prover.step.{step}.s": "proofs" for step in spans.PROOF_STEPS},
    "store.hit_ratio": "explore-warm",
    "cli.import_s": "explore-warm",
    "trace.spans": "proofs",
}

MODULES = ("modseries", "qgen", "chars", "halfint", "sturm", "prover", "cli")


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def traced(request):
    """One traced run; yields (workload, metrics, harness, span records)."""
    name = request.param
    workdir = os.path.join(run.WORK_ROOT, f"selftest-{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        h = run.Harness(workdir, time.monotonic() + run.RUN_BUDGET_S)
        wl = run.WORKLOADS[name](1, workdir)
        metrics = run.traced_run(wl, h, [])
        files = [os.path.join(workdir, d, f) for d in ("spans-setup", "spans-pass")
                 for f in sorted(os.listdir(os.path.join(workdir, d)))]
        lines = []
        for path in files:
            with open(path) as fh:
                lines += fh.readlines()
        yield name, metrics, h, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_declared_per_layer_metrics_are_measured(traced):
    _, metrics, _, _ = traced
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert declared == set(metrics)
    assert set(HOME) <= declared


def test_layer_metrics_nonzero_on_their_workload(traced):
    name, metrics, _, _ = traced
    zero = [m for m, home in HOME.items() if home == name and not metrics[m] > 0]
    assert zero == []


def test_workload_specific_counts(traced):
    name, metrics, _, _ = traced
    if name == "rediscover":
        assert metrics["qgen.overpartition_series.calls"] == 8
        assert metrics["qgen.overpartition_series.redundancy"] == 1.8
        assert metrics["store.hit_ratio"] == 0
    if name == "explore-warm":
        assert metrics["store.hit_ratio"] == 1.0
        assert metrics["qgen.overpartition_series.calls"] == 0


def test_tracing_leaves_stdout_identical(traced):
    # The traced pass runs every command under the label of its untraced
    # run, and the harness fails a label whose stdout changes.
    _, _, h, _ = traced
    assert h.failures == []
    assert h.attempted > 0


def test_every_span_line_parses(traced):
    name, _, _, lines = traced
    assert lines
    seen = set()
    for line in lines:
        record = json.loads(line)
        if "counter" in record:
            seen.add(record["counter"].split(".")[0])
            continue
        for key in ("id", "name", "start", "end", "parent", "run"):
            assert key in record, (key, record)
        assert record["end"] >= record["start"]
        seen.add(record["name"].split(".")[0])
    if name == "proofs":
        assert seen == set(MODULES)


def test_tracer_rebinds_every_import_site():
    code = (
        "import tracer, overcong, overcong.cli as cli, overcong.qgen as qgen\n"
        "import overcong.halfint as halfint, overcong.prover as prover\n"
        "import overcong.modseries as ms, overcong.chars as chars\n"
        "t = tracer.Tracer('x'); tracer.install(t)\n"
        "for mod in (overcong, qgen, halfint, prover):\n"
        "    assert mod.ring_mul is ms.ring_mul, mod\n"
        "assert ms.ring_mul.__wrapped__ is not None\n"
        "assert prover.overpartition_series is qgen.overpartition_series\n"
        "assert cli.overpartition_series is qgen.overpartition_series\n"
        "assert cli.load_series is ms.load_series is overcong.load_series\n"
        "assert overcong.scan is prover.scan and hasattr(prover.scan, '__wrapped__')\n"
        "chars.kronecker(3, 7); prover.chars.kronecker(5, 7)\n"
        "assert t.counters['chars.kronecker'][0] == 2\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, run.BENCH_DIR]))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=run.BENCH_DIR,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_self_time_and_nesting():
    def span(i, name, start, end, parent=None):
        return {"id": i, "name": name, "start": start, "end": end,
                "parent": parent, "run": "r", "modulus": 7, "trunc": 10,
                "gathered": 0}
    records = [
        span(1, "prover.scan", 0.0, 10.0, None),
        span(2, "qgen.overpartition_series", 1.0, 7.0, 1),
        span(3, "modseries.ring_invert", 1.5, 6.5, 2),
        span(4, "halfint.recombine", 20.0, 24.0),
        span(5, "halfint.recombine", 21.0, 22.0, 4),
    ]
    m = spans.layer_metrics(records, [])
    assert m["prover.scan.self_s"] == 4.0
    assert m["modseries.ring_invert.s"] == 5.0
    assert m["halfint.recombine.s"] == 4.0
