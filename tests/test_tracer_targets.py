"""The names perfbench/tracer.py wraps and reads must exist in the package.

The tracer is loaded by path, as the benchmark loads it, so deleting or
renaming one of these names fails here and not only in the benchmark."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import overcong
import overcong.cli  # noqa: F401  (not imported by the package itself)

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module_name, attr, _ in tracer.TARGETS:
        owner = importlib.import_module(f"overcong.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_import_sites_the_tracer_self_test_reads_exist():
    # Names the self-test and the describers read at an import site, each
    # bound to the same object as at its definition.
    from overcong import cli, halfint, modseries, prover, qgen
    for module in (overcong, qgen, halfint, prover):
        assert module.ring_mul is modseries.ring_mul, module
    assert cli.load_series is modseries.load_series is overcong.load_series
    assert cli.overpartition_series is qgen.overpartition_series
    assert prover.overpartition_series is qgen.overpartition_series
    assert overcong.scan is prover.scan
    assert prover.chars.kronecker is overcong.kronecker
    assert isinstance(qgen.QExpansion, type)
    assert isinstance(modseries.TruncSeries, type)
    assert callable(prover.default_scan_index)


def traced_names(body: str, *argv: str) -> set:
    """Span names from `body` run in a fresh process with the tracer
    installed; argv reaches it as sys.argv[2:]."""
    code = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('perfbench_tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "t = tracer.Tracer('t')\n"
        "tracer.install(t)\n"
        f"{body}"
        "names = {s['name'] for s in t.spans}\n"
        "names |= {s['name'] + '.' + s['path'] for s in t.spans if 'path' in s}\n"
        "print(json.dumps(sorted(names)))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OVERCONG_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", code, str(TRACER), *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_proofs_path_feeds_the_per_layer_spans():
    # The benchmark's per-layer metrics for the proofs workload are read
    # from these spans; a refactor that stops the proofs path from calling
    # one of them would empty its metric.
    names = traced_names(
        "from overcong import prover\n"
        "assert prover.prove_theorem_mod13().passed\n"
        "assert prover.verify_identity(17, 120).passed\n")
    for name in ("halfint.expand_monomial", "halfint.recombine", "halfint.decompose",
                 "qgen.weight2_form", "qgen.r_m_series",
                 "modseries.ring_mul.sparse", "modseries.ring_mul.dense"):
        assert name in names, name


def test_store_path_feeds_the_stream_and_cache_spans(tmp_path):
    # A cold scan with a cache directory builds the stream and writes its
    # file; a warm rerun reads the file and builds nothing.  The store's
    # per-layer metrics (qgen.overpartition_series.*, modseries.load_series.*,
    # modseries.save_series.*, store.hit_ratio) are read from these spans.
    body = ("from overcong import cli\n"
            "assert cli.main(['--cache-dir', sys.argv[2], 'scan', '--mod', '5', '--d', '1',\n"
            "                 '--A', '8', '--nmax', '200', '--max-index', '3000']) == 0\n")
    cold = traced_names(body, str(tmp_path))
    warm = traced_names(body, str(tmp_path))
    assert {"qgen.overpartition_series", "modseries.save_series"} <= cold
    assert "modseries.load_series" in warm
    assert "qgen.overpartition_series" not in warm
