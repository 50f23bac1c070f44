"""The names perfbench/tracer.py wraps and reads must exist in the package.

The tracer is loaded by path, as the benchmark loads it, so deleting or
renaming one of these names fails here and not only in the benchmark."""

import importlib
import importlib.util
from pathlib import Path

import overcong
import overcong.cli  # noqa: F401  (not imported by the package itself)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
