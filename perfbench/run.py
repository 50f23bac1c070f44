"""overcong benchmark: end-to-end timings, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload proofs|rediscover|explore-warm
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command runs in a fresh child
process (``python -m overcong`` or ``perfbench/child.py``) with
PYTHONPATH=src and without OVERCONG_CACHE_DIR, one child at a time.  Peak
RSS is read per child from ``os.wait4``.

--trace 0 runs the workload's set-up several times, then passes for S
seconds, and reports the end-to-end metrics of BENCHMARK.json: set-up
time as the median of the set-ups, every other timing as the mean over
the run's passes.  On a workload with `probe_scaled` set, every timing is
scaled to a reference host speed by a probe timed throughout the run
(PROBE_REF_S).
--trace 1 runs one set-up, one untraced pass and one traced pass, and
reports the per-layer metrics of BENCHMARK.json from the traced pass's
spans, with the traced-minus-untraced pass time as the tracing overhead.

The report goes to stdout; its last line is the result object.  A run that
finds a wrong output, an unexpected exit code or stdout that changed between
runs of one command reports correct=false and exits 1.  A checkout without
the overcong sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata

import spans as spans_mod
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# A run must end within 180 s; no child starts past this many seconds.
RUN_BUDGET_S = 170.0
IMPORT_SAMPLES = 5

# Host-speed probe.  The host is shared, and its speed drifts by a third or
# more over minutes, moving every timing of a run together.  A timed run of
# a workload with `probe_scaled` set times a fixed probe PROBE_MIN // 2
# times before its set-ups, then every PROBE_EVERY_S seconds, and at the
# end until it has PROBE_MIN samples.  The probe is a fresh interpreter that
# imports numpy and convolves two fixed integer arrays: start-up plus
# cache-sized convolution, the work of the proofs workload's children.
# Each reported timing is the raw timing times PROBE_REF_S / (the run's
# mean probe time), i.e. seconds on a host where the probe takes
# PROBE_REF_S.  The raw timings and the factor are in the report.  The
# probe is a child, not code in this process, so that this process stays
# small: a child's peak RSS counts the parent's pages it starts with.
PROBE_REF_S = 0.3
PROBE_EVERY_S = 2.0
PROBE_MIN = 10
PROBE_CODE = ("import numpy as np; r = np.random.default_rng(0); "
              "np.convolve(r.integers(0, 13, 16000), r.integers(0, 13, 16000))")


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float


class BudgetExceeded(Exception):
    pass


class Harness:
    """Spawns children one at a time and keeps the correctness tally."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("OVERCONG_CACHE_DIR", None)
        env["PYTHONPATH"] = SRC
        self.env = env
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_stdout: dict[str, bytes] = {}
        self.children = 0

    def spawn(self, args: list[str]) -> Outcome:
        """Run `python ARGS` in the work directory and wait for it."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BudgetExceeded("run budget spent before a child could start")
        self.children += 1
        out_path = os.path.join(self.workdir, f"child-{self.children}.out")
        err_path = os.path.join(self.workdir, f"child-{self.children}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env)
            watchdog = threading.Timer(remaining, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            outcome = Outcome(proc.returncode, out.read(), err.read(), seconds)
        os.remove(out_path)
        os.remove(err_path)
        if proc.returncode < 0 and time.monotonic() >= self.deadline:
            raise BudgetExceeded(f"child {args[:3]} killed at the run budget")
        return outcome

    def cli(self, args, spans_dir=None, label=None) -> Outcome:
        """`python -m overcong ARGS`; traced through child.py when spans_dir."""
        if spans_dir is None:
            return self.spawn(["-m", "overcong", *args])
        return self.child(["cli", *args], spans_dir, label)

    def child(self, args, spans_dir=None, label=None) -> Outcome:
        """`python perfbench/child.py ARGS`, writing spans to
        SPANS_DIR/LABEL.jsonl when spans_dir is given."""
        if spans_dir is not None:
            args = ["--spans", os.path.join(spans_dir, f"{label}.jsonl"),
                    "--run-id", f"{os.path.basename(spans_dir)}/{label}", *args]
        return self.spawn([os.path.join(BENCH_DIR, "child.py"), *args])

    def count(self, label: str, error) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            self.failures.append(f"{label}: {error}")

    def judge(self, label: str, out: Outcome, validate, stable: bool = True) -> None:
        """One operation: exit 0, stdout identical to this label's first
        run (unless it is a measurement), and the workload's own check."""
        if out.code != 0:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            error = f"exit code {out.code} {tail}"
        elif stable and self.first_stdout.setdefault(label, out.stdout) != out.stdout:
            error = "stdout differs from this command's first run"
        else:
            error = validate(out) if validate else None
        self.count(label, error)


class Probe:
    """Times the host-speed probe; see PROBE_REF_S."""

    def __init__(self, h: Harness, enabled: bool):
        self.h = h
        self.enabled = enabled
        self.times: list[float] = []
        self.last = -math.inf

    def run(self) -> None:
        if not self.enabled:
            return
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE_CODE], cwd=self.h.workdir,
                       env=self.h.env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True, timeout=60)
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def due(self) -> None:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.run()

    def scale(self) -> float:
        if not self.enabled:
            return 1.0
        while len(self.times) < PROBE_MIN:
            self.run()
        return PROBE_REF_S / statistics.mean(self.times)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]):
    """Highest of p50..p99 with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, sorted(values)[rank - 1]
    return None


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": metadata.version("numpy"),
            "platform": platform.platform()}


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(wl, h: Harness, seconds: float, lines: list[str], raw: dict) -> dict:
    probe = Probe(h, wl.probe_scaled)
    for _ in range(PROBE_MIN // 2):
        probe.run()
    setup_s = []
    for _ in range(wl.setups):
        probe.due()
        start = time.perf_counter()
        wl.setup(h)
        setup_s.append(time.perf_counter() - start)

    samples: dict[str, list[float]] = defaultdict(list)
    by_label: dict[str, list[float]] = defaultdict(list)
    started = time.perf_counter()
    while True:
        probe.due()
        start = time.perf_counter()
        result = wl.run_pass(h)
        samples["pass_s"].append(time.perf_counter() - start)
        for key in ("core_s", "check_s"):
            if key in result:
                samples[key].append(result[key])
        samples["cmd_s"] += result.get("cmd_s", [])
        for label, latency in result.get("latency", {}).items():
            by_label[label].append(latency)
        # Stop before a pass that would end after `seconds`.
        elapsed = time.perf_counter() - started
        typical = statistics.median(samples["pass_s"])
        if (elapsed + typical > seconds
                or time.monotonic() + typical > h.deadline - 5):
            break

    samples["setup_s"] = setup_s
    scale = probe.scale()
    raw.update({k: [round(v, 5) for v in vs] for k, vs in samples.items()})
    if probe.enabled:
        raw["probe_s"] = [round(v, 5) for v in probe.times]
        raw["scale"] = scale
        lines.append(f"  host probe   mean {statistics.mean(probe.times):.4f} s of "
                     f"{len(probe.times)}; timings below are raw x {scale:.4f}")
    raw["latency_by_command"] = {k: [round(v, 5) for v in vs] for k, vs in by_label.items()}
    metrics = {}
    for key in ("setup_s", "pass_s", "core_s", "check_s", "cmd_s"):
        values = samples.get(key, [])
        # Set-up time is the median of the run's set-ups.  The other timings
        # are the mean over the run: on a shared host a command's time
        # switches between a fast and a slow mode every few seconds, and the
        # median of a run lands between the modes (README, "Statistics").
        center = statistics.median if key == "setup_s" else statistics.mean
        metrics[key] = center(values) * scale if values else 0.0
        name = wl.named.get(key, key)
        note = f"raw {center.__name__} of {len(values)}"
        if values:
            note += f" {center(values):.4f} s"
        if values and key != "setup_s":
            note += f", raw median {statistics.median(values):.4f} s"
        t = tail(values)
        if t:
            note += f", raw p{t[0]} {t[1]:.4f} s"
        lines.append(f"  {key:<12} {name:<18} {metrics[key]:10.4f} s   ({note})")
    metrics["peak_rss_mb"] = h.peak_rss_mb
    metrics["ok_frac"] = 1.0 - h.failed / max(h.attempted, 1)
    lines.append(f"  peak_rss_mb  {h.peak_rss_mb:10.1f} MB (max over {h.children} children)")
    lines.append(f"  ok_frac      {metrics['ok_frac']:.4f}  "
                 f"(failed_frac {h.failed}/{h.attempted})")
    return metrics


def traced_run(wl, h: Harness, lines: list[str]) -> dict:
    setup_dir = os.path.join(h.workdir, "spans-setup")
    pass_dir = os.path.join(h.workdir, "spans-pass")
    os.makedirs(setup_dir)
    os.makedirs(pass_dir)
    wl.setup(h, setup_dir)
    start = time.perf_counter()
    wl.run_pass(h, full=True)
    plain_s = time.perf_counter() - start
    start = time.perf_counter()
    wl.run_pass(h, pass_dir, full=True)
    traced_s = time.perf_counter() - start

    setup_files = [os.path.join(setup_dir, f) for f in sorted(os.listdir(setup_dir))]
    pass_files = [os.path.join(pass_dir, f) for f in sorted(os.listdir(pass_dir))]
    setup_spans, setup_counters = spans_mod.read_records(setup_files)
    pass_spans, pass_counters = spans_mod.read_records(pass_files)
    # Per-layer metrics describe the traced pass.  The store is written only
    # in set-up, so the write path is read from the traced set-up.
    metrics = spans_mod.layer_metrics(pass_spans, pass_counters)
    cold = spans_mod.layer_metrics(setup_spans, setup_counters)
    for key in ("modseries.save_series.s", "modseries.save_series.bytes"):
        metrics[key] += cold[key]

    import_s = []
    for _ in range(IMPORT_SAMPLES):
        out = h.child(["import-time"])
        h.judge("import-time", out, None, stable=False)
        if out.code == 0:
            import_s.append(float(out.stdout))
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    lines.append(f"  traced pass {traced_s:.4f} s, untraced {plain_s:.4f} s, "
                 f"{len(setup_files) + len(pass_files)} span files")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "overcong", "__init__.py")):
        print(f"error: no overcong sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    if build.returncode != 0:
        print(f"error: byte-compiling {SRC} failed\n{build.stderr.decode()}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    h = Harness(workdir, deadline)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine(), "loadavg_start": loadavg()}
    lines = [f"overcong benchmark: {args.workload}, seed {args.seed}, "
             f"{'traced' if args.trace else f'{args.seconds:g} s'}"]
    try:
        if args.trace:
            metrics = traced_run(wl, h, lines)
        else:
            info["samples"] = {}
            metrics = timed_run(wl, h, args.seconds, lines, info["samples"])
    except BudgetExceeded as exc:
        h.count("run", str(exc))
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    info["loadavg_end"] = loadavg()
    info["failures"] = h.failures

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    for name in missing:
        h.count(name, "metric was not measured")
    result = {"correct": h.failed == 0, "attempted": h.attempted, "failed": h.failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                      "unit": m["unit"]} for m in declared}}
    for failure in h.failures:
        lines.append(f"  FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
