"""What a whole overcong process pays for and prints: the threads and
modules an import brings, and `python -m overcong` as a subprocess.

The golden corpus and the argv tests call `cli.main` in-process; these
run the real entry point, which the installed `overcong` script shares.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import overcong.__main__ as entry
from overcong import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CORPUS = {e["name"]: e for e in json.loads((GOLDEN / "corpus.json").read_text())["commands"]}


def python(args, env_update=None, drop=(), stdin=None):
    """`python ARGS` in a fresh process that imports this checkout's
    overcong; stdout and stderr as bytes."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **(env_update or {}))
    for name in ("OVERCONG_CACHE_DIR", *drop):
        env.pop(name, None)
    return subprocess.run([sys.executable, *args], env=env, input=stdin,
                          capture_output=True, timeout=300)


IMPORT_PROBE = (
    "import json, os, sys\n"
    "import overcong\n"
    "print(json.dumps({'threads': len(os.listdir('/proc/self/task')),\n"
    "                  'futures': 'concurrent.futures' in sys.modules,\n"
    "                  'blas': os.environ.get('OPENBLAS_NUM_THREADS')}))\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_import_starts_no_thread_and_no_executor():
    # The variable is dropped first: this process imported overcong, which
    # set it, and the child would otherwise inherit the value.
    done = python(["-c", IMPORT_PROBE], drop=("OPENBLAS_NUM_THREADS",))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"threads": 1, "futures": False, "blas": "1"}


def test_a_preset_openblas_thread_count_is_kept():
    done = python(["-c", "import os, overcong; print(os.environ['OPENBLAS_NUM_THREADS'])"],
                  env_update={"OPENBLAS_NUM_THREADS": "3"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().strip() == "3"


def test_a_thread_limit_before_any_solve_makes_no_executor():
    code = (
        "import sys\n"
        "from concurrent import futures\n"
        "from overcong import modseries\n"
        "made = []\n"
        "real = futures.ThreadPoolExecutor.__init__\n"
        "def init(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    real(self, *args, **kwargs)\n"
        "futures.ThreadPoolExecutor.__init__ = init\n"
        "modseries._limit_threads(None)\n"
        "modseries._limit_threads(2)\n"
        "assert not made, made\n"
        "assert modseries._POOL is None\n"
    )
    done = python(["-c", code])
    assert done.returncode == 0, done.stderr


def test_commands_that_solve_nothing_import_no_executor(tmp_path):
    # A cold scan fills the store; a fresh process then scans and checks
    # from it, and runs `bound` and `lemma1`, without ever needing the
    # solver pool.
    scan = ["--cache-dir", str(tmp_path), "scan", "--mod", "7", "--d", "16", "--A", "56",
            "--nmax", "1000", "--max-index", "200000"]
    assert python(["-m", "overcong", *scan]).returncode == 0
    code = (
        "import json, sys\n"
        "from overcong.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "loaded = sorted({'concurrent.futures', 'logging'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    commands = [scan, ["--cache-dir", str(tmp_path), *CORPUS["check-verified"]["argv"]],
                CORPUS["bound-9-256"]["argv"], CORPUS["lemma1-13-1"]["argv"]]
    done = python(["-c", code, json.dumps(commands)])
    assert done.returncode == 0, done.stderr


def test_the_proof_commands_start_no_pool():
    # With two usable CPUs a solve may share work, but every solve these
    # commands make is shorter than a segment, so none makes the pool.
    # Their stdout is the same under --threads 1.
    code = (
        "import contextlib, io, json, os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from overcong import modseries\n"
        "from overcong.cli import main\n"
        "def run(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, argv\n"
        "    return out.getvalue()\n"
        "commands = json.loads(sys.argv[1])\n"
        "shared = [run(argv) for argv in commands]\n"
        "assert modseries._SHARE\n"
        "assert modseries._POOL is None\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "for argv, out in zip(commands, shared):\n"
        "    assert run(['--threads', '1', *argv]) == out, argv\n"
    )
    commands = [CORPUS[name]["argv"] for name in
                ("prove-thm11-json", "prove-thm13-json", "verify-identity-17-json",
                 "verify-identity-23-json")]
    done = python(["-c", code, json.dumps(commands)])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["prove-thm11-json", "bound-15-340736",
                                  "decompose-perturbed-mod-13"])
def test_the_entry_point_prints_the_golden_stdout(name):
    want = CORPUS[name]
    stdin = want.get("stdin", "").encode()
    done = python(["-m", "overcong", *want["argv"]], stdin=stdin)
    assert done.returncode == want["exit"], done.stderr
    assert done.stdout == (GOLDEN / f"{name}.out").read_bytes()
    assert b"Traceback" not in done.stderr


def test_the_entry_point_help_and_usage_error():
    done = python(["-m", "overcong", "--help"])
    assert done.returncode == 0 and done.stdout.startswith(b"usage: overcong"), done.stderr
    usage = CORPUS["usage-lemma1-negative-trunc"]
    done = python(["-m", "overcong", *usage["argv"]])
    assert done.returncode == usage["exit"] == 2
    assert done.stderr and b"Traceback" not in done.stderr


def test_the_installed_script_runs_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"]["overcong"] == "overcong.__main__:run"


def test_only_the_entry_freezes_the_heap(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    # cli.main, which tests and the corpus script call again and again in
    # one process, leaves the collector alone.
    assert cli.main(["bound", "--weight2", "9", "--level", "4", "--group", "g0"]) == 0
    assert calls == []
    # The entry freezes after its imports, then runs the command.
    monkeypatch.setattr(entry, "main", lambda: calls.append("main") or 0)
    assert entry.run() == 0
    assert calls == ["freeze", "main"]
