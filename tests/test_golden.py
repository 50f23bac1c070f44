"""The golden-output corpus: every recorded command prints what it printed
when the corpus was written, byte for byte, and exits with the same code;
every pinned overpartition stream has the same sha256.

The corpus and generate.py, the script that writes it, live in
tests/golden/; the README says when regenerating it is allowed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)

CORPUS = json.loads((GOLDEN / "corpus.json").read_text())


def test_corpus_lists_every_command_the_script_runs():
    recorded = [{k: v for k, v in e.items() if k != "exit"} for e in CORPUS["commands"]]
    assert recorded == generate.commands()


@pytest.fixture(autouse=True)
def _no_cache_dir(monkeypatch):
    # The corpus was written without a cache directory.
    monkeypatch.delenv("OVERCONG_CACHE_DIR", raising=False)


@pytest.mark.parametrize("entry", CORPUS["commands"], ids=lambda e: e["name"])
def test_command_replays_its_recorded_stdout_and_exit_code(entry):
    code, stdout = generate.run(entry)
    assert code == entry["exit"]
    assert stdout == (GOLDEN / f"{entry['name']}.out").read_text()


def test_pinned_streams_keep_their_digests():
    assert generate.stream_digests() == CORPUS["streams"]
