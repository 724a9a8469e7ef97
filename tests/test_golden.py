"""Every output of the golden corpus (tests/golden), replayed in-process."""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "_golden_regenerate", GOLDEN / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


recorder = _load_recorder()
CORPUS = json.loads(recorder.CORPUS.read_text())


def test_the_corpus_covers_every_argv_in_order():
    assert [entry["argv"] for entry in CORPUS] == recorder.argvs()


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: " ".join(entry["argv"]))
def test_output_is_unchanged(entry):
    assert recorder.record(entry["argv"]) == entry
