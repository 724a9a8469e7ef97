"""Every output of the golden corpus (tests/golden), replayed in-process, and
the digests of the random set sweeps beside it."""

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
SET_CHECKS = json.loads(recorder.SET_CHECKS.read_text())


def test_the_corpus_covers_every_argv_in_order():
    assert [entry["argv"] for entry in CORPUS] == recorder.argvs()


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: " ".join(entry["argv"]))
def test_output_is_unchanged(entry):
    assert recorder.record(entry["argv"]) == entry


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_set_check_reports_are_unchanged(mode):
    assert recorder.set_check_digests(mode == "exact") == SET_CHECKS[mode]
