"""Smoke tests: the bundled scripts run to completion and report success."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [
        ["run_corpus.py"],
        ["equivalence_experiments.py", "--trials", "300", "--engine-trials", "60"],
    ],
    ids=["run_corpus", "equivalence_experiments"],
)
def test_script_exits_0(argv):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


# Recorded on the tree before per-shape bag memos, stored schema facts and
# patched edited graphs; equal under PYTHONHASHSEED 0, 7 and 123.
CORPUS_DIGEST = (
    "1956 invocations, sha256 e6f2076d85b05e51a449de1c92e44b7e69b7511e9f2043d9a6e7d897aa59db78\n"
)


def test_corpus_digest_is_pinned():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "corpus_digest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == CORPUS_DIGEST


# Recorded on the tree whose snapshots copied the whole search state; equal
# under PYTHONHASHSEED 0, 7 and 123.
FLOODING_DIGEST = (
    "3020 runs, 3087 restores,"
    " sha256 bc5b438664435eaba5a03e41bb55b861697b118bd8c380e87b1bb197d4360128\n"
)


def test_flooding_digest_is_pinned():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "flooding_digest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == FLOODING_DIGEST


# Recorded on the tree whose screen and relevance test read each edit atom
# of a one-edit search; equal under PYTHONHASHSEED 0, 7 and 123. (Its first
# four requests alone read "4 requests, sha256 686a7fe4..." since the tree
# whose screen ran after the relevance test and the fresh-blank dedupe.)
REPAIR_DIGEST = (
    "5 requests, sha256 ac60ae6daae892f7494406baed44d70d42035884bd724494471afcbc176b16be\n"
)


def test_repair_digest_is_pinned():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "repair_digest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == REPAIR_DIGEST


# Recorded on the tree whose decider settled the certain region with a
# certain typing beside its fixpoint; equal under PYTHONHASHSEED 0, 7 and 123.
DECIDER_DIGEST = (
    "4130 decisions, 1053 valid, 3077 invalid,"
    " sha256 7c800bae6da72e1b3abff0efc89d986225c75f6e7d351298165b30d9605c0bf1\n"
)


def test_decider_digest_is_pinned():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "decider_digest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == DECIDER_DIGEST
