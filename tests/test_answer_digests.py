"""Every answer of each benchmark workload, pinned.

`tests/answer_digests.json` holds the SHA-256 that `scripts/answer_digest.py`
prints over every answer of a workload's round, for seeds 1-3 of each
workload.  A faster path must keep every answer bit for bit, so a change
that moves a digest changes an answer.  Seed 1 of each workload runs here,
each in a fresh interpreter as a benchmark round does; CI checks seeds 1-3.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "answer_digests.json"


@pytest.mark.parametrize("workload", ["accept", "ar-family", "decompose"])
def test_seed_1_answers_match_the_pinned_digest(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "answer_digest.py"),
         "--workload", workload, "--seed", "1", "--check", str(PINS)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_a_warm_round_answers_like_a_cold_one():
    # the second round of `accept` finds its seed's corpus and the memo on
    # each of its algebras filled by the first
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "answer_digest.py"),
         "--workload", "accept", "--seed", "1", "--rounds", "2", "--check", str(PINS)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    digests = [line.split()[0] for line in done.stdout.splitlines()]
    assert len(digests) == 2 and digests[0] == digests[1]
