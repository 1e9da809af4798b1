"""The small class of scripts/small_class.py as a gate: a seeded sample of
2,000 systems, each decided and verified, must give the pinned tally.  The
whole class runs in CI against tests/small_class_tally.json."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import small_class  # noqa: E402

SAMPLE_SIZE = 2000
SAMPLE_SEED = 1


def test_the_class_has_one_system_per_renaming_pair():
    names = small_class.enumerate_class()
    assert len(names) == len(set(names)) == 64251
    assert json.loads((ROOT / "tests" / "small_class_tally.json").read_text())["systems"] == 64251


def test_a_seeded_sample_gives_the_pinned_tally():
    names = small_class.sample(small_class.enumerate_class(), SAMPLE_SIZE, SAMPLE_SEED)
    want = json.loads((ROOT / "tests" / "small_class_sample_tally.json").read_text())
    got = small_class.tally(names)
    assert got["failures"] == []
    assert got == want
