"""Byte-level pins of the count-free constant sheet.

Each pin is the sha256 of json.dumps(sheet.to_json_dict(), sort_keys=True)
for compute_count_free_sheet on a system's growing stage; a sheet that
raises is pinned to the sha256 of the exception's name and message, and a
system with no growing stage to None.  The systems are every catalog entry
and DRAWS seeded draws of test_fuzz._draw over 2-5 letters, which include
block-encoded stages of 6-22 letters.  The pins were recorded before R was
read per image and P/Q by integer cross-multiplication, so they hold every
sheet byte fixed across those rewrites.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from morphrec import catalog
from morphrec.constants import compute_count_free_sheet
from morphrec.decider import _growing_stage
from morphrec.errors import MorphrecError
from morphrec.system import parse_system

from test_fuzz import _draw

SEED = 20261019
DRAWS = 300
GROUP = 25

GOLDEN = json.loads((Path(__file__).parent / "sheet_golden.json").read_text())


def _draws() -> list[str]:
    rng = random.Random(SEED)
    return [_draw(rng, "abcde") for _ in range(DRAWS)]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


NAMES = [e.name for e in catalog.entries()]


def _stage(text: str):
    try:
        return _growing_stage(parse_system(text))
    except MorphrecError:
        return None


def _sheet_digest(text: str) -> str | None:
    stage = _stage(text)
    if stage is None:
        return None
    try:
        sheet = compute_count_free_sheet(stage.staged)
    except MorphrecError as e:
        return _sha([type(e).__name__, str(e)])
    return _sha(sheet.to_json_dict())


@pytest.mark.parametrize("name", NAMES)
def test_catalog_sheets_are_pinned(name):
    assert _sheet_digest(catalog.get(name).text) == GOLDEN["catalog"][name]


@pytest.mark.parametrize("group", range(DRAWS // GROUP))
def test_drawn_sheets_are_pinned(group):
    texts = _draws()
    for i in range(group * GROUP, (group + 1) * GROUP):
        assert _sheet_digest(texts[i]) == GOLDEN["draws"][i], (i, texts[i])


def test_the_pins_cover_the_catalog_and_block_stages():
    assert sorted(GOLDEN["catalog"]) == sorted(NAMES)
    assert len(GOLDEN["draws"]) == DRAWS
    stages = [s for s in map(_stage, _draws()) if s is not None]
    assert sum(len(s.staged.alphabet) > 5 for s in stages) >= 5
