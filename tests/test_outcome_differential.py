"""Outcome differential over seeded small systems: the decider settles a
primitive stage before the low-power chain, and that moves no outcome.

outcome_golden.json holds, for each of DRAWS seeded test_fuzz._draw systems
of 2-3 letters, the outcome, the certificate kind and whether the verdict
carries a constant sheet, as the decider gave them when it ran the chain
first.  Each draw must keep its outcome and whether it has a sheet, its
certificate must verify, and the only kind allowed to change is a
`repetition` that is now `primitive`.  Draws 60, 73, 92, 112, 121, 132,
178, 240 and 351 were re-pinned when the decider began to settle a
block-encoded stage on its token system: each is now a `primitive` with no
sheet, where 7 were `periodic` and 2 a `repetition` with a sheet.
"""

import json
import random
from pathlib import Path

import pytest

from morphrec.decider import decide_uniform_recurrence, verify_certificate
from morphrec.system import parse_system

from test_fuzz import _draw

SEED = 20261020
DRAWS = 500
GROUP = 100

GOLDEN = json.loads((Path(__file__).parent / "outcome_golden.json").read_text())
_RNG = random.Random(SEED)
SYSTEMS = [_draw(_RNG) for _ in range(DRAWS)]


@pytest.mark.parametrize("start", range(0, DRAWS, GROUP))
def test_outcomes_match_the_chain_first_decider(start):
    for i in range(start, start + GROUP):
        sys_ = parse_system(SYSTEMS[i])
        outcome, kind, has_sheet = GOLDEN[i]
        v = decide_uniform_recurrence(sys_)
        got = v.certificate.kind if v.certificate else None
        assert v.outcome == outcome, i
        assert got == kind or (kind, got) == ("repetition", "primitive"), (i, kind, got)
        assert (v.sheet is not None) == has_sheet, i
        if v.certificate is not None:
            ok, detail = verify_certificate(sys_, v)
            assert ok, (i, detail)
