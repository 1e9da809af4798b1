"""Byte-level pins of the two input rewrites of the stage walk.

For each draw of a fixed seeded set of small systems whose phi has images
of 1-3 letters, a row holds the canonical text of
normalize_to_coding(restrict_to_reachable(s)) and, when the prepared stage
is non-growing with no pumping witness, the canonical text and info dict of
its bounded-block encoding; a call that raises is pinned to the
exception's name.  Each pin is the sha256 of the JSON list of the rows of
one group of draws.  The pins were recorded while both rewrites still
decoded every image into tokens, so they hold the morphisms fixed across
the move onto internal strings.
"""

import hashlib
import json
import random

import pytest

from morphrec.decider import _encode_bounded_blocks, prepare
from morphrec.errors import MorphrecError
from morphrec.system import normalize_to_coding, parse_system, restrict_to_reachable, system_to_text

SEED = 5
DRAWS = 300
GROUP = 25

GOLDEN = {
    0: "7364339f84af0e2c071eacdd6ffa5475a1281809681053676789316ba066dfcd",
    1: "60272825a16540f475e8ab7c43e61305e31a12292ba94204c6cf948080d5a7ba",
    2: "23dcaf47114155ae1acc1ca1a58f3f6632922d865fa41e60b515f904eface6ac",
    3: "82b1fc8c79ea268a3f2ae084ec3a2654b805dc0ff4b97ea0c211f9ced5306bd8",
    4: "73967337d21209fb0a94a771c5d3ad9a66131b9e95b110ed2352ce764b4a3b76",
    5: "bfbf3a378347fadaac2699a6a0a02caa18ac1079c3b21b33f356604ce88d0196",
    6: "dfe3de74389b034773ee3cb49f5a241974d5d2a7814a07dd25b5fd06ddd3231d",
    7: "59a644002418a9bd84bd16b5a45573b1ae87f0a33d224c135dc308f69f11ad12",
    8: "9fcee9436f901c9ec16662067593ee003655b0fcad55fc8458a77c2498604de1",
    9: "6f92e074629620fad9025d395ad412d2fb6fa2c0eb0a66bab1771b958a72e3ab",
    10: "3ce8862848d7fb2e79ec227f8278e9bf98b3663f1837d475ec0bced5a6e4d54b",
    11: "20fef95863523d037d5632d5745267ecafb40d2acfb422d113e96e3460a8b13c",
}


def _draw(rng: random.Random) -> str:
    """2-4 letters, sigma(a) = a plus 1-3 letters, other images of 1-4
    letters, c -> c forced with probability 0.4, and phi images of 1-3
    letters over {0, 1}."""
    letters = "abcd"[: rng.randint(2, 4)]
    images = {"a": "a" + "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))}
    for c in letters[1:]:
        images[c] = "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
    if "c" in letters and rng.random() < 0.4:
        images["c"] = "c"
    lines = [f"alphabet: {' '.join(letters)}", "start: a", "target: 0 1", "sigma:"]
    lines += [f"{c} -> {' '.join(images[c])}" for c in letters]
    lines.append("phi:")
    lines += [
        f"{c} -> {' '.join(rng.choice('01') for _ in range(rng.randint(1, 3)))}"
        for c in letters
    ]
    return "\n".join(lines) + "\n"


_RNG = random.Random(SEED)
SYSTEMS = [_draw(_RNG) for _ in range(DRAWS)]


def _row(text: str):
    system = parse_system(text)
    try:
        normalized = system_to_text(normalize_to_coding(restrict_to_reachable(system)))
    except MorphrecError as e:
        return ["error:" + type(e).__name__, None]
    stage = prepare(system)
    if stage.growing or stage.pumping_witness is not None:
        return [normalized, None]
    try:
        encoded, info = _encode_bounded_blocks(stage.staged)
    except MorphrecError as e:
        return [normalized, "error:" + type(e).__name__]
    return [normalized, [system_to_text(encoded), info]]


def _digest(group: int) -> str:
    rows = [_row(text) for text in SYSTEMS[group * GROUP : (group + 1) * GROUP]]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("group", range(DRAWS // GROUP))
def test_stage_rewrites_are_pinned(group):
    assert _digest(group) == GOLDEN[group]
