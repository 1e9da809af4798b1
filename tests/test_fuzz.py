"""Fuzz over small random systems drawn from one fixed seed: the decider
either answers (a certificate, if any, verifies) or raises a MorphrecError,
and a periodic certificate's period holds on a long prefix of x."""

import random

import pytest

from morphrec.decider import decide_uniform_recurrence, verify_certificate
from morphrec.errors import MorphrecError
from morphrec.stream import FixedPointStream
from morphrec.system import parse_system

SEED = 20261017
DRAWS = 60
PREFIX = 4096


def _draw(rng: random.Random, alphabet: str = "abc") -> str:
    """2-3 letters (2 to len(alphabet) when an alphabet is given), images of
    1-3 letters with sigma(a) = a..., and an optional 0/1 coding."""
    letters = alphabet[: rng.randint(2, len(alphabet))]
    images = {"a": "a" + "".join(rng.choice(letters) for _ in range(rng.randint(1, 2)))}
    for c in letters[1:]:
        images[c] = "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
    coded = rng.random() < 0.5
    lines = [f"alphabet: {' '.join(letters)}", "start: a"]
    if coded:
        lines.append("target: 0 1")
    lines.append("sigma:")
    lines += [f"{c} -> {' '.join(images[c])}" for c in letters]
    if coded:
        lines.append("phi:")
        lines += [f"{c} -> {rng.choice('01')}" for c in letters]
    return "\n".join(lines) + "\n"


_RNG = random.Random(SEED)
SYSTEMS = [_draw(_RNG) for _ in range(DRAWS)]


@pytest.mark.parametrize("text", SYSTEMS, ids=[f"draw{i}" for i in range(DRAWS)])
def test_random_system(text):
    sys_ = parse_system(text)
    try:
        verdict = decide_uniform_recurrence(sys_, work_budget=1 << 20)
    except MorphrecError:
        return
    if verdict.certificate is None:
        return
    ok, detail = verify_certificate(sys_, verdict)
    assert ok, detail
    if verdict.certificate.kind == "periodic":
        q = verdict.certificate.data["period"]
        x = FixedPointStream(sys_, "x").prefix_chars(PREFIX)
        assert x[q:] == x[:-q]
