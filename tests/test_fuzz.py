"""Fuzz over small random systems drawn from fixed seeds: the decider
either answers (a certificate, if any, verifies) or raises a MorphrecError,
and a periodic certificate's period holds on a long prefix of x.  A second
stratum draws 5-8 letters with images of up to WIDE_LONGEST letters.  Two
wider draws are fixed cases: draw 49 settles without the constant sheet,
and no scan of draw 14 reads past SCAN_LETTERS letters."""

import random

import pytest

from morphrec.decider import (
    _growing_stage, _growing_verdict, decide_uniform_recurrence, verify_certificate,
)
from morphrec.errors import MorphrecError
from morphrec.returns import SCAN_LETTERS, WORK_BUDGET
from morphrec.stream import FixedPointStream
from morphrec.system import parse_system

SEED = 20261017
DRAWS = 60
PREFIX = 4096
WIDE_SEED = 20261019
WIDE_DRAWS = 20
# images of 1 to 4 letters keep the stratum within a second: on images of
# up to 5 or 6 letters, single draws spend most of a second reading R off
# the images sigma^s(c) that the constant sheet builds
WIDE_LONGEST = 4

# draw 49 of the wide-alphabet set (seed 12, 6-8 letters, images of up to 6
# letters): its primitive 34-letter block stage has no constant sheet, as
# the images R reads pass the work budget; the decider settles it on its
# 30-token system, before that stage is built
DRAW_49 = (
    "alphabet: a b c d e f g h\nstart: a\nsigma:\na -> a c e e b\nb -> e b a e c b\n"
    "c -> b h g\nd -> c e b\ne -> e e c h c\nf -> f\ng -> d\nh -> d h c f c a\n"
)

# draw 14 of the same set: the low pass meets an E1 window of 71,260,568
# letters, of which each E1 scan reads at most SCAN_LETTERS
DRAW_14 = (
    "alphabet: a b c d e f g\nstart: a\ntarget: 0 1\nsigma:\na -> a c c c\nb -> e e d\n"
    "c -> b\nd -> d b c e c\ne -> c g b c c\nf -> f f d\ng -> e\n"
    "phi:\na -> 0\nb -> 0\nc -> 1\nd -> 0\ne -> 1\nf -> 0\ng -> 1\n"
)


def _draw(rng: random.Random, alphabet: str = "abc", fewest: int = 2, longest: int = 3) -> str:
    """fewest to len(alphabet) letters (2-3 by default), images of 1 to
    longest letters with sigma(a) = a... (2 to longest letters), and an
    optional 0/1 coding."""
    letters = alphabet[: rng.randint(fewest, len(alphabet))]
    images = {"a": "a" + "".join(rng.choice(letters) for _ in range(rng.randint(1, longest - 1)))}
    for c in letters[1:]:
        images[c] = "".join(rng.choice(letters) for _ in range(rng.randint(1, longest)))
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
_WIDE_RNG = random.Random(WIDE_SEED)
WIDE_SYSTEMS = [_draw(_WIDE_RNG, "abcdefgh", 5, WIDE_LONGEST) for _ in range(WIDE_DRAWS)]


@pytest.mark.parametrize(
    "text",
    SYSTEMS + WIDE_SYSTEMS,
    ids=[f"draw{i}" for i in range(DRAWS)] + [f"wide{i}" for i in range(WIDE_DRAWS)],
)
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


def test_primitive_stage_settles_without_the_sheet():
    sys_ = parse_system(DRAW_49)
    verdict = decide_uniform_recurrence(sys_)
    assert verdict.certificate.data == {"positivity_power": 7, "via": "token-stage"}
    assert verdict.sheet is None
    ok, detail = verify_certificate(sys_, verdict)
    assert ok, detail
    # the growing branch on the block stage itself; its `primitive` is not
    # the one the decider issues, which is read on the token system
    verdict = _growing_verdict(_growing_stage(sys_), WORK_BUDGET, [])
    assert verdict.certificate.kind == "primitive" and verdict.sheet is None
    assert {"step": "constants", "status": "unavailable",
            "reason": "image materialization exceeded the work budget"} in verdict.trace
    ok, detail = verify_certificate(sys_, verdict)
    assert not ok and "differs from the rebuilt one" in detail["reason"], detail


def test_no_scan_reads_past_scan_letters(monkeypatch):
    asked = []
    real = FixedPointStream.prefix_chars

    def recorded(stream, n):
        asked.append(n)
        return real(stream, n)

    monkeypatch.setattr(FixedPointStream, "prefix_chars", recorded)
    sys_ = parse_system(DRAW_14)
    verdict = decide_uniform_recurrence(sys_)
    if verdict.certificate is not None:
        ok, detail = verify_certificate(sys_, verdict)
        assert ok, detail
    assert asked and max(asked) <= SCAN_LETTERS, max(asked)
