#!/usr/bin/env python3
"""Decide and verify every system of the small class, and print its tally.

The class: every sigma over {a, b} or {a, b, c} with start a, where sigma(a)
is a followed by 1-2 letters and every other image has 1-3 letters, each
with no coding or with each 0/1 coding that is not constant.  That is
128,016 systems.  Renaming b <-> c maps the class onto itself, so of each
pair it exchanges only the system whose name sorts first is kept: 64,251
systems.  A system's name is its images in letter order, joined by commas,
then a slash and its coding when it has one: `ab,c,cbc/010`.

Each system is decided and its certificate verified, under a 10 s alarm
for both.  The tally, JSON on standard output, counts the verdicts by
certificate kind (an exit by its exit kind, a periodic by its source) and
lists, in enumeration order, each inconclusive system with the step its
trace ends on, and each system that raised, timed out or whose certificate
did not verify.  The exit status is 1 when there is any such failure.

    python scripts/small_class.py > tally.json          # the whole class
    python scripts/small_class.py --sample 2000 --seed 1 # a seeded sample

The full tally is pinned in tests/small_class_tally.json, and a seeded
sample's in tests/small_class_sample_tally.json, which a tier-1 test runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import signal
import sys

from morphrec import decide_uniform_recurrence, parse_system, verify_certificate
from morphrec.errors import MorphrecError

TIME_LIMIT_S = 10


class Timeout(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the package
    takes it for a failed check."""


def _words(letters: str, lengths) -> list[str]:
    return ["".join(w) for n in lengths for w in itertools.product(letters, repeat=n)]


def _name(images: tuple[str, ...], coding: str | None) -> str:
    return ",".join(images) + (f"/{coding}" if coding else "")


def _swapped(images: tuple[str, ...], coding: str | None) -> str:
    """The name of the system that renaming b <-> c gives."""
    swap = str.maketrans("bc", "cb")
    images = (images[0].translate(swap), images[2].translate(swap), images[1].translate(swap))
    return _name(images, coding and coding[0] + coding[2] + coding[1])


def enumerate_class() -> list[str]:
    """The names of the class, one per renaming pair, in enumeration order."""
    out = []
    for letters in ("ab", "abc"):
        codings = [None] + [c for c in _words("01", [len(letters)]) if len(set(c)) > 1]
        heads = ["a" + w for w in _words(letters, (1, 2))]
        rest = _words(letters, (1, 2, 3))
        for images in itertools.product(heads, *[rest] * (len(letters) - 1)):
            for coding in codings:
                name = _name(images, coding)
                if len(letters) == 2 or name <= _swapped(images, coding):
                    out.append(name)
    return out


def system_text(name: str) -> str:
    images, _, coding = name.partition("/")
    images = images.split(",")
    letters = "abc"[: len(images)]
    lines = [f"alphabet: {' '.join(letters)}", "start: a"]
    if coding:
        lines.append("target: 0 1")
    lines.append("sigma:")
    lines += [f"{c} -> {' '.join(w)}" for c, w in zip(letters, images)]
    if coding:
        lines.append("phi:")
        lines += [f"{c} -> {v}" for c, v in zip(letters, coding)]
    return "\n".join(lines) + "\n"


def _alarm(signum, frame):
    raise Timeout


def outcome(name: str) -> tuple[str, str | None]:
    """(tally key, note) for one system, decided and verified: the note of
    an inconclusive verdict is the step its trace ends on, and a failure has
    the key "failed" and says what failed."""
    sys_ = parse_system(system_text(name))
    signal.alarm(TIME_LIMIT_S)
    try:
        verdict = decide_uniform_recurrence(sys_)
        cert = verdict.certificate
        if cert is None:
            return "inconclusive", verdict.trace[-1]["step"]
        ok, detail = verify_certificate(sys_, verdict)
    except Timeout:
        return "failed", "timeout"
    except MorphrecError as e:
        return "failed", f"{type(e).__name__}: {e}"
    finally:
        signal.alarm(0)
    if not ok:
        return "failed", f"{cert.kind} not verified: {detail}"
    if cert.kind == "exit":
        return f"exit/{cert.data['exit']}", None
    if cert.kind == "periodic":
        return f"periodic/{cert.data['source']}", None
    return cert.kind, None


def tally(names: list[str]) -> dict:
    kinds: dict[str, int] = {}
    listed: dict[str, list] = {"inconclusive": [], "failed": []}
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for name in names:
            key, note = outcome(name)
            kinds[key] = kinds.get(key, 0) + 1
            if key in listed:
                listed[key].append([name, note])
    finally:
        signal.signal(signal.SIGALRM, previous)
    return {
        "systems": len(names),
        "kinds": dict(sorted(kinds.items())),
        "inconclusive": listed["inconclusive"],
        "failures": listed["failed"],
    }


def dumps(result: dict) -> str:
    """The tally as JSON with each listed system on one line, so that two
    tallies diff line by line."""
    text = json.dumps(result, indent=1)
    return re.sub(r'\[\n +("[^"]*"),\n +("[^"]*")\n +\]', r"[\1, \2]", text) + "\n"


def sample(names: list[str], size: int, seed: int) -> list[str]:
    """A seeded sample of the class, in enumeration order."""
    picked = set(random.Random(seed).sample(range(len(names)), size))
    return [n for i, n in enumerate(names) if i in picked]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sample", type=int, help="decide a seeded sample of this many systems")
    parser.add_argument("--seed", type=int, default=1, help="the sample's seed")
    ns = parser.parse_args(argv)
    names = enumerate_class()
    if ns.sample is not None:
        names = sample(names, ns.sample, ns.seed)
    result = tally(names)
    sys.stdout.write(dumps(result))
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
