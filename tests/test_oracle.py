"""Scan-based cross-checks: window gap reports and brute-force return words.

window_ur_check splits the prefix (words.split_occurrences) only for the
letters and the extensions of factors whose starts change; every other
factor inherits the gaps of the factor one letter shorter.  A work test
counts those splits, and _window_reference keeps the per-position
definition the reports are pinned to.
"""

import random

import pytest

from morphrec import oracle
from morphrec.catalog import PRIMITIVE_CORPUS, get
from morphrec.errors import NotEnoughOccurrences, PreconditionViolated
from morphrec.oracle import GapViolation, OracleReport, brute_force_return_words, window_ur_check
from morphrec.returns import return_words_to_word
from morphrec.stream import FixedPointStream
from morphrec.system import parse_system


def load(name):
    return parse_system(get(name).text)


def test_thue_morse_window_report():
    r = window_ur_check(load("thue_morse"), factor_len_max=8, prefix_len=10_000)
    assert r.prefix_len == 10_000
    assert r.factor_len_max == 8
    assert r.factor_count == 92  # sum of p(n) for n = 1..8
    assert not r.conclusive  # no linear bound was supplied
    assert r.ur_consistent
    assert r.violations == ()
    assert sorted(r.worst.keys()) == list(range(1, 9))
    w8 = r.worst[8]
    assert w8["factor"] == ("1", "1", "0", "1", "0", "0", "1", "0")
    assert w8["gap"] == 36
    assert w8["positions"] == (73, 109)


def test_gap_growth_is_conclusive_against_linear_bound():
    r = window_ur_check(load("nonur_block"), factor_len_max=1, prefix_len=10_000, linear_bound=5)
    assert r.conclusive
    assert not r.ur_consistent
    v = r.violations[0]
    assert v.factor == ("0",)
    assert v.gap == 13
    assert v.gap > 5 * len(v.factor)
    assert v.kind in ("internal", "tail")


def test_fibonacci_consistent_with_generous_bound():
    r = window_ur_check(load("fibonacci"), factor_len_max=8, prefix_len=10_000, linear_bound=30)
    assert r.ur_consistent
    assert not r.conclusive
    assert r.violations == ()


@pytest.mark.parametrize("bound", [0, -2])
def test_a_bound_below_one_is_rejected(bound):
    # every gap is at least 1, so a bound C < 1 would "refute" any sequence
    with pytest.raises(PreconditionViolated, match="linear bound must be at least 1"):
        window_ur_check(load("fibonacci"), factor_len_max=8, prefix_len=10_000, linear_bound=bound)
    r = window_ur_check(load("fibonacci"), factor_len_max=1, prefix_len=100, linear_bound=1)
    assert r.conclusive and not r.ur_consistent


def test_violations_sorted_by_severity():
    r = window_ur_check(load("nonur_block"), factor_len_max=3, prefix_len=10_000, linear_bound=1)
    gaps = [v.gap for v in r.violations]
    assert gaps == sorted(gaps, reverse=True)
    assert len(r.violations) <= 64


def test_degenerate_window_report():
    r = window_ur_check(load("thue_morse"), factor_len_max=0, prefix_len=100)
    assert r.factor_count == 0
    assert r.worst == {}
    assert not r.conclusive
    assert r.ur_consistent


def test_worst_gap_monotone_in_factor_length():
    # longer factors can only have larger worst gaps
    r = window_ur_check(load("fibonacci"), factor_len_max=6, prefix_len=10_000)
    gaps = [r.worst[n]["gap"] for n in range(1, 7)]
    assert all(a <= b for a, b in zip(gaps, gaps[1:]))


def test_brute_force_return_words():
    assert brute_force_return_words(load("fibonacci"), ["a"], prefix_len=200) == [
        ("a", "b"),
        ("a",),
    ]
    assert brute_force_return_words(load("thue_morse"), ["0"], prefix_len=200) == [
        ("0", "1", "1"),
        ("0", "1"),
        ("0",),
    ]


def test_brute_force_needs_two_occurrences():
    with pytest.raises(NotEnoughOccurrences) as exc:
        brute_force_return_words(load("thue_morse"), ["0"] * 50, prefix_len=60)
    assert exc.value.count == 0


def test_brute_force_agrees_with_return_table():
    for name, u in (("fibonacci", ["a"]), ("thue_morse", ["0"]), ("tribonacci", ["a"])):
        sys_ = load(name)
        t = return_words_to_word(sys_, u, budget=4096)
        bf = brute_force_return_words(sys_, u, prefix_len=4096)
        assert tuple(bf) == t.words


# -- the per-position definition --------------------------------------------------


def _window_reference(sys_, factor_len_max, prefix_len, linear_bound=None, which="x", cut=64):
    """window_ur_check as one left-to-right pass over every start position
    per factor length, keeping each factor's last start; prefix_len and
    factor_len_max are at least 1."""
    text = FixedPointStream(sys_, which).prefix_chars(prefix_len)
    alpha = sys_.alphabet if which == "y" else sys_.target_alphabet
    worst = {}
    violations = []
    total_factors = 0
    for ln in range(1, min(factor_len_max, len(text)) + 1):
        last = {}
        gap_of = {}
        for i in range(len(text) - ln + 1):
            f = text[i : i + ln]
            prev = last.get(f)
            if prev is not None:
                gap = i - prev
                cur = gap_of.get(f)
                if cur is None or gap > cur[0]:
                    gap_of[f] = (gap, (prev, i))
            last[f] = i
        total_factors += len(last)
        if gap_of:
            top = max(gap_of.items(), key=lambda kv: kv[1][0])
            worst[ln] = {
                "factor": tuple(alpha.decode(top[0])),
                "gap": top[1][0],
                "positions": top[1][1],
            }
        if linear_bound is None:
            continue
        limit = linear_bound * ln
        for f, (gap, pos) in gap_of.items():
            if gap > limit:
                violations.append(GapViolation(tuple(alpha.decode(f)), gap, pos, "internal"))
        scan_end = len(text) - ln
        for f, pos in last.items():
            if scan_end - pos > limit:
                violations.append(
                    GapViolation(tuple(alpha.decode(f)), scan_end - pos, (pos, scan_end), "tail")
                )
    violations.sort(key=lambda v: (-v.gap, v.factor))
    return OracleReport(
        checked="recurrence gaps of short factors",
        prefix_len=prefix_len,
        factor_len_max=factor_len_max,
        factor_count=total_factors,
        worst=worst,
        violations=tuple(violations[:cut]),
        conclusive=bool(violations) and linear_bound is not None,
    )


def _draw(rng):
    """2-3 letters, sigma(a) = a..., other images of 1-3 letters, and a 0/1
    coding half of the time."""
    letters = "abc"[: rng.randint(2, 3)]
    images = {"a": "a" + "".join(rng.choice(letters) for _ in range(rng.randint(1, 2)))}
    for c in letters[1:]:
        images[c] = "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
    lines = [f"alphabet: {' '.join(letters)}", "start: a"]
    coded = rng.random() < 0.5
    if coded:
        lines.append("target: 0 1")
    lines += ["sigma:"] + [f"{c} -> {' '.join(images[c])}" for c in letters]
    if coded:
        lines += ["phi:"] + [f"{c} -> {rng.choice('01')}" for c in letters]
    return parse_system("\n".join(lines) + "\n")


_RNG = random.Random(20261019)
DRAWS = [_draw(_RNG) for _ in range(16)]


@pytest.mark.parametrize(
    "sys_", [load(n) for n in PRIMITIVE_CORPUS] + DRAWS,
    ids=list(PRIMITIVE_CORPUS) + [f"draw{i}" for i in range(len(DRAWS))],
)
def test_window_check_matches_the_per_position_definition(sys_):
    # every short prefix meets the end-of-text cases; the long ones let
    # factors up to 10 letters inherit their gaps over many levels
    lengths = [(n, 6, (None, 1, 2, 3, 4)[n % 5]) for n in range(1, 65)]
    lengths += [(1000, 10, 3), (4096, 10, None)]
    for which in ("y", "x"):
        for n, k, bound in lengths:
            got = window_ur_check(sys_, k, n, bound, which)
            assert got == _window_reference(sys_, k, n, bound, which), (which, n, bound)


def test_equal_worst_gaps_go_to_the_factor_that_recurs_first():
    # y = 01101001: 1 starts at 1, 2, 4, 7 and 0 at 0, 3, 5, 6, both with the
    # largest gap 3; 1 recurs first (at 2), though 0 starts first, has the
    # earlier pair and the smaller letter
    r = window_ur_check(load("thue_morse"), 1, 8, which="y")
    assert r.worst[1] == {"factor": ("1",), "gap": 3, "positions": (4, 7)}
    assert r == _window_reference(load("thue_morse"), 1, 8, which="y")


def test_a_factor_with_an_internal_and_a_tail_violation():
    # y = 0110100: 1 starts at 1, 2, 4 (largest gap 2, from 2 to 4) and
    # leaves 2 letters after its last start; the internal one sorts first
    r = window_ur_check(load("thue_morse"), 1, 7, linear_bound=1, which="y")
    assert r.violations == (
        GapViolation(("0",), 3, (0, 3), "internal"),
        GapViolation(("1",), 2, (2, 4), "internal"),
        GapViolation(("1",), 2, (4, 6), "tail"),
    )
    assert r == _window_reference(load("thue_morse"), 1, 7, linear_bound=1, which="y")


def test_violations_are_cut_at_64():
    tm = load("thue_morse")
    full = _window_reference(tm, 6, 64, linear_bound=1, cut=None).violations
    assert len(full) > 64
    assert window_ur_check(tm, 6, 64, linear_bound=1).violations == full[:64]


# -- where the window check splits --------------------------------------------------


def test_window_check_splits_only_where_the_starts_change(monkeypatch):
    # a factor with one follower c, and not a suffix of the text, has the
    # starts of its extension fc: only the letters and the extensions of the
    # other factors are split, of the 27 and 124 factors up to 6 letters
    calls = []
    real = oracle._recurrence

    def counted(text, f):
        calls.append(f)
        return real(text, f)

    monkeypatch.setattr(oracle, "_recurrence", counted)
    for name, splits in (("fibonacci", 12), ("rudin_shapiro", 76)):
        calls.clear()
        window_ur_check(load(name), 6, 20_000, which="y")
        assert len(calls) == splits, name

