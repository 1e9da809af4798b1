"""Checks on a prefix, independent of the return-word machinery.

These exist so tests (and example generation) can compare structural
computations against direct observation of the sequences.  A finite scan
can refute a linear-recurrence bound but can never prove uniform
recurrence; every report says explicitly which of the two it is.  Nothing
here is consulted by the decision procedure itself.

window_ur_check reads a factor's gaps off the distinct pieces of
words.split_occurrences, and the letters that follow a factor give the
factors one letter longer.  It splits the prefix only where the starts
change: at the letters, at each extension of a factor with two or more
followers, and at the extension of a factor that ends the prefix.  Every
other factor f + c has the starts of f, so it inherits f's gaps, and its
followers lie among those of its suffix one letter shorter.  A test pins
the reports to the per-position definition, one left-to-right pass per
factor length.  brute_force_return_words stays a plain str.find scan, the
ground truth for the return tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotEnoughOccurrences, PreconditionViolated
from .stream import FixedPointStream
from .system import ProlongableSystem
from .words import split_occurrences


@dataclass(frozen=True)
class GapViolation:
    """A factor whose observed recurrence gap exceeds the supplied bound."""

    factor: tuple[str, ...]
    gap: int  # distance between successive occurrence starts, or tail window
    positions: tuple[int, int]  # (previous start, next start or scan end)
    kind: str  # "internal" (two occurrences) or "tail" (no further occurrence)


@dataclass(frozen=True)
class OracleReport:
    checked: str
    prefix_len: int
    factor_len_max: int
    factor_count: int
    # worst gap seen per factor length, with one witnessing factor each
    worst: dict
    violations: tuple[GapViolation, ...]
    conclusive: bool

    @property
    def ur_consistent(self) -> bool:
        """No violation found.  Explicitly NOT a proof of uniform recurrence."""
        return not self.violations


@dataclass(frozen=True)
class _Recurrence:
    """Occurrences of one factor in a text: the largest gap between
    successive starts (0 when it occurs once) with the first pair of starts
    at that gap, its second and last starts, and the letters that follow it."""

    gap: int
    pair: tuple[int, int] | None
    second: int | None
    last: int
    followers: frozenset[str]


def _recurrence(text: str, f: str) -> _Recurrence:
    """The _Recurrence of a factor f of text, read off the distinct pieces of
    split_occurrences: a segment from a greedy start q to the next one, with
    the inner piece P between them, holds the starts q + d of its offsets and
    ends at q + |f| + |P|; the last segment holds only its offsets."""
    pieces, inner, tail = split_occurrences(text, f)
    m = len(f)
    gap, best, at = 0, None, 0
    followers = set()
    for p, offsets in inner.items():
        cuts = (0, *offsets, m + len(p))
        for a, b in zip(cuts, cuts[1:]):
            if b - a > gap:
                gap, best, at = b - a, p, a
        followers.update((p + f)[a] for a in cuts[:-1])
    end = pieces[-1]
    q_last = len(text) - len(end) - m
    cuts = (0, *tail)
    for a, b in zip(cuts, cuts[1:]):
        if b - a > gap:
            gap, best, at = b - a, None, a
    followers.update(end[a] for a in cuts if a < len(end))
    first = len(pieces[0])
    if len(pieces) > 2:
        offsets = inner[pieces[1]]
        second = first + (offsets[0] if offsets else m + len(pieces[1]))
    else:
        second = first + tail[0] if tail else None
    pair = None
    if gap:
        if best is None:  # the largest gap lies after the last greedy start
            q = q_last
        else:
            i = pieces.index(best, 1)
            q = sum(map(len, pieces[:i])) + (i - 1) * m
        pair = (q + at, q + at + gap)
    return _Recurrence(gap, pair, second, q_last + cuts[-1], frozenset(followers))


def _extensions(text: str, stats: dict[str, _Recurrence], n: int) -> dict[str, _Recurrence]:
    """The _Recurrence of every factor of length n + 1, from those of length n.

    When every start of f is followed by the letter c (one follower, and f
    is not a suffix of text), the starts of fc are those of f, so fc
    inherits f's gaps and starts; only its followers are new, and they lie
    among the followers of its suffix of length n.  Every other extension is
    split afresh."""
    out = {}
    for f, st in stats.items():
        if len(st.followers) != 1 or st.last + n == len(text):
            out.update((f + c, _recurrence(text, f + c)) for c in st.followers)
            continue
        (c,) = st.followers
        g = f + c
        ahead = stats[g[1:]].followers
        if len(ahead) == 1:
            # the follower of g's suffix follows every start of g but one at
            # the end of text
            followed = st.last + n + 1 < len(text) or st.second is not None
            followers = ahead if followed else frozenset()
        else:
            followers = frozenset(d for d in ahead if g + d in text)
        out[g] = _Recurrence(st.gap, st.pair, st.second, st.last, followers)
    return out


def window_ur_check(
    sys: ProlongableSystem,
    factor_len_max: int,
    prefix_len: int,
    linear_bound: int | None = None,
    which: str = "x",
) -> OracleReport:
    """Scan a prefix and measure recurrence gaps of every short factor.

    For each factor u with |u| <= factor_len_max occurring in the prefix,
    records the largest distance between successive occurrence starts.  When
    `linear_bound` C is given, a gap > C|u| is reported as a violation; a
    factor whose last occurrence leaves more than C|u| fully-scanned letters
    with no further occurrence is reported as a tail violation (both refute
    "linearly recurrent with constant C").  Without a bound the report is
    never conclusive.  A bound below 1 raises PreconditionViolated: two
    starts are at least 1 apart, so every factor that recurs would violate it.
    """
    if linear_bound is not None and linear_bound < 1:
        raise PreconditionViolated(f"linear bound must be at least 1, got {linear_bound}")
    if factor_len_max < 1 or prefix_len < 1:
        return OracleReport(
            checked="recurrence gaps of short factors",
            prefix_len=max(prefix_len, 0),
            factor_len_max=max(factor_len_max, 0),
            factor_count=0,
            worst={},
            violations=(),
            conclusive=False,
        )
    stream = FixedPointStream(sys, which)
    text = stream.prefix_chars(prefix_len)
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    worst: dict[int, dict] = {}
    violations: list[GapViolation] = []
    total_factors = 0

    stats = {f: _recurrence(text, f) for f in set(text)}
    top = min(factor_len_max, len(text))
    for ln in range(1, top + 1):
        total_factors += len(stats)
        gapped = [(f, st) for f, st in stats.items() if st.gap]
        if gapped:
            # the first factor to recur breaks ties, as a left-to-right scan does
            f, st = min(gapped, key=lambda kv: (-kv[1].gap, kv[1].second))
            worst[ln] = {"factor": tuple(alpha.decode(f)), "gap": st.gap, "positions": st.pair}
        if linear_bound is not None:
            limit = linear_bound * ln
            scan_end = len(text) - ln  # last start position fully checked
            for f, st in stats.items():
                if st.gap > limit:
                    violations.append(
                        GapViolation(tuple(alpha.decode(f)), st.gap, st.pair, "internal")
                    )
                if scan_end - st.last > limit:
                    violations.append(
                        GapViolation(
                            tuple(alpha.decode(f)), scan_end - st.last, (st.last, scan_end), "tail"
                        )
                    )
        if ln < top:
            stats = _extensions(text, stats, ln)

    violations.sort(key=lambda v: (-v.gap, v.factor))
    return OracleReport(
        checked="recurrence gaps of short factors",
        prefix_len=prefix_len,
        factor_len_max=factor_len_max,
        factor_count=total_factors,
        worst=worst,
        violations=tuple(violations[:64]),
        conclusive=bool(violations) and linear_bound is not None,
    )


def brute_force_return_words(
    sys: ProlongableSystem,
    u: list[str] | tuple[str, ...],
    prefix_len: int,
    which: str = "x",
) -> list[tuple[str, ...]]:
    """Return words to u observed in a prefix, in first-appearance order.

    Ground truth for the structural return tables: a plain scan for all
    occurrences of u, cutting the prefix at successive occurrence starts.
    Raises NotEnoughOccurrences when u occurs fewer than twice.
    """
    if not u:
        raise ValueError("u must be non-empty")
    stream = FixedPointStream(sys, which)
    text = stream.prefix_chars(prefix_len)
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    pat = alpha.encode(list(u))
    occ = []
    pos = text.find(pat)
    while pos != -1:
        occ.append(pos)
        pos = text.find(pat, pos + 1)
    if len(occ) < 2:
        raise NotEnoughOccurrences(len(occ))
    seen = set()
    out: list[tuple[str, ...]] = []
    for i, j in zip(occ, occ[1:]):
        w = text[i:j]
        if w not in seen:
            seen.add(w)
            out.append(tuple(alpha.decode(w)))
    return out
