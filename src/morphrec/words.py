"""Alphabets and words.

Letters are opaque string tokens at the API boundary. Internally each
alphabet letter is one Python character starting at chr(33), so words are
plain str values and morphism application / occurrence scanning run at
C speed through str.translate and str.find. An Alphabet owns the two-way
mapping; all internal words are strings over its internal characters.

split_occurrences finds every occurrence of a word through str.split, which
cuts at the greedy non-overlapping ones, and recovers the overlapping starts
that split skips once per distinct piece; the return-word scan and the
window oracle read their tables and gaps off those pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import AlphabetMismatch

_BASE = 33  # first internal code point; printable, keeps debug output readable


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of letter tokens with an internal char encoding."""

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _token_of: dict[str, str] = field(init=False, repr=False, compare=False)
    _char_of: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("alphabet tokens must be distinct")
        if not self.tokens:
            raise ValueError("alphabet must be non-empty")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})
        object.__setattr__(
            self, "_token_of", {chr(_BASE + i): t for i, t in enumerate(self.tokens)}
        )
        object.__setattr__(
            self, "_char_of", {t: chr(_BASE + i) for i, t in enumerate(self.tokens)}
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise AlphabetMismatch(f"letter {token!r} not in alphabet {list(self.tokens)}") from None

    def char(self, token: str) -> str:
        """Internal character for a token."""
        try:
            return self._char_of[token]
        except KeyError:
            raise AlphabetMismatch(f"letter {token!r} not in alphabet {list(self.tokens)}") from None

    def token_of_char(self, ch: str) -> str:
        try:
            return self._token_of[ch]
        except KeyError:
            raise AlphabetMismatch(f"internal char {ch!r} outside alphabet") from None

    @cached_property
    def chars(self) -> str:
        """All internal characters in alphabet order."""
        return "".join(chr(_BASE + i) for i in range(len(self.tokens)))

    def encode(self, word: list[str] | tuple[str, ...]) -> str:
        """Token sequence -> internal word."""
        try:
            return "".join(map(self._char_of.__getitem__, word))
        except KeyError as exc:
            raise AlphabetMismatch(
                f"letter {exc.args[0]!r} not in alphabet {list(self.tokens)}"
            ) from None

    def decode(self, internal: str) -> list[str]:
        """Internal word -> token sequence."""
        try:
            return list(map(self._token_of.__getitem__, internal))
        except KeyError as exc:
            raise AlphabetMismatch(f"internal char {exc.args[0]!r} outside alphabet") from None

    @staticmethod
    def indexed(n: int) -> "Alphabet":
        """Alphabet {"1", ..., "n"} used for return-word index letters."""
        if n < 1:
            raise ValueError("indexed alphabet needs at least one letter")
        return Alphabet(tuple(str(i) for i in range(1, n + 1)))


def factor_set(word: str, n: int) -> set[str]:
    """All length-n factors of an internal word."""
    if n == 0:
        return {""}
    return {word[i : i + n] for i in range(len(word) - n + 1)}


def occurrences_in_word(word: str, pattern: str) -> list[int]:
    """All (possibly overlapping) occurrence positions of pattern in word."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    out = []
    i = word.find(pattern)
    while i != -1:
        out.append(i)
        i = word.find(pattern, i + 1)
    return out


def occurrences_until(word: str, pattern: str, end: int) -> tuple[list[int], int | None]:
    """The occurrence positions of pattern in word below end, and the first
    one at or after end (None if there is none); the scan stops there."""
    if not pattern:
        raise ValueError("pattern must be non-empty")
    before = []
    i = word.find(pattern)
    while i != -1 and i < end:
        before.append(i)
        i = word.find(pattern, i + 1)
    return before, (i if i != -1 else None)


def split_occurrences(
    word: str, pattern: str
) -> tuple[list[str], dict[str, tuple[int, ...]], tuple[int, ...]]:
    """Every occurrence of pattern in word, read off word.split(pattern).

    Returns (pieces, inner, tail).  pieces is word.split(pattern): the greedy,
    non-overlapping starts are q_i = |pieces[0] .. pieces[i]| + i|pattern|,
    with pieces[i + 1] between q_i + |pattern| and the next greedy start.
    The starts split skips lie at q_i + d with 0 < d < |pattern|, d a period
    of pattern, exactly when the text after q_i + |pattern| begins with
    pattern[-d:]; for an inner piece P that text is P + pattern, for the last
    piece it is P alone.  inner maps each distinct inner piece, in order of
    first appearance, to the ascending offsets d found before it; tail holds
    those of the last greedy start.  Each distinct piece is examined once.
    """
    if not pattern:
        raise ValueError("pattern must be non-empty")
    pieces = word.split(pattern)
    m = len(pattern)
    periods = [d for d in range(1, m) if pattern[d:] == pattern[: m - d]]
    if not periods:
        return pieces, dict.fromkeys(pieces[1:-1], ()), ()
    inner = {
        p: tuple(d for d in periods if (p + pattern).startswith(pattern[m - d :]))
        for p in dict.fromkeys(pieces[1:-1])
    }
    tail = ()
    if len(pieces) > 1:
        tail = tuple(d for d in periods if pieces[-1].startswith(pattern[m - d :]))
    return pieces, inner, tail
