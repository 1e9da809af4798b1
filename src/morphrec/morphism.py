"""Morphisms between free monoids, and their algebra.

A Morphism maps each source letter to a word over the target alphabet.
Application to a word is a single str.translate call. Composition, powers,
and classification flags live here; growth questions (is a letter growing?)
are delegated to the matrix machinery in growth.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import AlphabetMismatch, MorphrecError
from .words import Alphabet

if TYPE_CHECKING:
    from .growth import IncidenceStructure
    from .stream import FixedPointCache


@dataclass(frozen=True)
class MorphismFlags:
    non_erasing: bool
    coding: bool
    endomorphism: bool
    prolongable_on: frozenset[str]  # tokens


@dataclass(frozen=True)
class Morphism:
    """Total map letter -> word, from src alphabet into dst alphabet.

    images[i] is the internal word (over dst) for the i-th src letter.
    """

    src: Alphabet
    dst: Alphabet
    images: tuple[str, ...]

    def __post_init__(self):
        if len(self.images) != len(self.src):
            raise MorphrecError("one image required per source letter")
        allowed = set(self.dst.chars)
        for img in self.images:
            if not set(img) <= allowed:
                raise AlphabetMismatch("image uses letters outside the target alphabet")

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_tokens(src: Alphabet, dst: Alphabet, table: dict[str, list[str]]) -> "Morphism":
        """Build from {source token: [target tokens]}; missing letters are an error."""
        images = []
        for t in src.tokens:
            if t not in table:
                raise MorphrecError(f"no image given for letter {t!r}")
            images.append(dst.encode(table[t]))
        return Morphism(src, dst, tuple(images))

    @staticmethod
    def identity(alphabet: Alphabet) -> "Morphism":
        return Morphism(alphabet, alphabet, tuple(alphabet.chars))

    # -- basic queries ---------------------------------------------------------

    @cached_property
    def _table(self) -> dict[int, str]:
        return dict(zip(map(ord, self.src.chars), self.images))

    def image(self, token: str) -> str:
        """Internal image word of a source letter token."""
        return self.images[self.src.index(token)]

    def image_tokens(self, token: str) -> list[str]:
        return self.dst.decode(self.image(token))

    def apply(self, word: str) -> str:
        """Apply to an internal word over src; returns internal word over dst."""
        return word.translate(self._table)

    @property
    def max_image_len(self) -> int:
        """|sigma| = longest letter image."""
        return max(len(img) for img in self.images)

    @property
    def min_image_len(self) -> int:
        """<sigma> = shortest letter image."""
        return min(len(img) for img in self.images)

    @property
    def is_non_erasing(self) -> bool:
        return self.min_image_len >= 1

    @property
    def is_erasing(self) -> bool:
        return not self.is_non_erasing

    @property
    def is_coding(self) -> bool:
        """Letter-to-letter and onto the target alphabet."""
        return self.max_image_len == 1 and set(self.images) == set(self.dst.chars)

    @property
    def is_endomorphism(self) -> bool:
        return self.src.tokens == self.dst.tokens

    @cached_property
    def incidence(self) -> "IncidenceStructure":
        """Incidence analysis of an endomorphism, built once per morphism so
        every system sharing this sigma shares its SCCs, Perron values,
        growth types and image lengths."""
        from .growth import IncidenceStructure  # runtime import avoids a module cycle

        return IncidenceStructure.of_morphism(self)

    @cached_property
    def fixed_points(self) -> "dict[str, FixedPointCache]":
        """Prefix caches of the fixed points sigma^inf(a), one per start
        letter a, filled by stream.FixedPointStream: every system on this
        morphism reads one y per start letter, as it shares the incidence
        analysis."""
        return {}

    # -- algebra ---------------------------------------------------------------

    def restricted_to(self, tokens: list[str]) -> "Morphism":
        """Restrict the source to a sub-alphabet (order preserved from tokens).

        An endomorphism takes the sub-alphabet as its target too: its images
        are re-encoded over it by str.translate, and an image that leaves the
        kept letters raises AlphabetMismatch.  Any other morphism keeps its
        target and its images.  Keeping every letter in order returns this
        morphism itself, with its cached analysis.
        """
        if tuple(tokens) == self.src.tokens:
            return self
        sub = Alphabet(tuple(tokens))
        images = tuple(map(self.image, tokens))
        if not self.is_endomorphism:
            return Morphism(sub, self.dst, images)
        kept = "".join(map(self.src.char, tokens))
        if not set("".join(images)) <= set(kept):
            raise AlphabetMismatch("restricted_to: an image leaves the kept letters")
        table = str.maketrans(kept, sub.chars)
        return Morphism(sub, sub, tuple(img.translate(table) for img in images))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """(f o g)(c) = f(g(c)) for every source letter c of g."""
    if f.src.tokens != g.dst.tokens:
        raise AlphabetMismatch("compose: target alphabet of g must equal source alphabet of f")
    return Morphism(g.src, f.dst, tuple(f.apply(img) for img in g.images))


def power(sigma: Morphism, k: int) -> Morphism:
    """sigma composed with itself k times, k >= 1 (binary powering)."""
    if not sigma.is_endomorphism:
        raise AlphabetMismatch("power: endomorphism required")
    if k < 1:
        raise MorphrecError("power: exponent must be >= 1 (identity is never needed)")
    result = None
    base = sigma
    while k:
        if k & 1:
            result = base if result is None else compose(result, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return result


def classify(sigma: Morphism) -> MorphismFlags:
    """Total classification: flags plus the set of letters sigma is prolongable on.

    A letter a qualifies when sigma(a) starts with a, has length >= 2, and a
    is a growing letter (image lengths tend to infinity under iteration).
    """
    prolongable: set[str] = set()
    if sigma.is_endomorphism and sigma.is_non_erasing:
        inc = sigma.incidence
        for i, t in enumerate(sigma.src.tokens):
            img = sigma.images[i]
            if len(img) >= 2 and img[0] == sigma.src.chars[i] and inc.is_growing(t):
                prolongable.add(t)
    return MorphismFlags(
        non_erasing=sigma.is_non_erasing,
        coding=sigma.is_coding,
        endomorphism=sigma.is_endomorphism,
        prolongable_on=frozenset(prolongable),
    )
