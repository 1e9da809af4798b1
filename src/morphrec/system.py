"""Prolongable substitution systems: parsing, validation, normal forms.

A system is an endomorphism sigma over an alphabet, a start letter whose
image begins with itself, and an optional outer morphism phi into a target
alphabet.  The generated sequences are y = sigma^inf(start) and x = phi(y).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from .errors import (
    NormalizationUnsupported,
    ParseError,
    PreconditionViolated,
)
from .growth import IncidenceStructure, image_masks, letter_bits, reach_mask
from .morphism import Morphism, compose, power
from .words import Alphabet

if TYPE_CHECKING:
    from .stream import ImageCache

# longest sigma^k image the letter blow-up's power search may build
_BLOWUP_IMAGE_STOP = 1 << 16


@dataclass(frozen=True)
class ProlongableSystem:
    """sigma endomorphism + start letter + optional outer morphism phi."""

    sigma: Morphism
    start: str
    phi: Morphism | None = None

    def __post_init__(self):
        if not self.sigma.is_endomorphism:
            raise PreconditionViolated("sigma must be an endomorphism")
        if self.start not in self.sigma.src:
            raise PreconditionViolated(f"start letter {self.start!r} not in the alphabet")
        if self.phi is not None and self.phi.src.tokens != self.sigma.src.tokens:
            raise PreconditionViolated("phi must be defined on sigma's alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return self.sigma.src

    @property
    def target_alphabet(self) -> Alphabet:
        return self.phi.dst if self.phi is not None else self.sigma.src

    @property
    def incidence(self) -> IncidenceStructure:
        """The analysis cached on sigma, shared with every system built on it."""
        return self.sigma.incidence

    @cached_property
    def _restriction(self) -> "ProlongableSystem | None":
        """The system on the letters the start reaches, or None when that is
        every letter (no self-reference, so no reference cycle); see
        restrict_to_reachable, which reads it."""
        return _restrict(self)

    @cached_property
    def effective_phi(self) -> Morphism:
        """The outer morphism, defaulting to the identity coding."""
        return self.phi if self.phi is not None else Morphism.identity(self.alphabet)

    @cached_property
    def x_cache(self) -> "ImageCache":
        """The prefix cache of x = phi(y), grown by stream.FixedPointStream
        from the y cache on sigma; it starts as phi(a), one y letter read."""
        from .stream import ImageCache  # runtime import avoids a module cycle

        return ImageCache(self.effective_phi.apply(self.alphabet.char(self.start)), 1)

    def is_prolongable(self) -> bool:
        return self._prolongable

    @cached_property
    def _prolongable(self) -> bool:
        """Whether sigma is prolongable on the start letter, read once per
        system object."""
        img = self.sigma.image(self.start)
        if len(img) < 2 or img[0] != self.alphabet.char(self.start):
            return False
        if self.sigma.is_non_erasing:
            # sigma^n(a) = a u sigma(u) ... sigma^(n-1)(u) with u non-empty and
            # no letter erased, so |sigma^n(a)| >= n + 1: the letter grows
            return True
        return self.incidence.is_growing(self.start)

    def require_prolongable(self):
        if not self.is_prolongable():
            raise PreconditionViolated(
                f"sigma is not prolongable on {self.start!r}: need sigma({self.start}) "
                f"to start with {self.start} and the letter to grow under iteration"
            )

    def with_sigma_power(self, k: int) -> "ProlongableSystem":
        """Same fixed point, sigma replaced by sigma^k."""
        if k == 1:
            return self
        return replace(self, sigma=power(self.sigma, k))


# -- text format ----------------------------------------------------------------


def _tokenize(line: str) -> list[tuple[str, int]]:
    """(token, 1-based column) pairs; '#' starts a comment."""
    out = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        start = i
        while i < len(line) and not line[i].isspace() and line[i] != "#":
            i += 1
        out.append((line[start:i], start + 1))
    return out


def parse_system(text: str) -> ProlongableSystem:
    """Parse the morphism text format.

    Directives: `alphabet: tok ...`, `start: tok`, `target: tok ...`,
    `sigma:` and `phi:` blocks of rules `tok -> tok tok ...`; the token
    `ε` denotes an empty image; `#` begins a comment.
    """
    alphabet_tokens: list[str] | None = None
    target_tokens: list[str] | None = None
    start_token: str | None = None
    rules: dict[str, dict[str, tuple[list[str], int]]] = {"sigma": {}, "phi": {}}
    block: str | None = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize(raw)
        if not toks:
            continue
        head, head_col = toks[0]
        if head in ("alphabet:", "start:", "target:", "sigma:", "phi:"):
            name = head[:-1]
            rest = toks[1:]
            if name == "alphabet":
                if alphabet_tokens is not None:
                    raise ParseError("duplicate alphabet directive", ln, head_col)
                if not rest:
                    raise ParseError("alphabet needs at least one letter", ln, head_col)
                alphabet_tokens = [t for t, _ in rest]
                block = None
            elif name == "target":
                if target_tokens is not None:
                    raise ParseError("duplicate target directive", ln, head_col)
                if not rest:
                    raise ParseError("target needs at least one letter", ln, head_col)
                target_tokens = [t for t, _ in rest]
                block = None
            elif name == "start":
                if start_token is not None:
                    raise ParseError("duplicate start directive", ln, head_col)
                if len(rest) != 1:
                    raise ParseError("start needs exactly one letter", ln, head_col)
                start_token = rest[0][0]
                block = None
            else:  # sigma: / phi:
                if rest:
                    raise ParseError(f"{name}: takes no tokens on its line", ln, rest[0][1])
                if rules[name]:
                    raise ParseError(f"duplicate {name} block", ln, head_col)
                block = name
            continue
        # rule line: tok -> tok tok ...
        if block is None:
            raise ParseError(f"unexpected token {head!r} outside any block", ln, head_col)
        if len(toks) < 2 or toks[1][0] != "->":
            raise ParseError("rule must look like `letter -> image...`", ln, head_col)
        if len(toks) < 3:
            raise ParseError("empty image must be written as ε", ln, toks[1][1])
        lhs = head
        image = [t for t, _ in toks[2:]]
        if image == ["ε"]:
            image = []
        elif "ε" in image:
            raise ParseError("ε cannot be mixed with letters", ln, toks[2][1])
        if lhs in rules[block]:
            raise ParseError(f"duplicate rule for {lhs!r}", ln, head_col)
        rules[block][lhs] = (image, ln)

    if alphabet_tokens is None:
        raise ParseError("missing alphabet directive", 1, 1)
    if len(set(alphabet_tokens)) != len(alphabet_tokens):
        raise ParseError("alphabet letters must be distinct", 1, 1)
    if start_token is None:
        raise ParseError("missing start directive", 1, 1)
    if start_token not in alphabet_tokens:
        raise ParseError(f"start letter {start_token!r} not in alphabet", 1, 1)
    if not rules["sigma"]:
        raise ParseError("missing sigma block", 1, 1)

    alphabet = Alphabet(tuple(alphabet_tokens))

    def build(block_name: str, src: Alphabet, dst: Alphabet) -> Morphism:
        table = {}
        for lhs, (image, ln) in rules[block_name].items():
            if lhs not in src:
                raise ParseError(f"rule for unknown letter {lhs!r}", ln, 1)
            for tok in image:
                if tok not in dst:
                    raise ParseError(f"image letter {tok!r} not declared", ln, 1)
            table[lhs] = image
        for tok in src.tokens:
            if tok not in table:
                raise ParseError(f"missing rule for letter {tok!r}", 1, 1)
        return Morphism.from_tokens(src, dst, table)

    sigma = build("sigma", alphabet, alphabet)
    phi = None
    if rules["phi"]:
        if target_tokens is None:
            raise ParseError("phi block requires a target directive", 1, 1)
        if len(set(target_tokens)) != len(target_tokens):
            raise ParseError("target letters must be distinct", 1, 1)
        phi = build("phi", alphabet, Alphabet(tuple(target_tokens)))
    elif target_tokens is not None:
        raise ParseError("target directive without a phi block", 1, 1)

    return ProlongableSystem(sigma, start_token, phi)


def system_to_text(sys: ProlongableSystem) -> str:
    """Canonical text form; parse_system(system_to_text(s)) == s."""
    lines = ["alphabet: " + " ".join(sys.alphabet.tokens)]
    lines.append(f"start: {sys.start}")
    lines.append("sigma:")
    for tok in sys.alphabet.tokens:
        img = sys.sigma.image_tokens(tok)
        lines.append(f"  {tok} -> " + (" ".join(img) if img else "ε"))
    if sys.phi is not None:
        lines.append("target: " + " ".join(sys.phi.dst.tokens))
        lines.append("phi:")
        for tok in sys.alphabet.tokens:
            img = sys.phi.image_tokens(tok)
            lines.append(f"  {tok} -> " + (" ".join(img) if img else "ε"))
    return "\n".join(lines) + "\n"


# -- normal forms -----------------------------------------------------------------


def restrict_to_reachable(sys: ProlongableSystem) -> ProlongableSystem:
    """Shrink the alphabet to letters reachable from the start letter.

    The reach set is read off the bitmasks of sigma's image letters, with no
    incidence analysis of sigma; sigma is restricted by
    Morphism.restricted_to and phi by _onto, both by str.translate on their
    internal images.  The restriction is computed
    once per system object and kept on it, so every caller restricting the
    same system gets the same object, and shares the analyses cached on it.

    The generated sequences are unchanged; idempotent.  The target shrinks
    to the letters phi uses on the kept letters, unless phi erases them all:
    then it is kept whole, and normalize_to_coding rejects that phi as it
    would with no letter dropped.
    """
    return sys._restriction or sys


def _restrict(sys: ProlongableSystem) -> ProlongableSystem | None:
    alpha = sys.alphabet
    keep = reach_mask(image_masks(sys.sigma), 1 << alpha.index(sys.start))
    if keep == (1 << len(alpha)) - 1:
        return None
    kept = letter_bits(keep)
    sigma = sys.sigma.restricted_to([alpha.tokens[i] for i in kept])
    sub = sigma.src
    phi = None
    if sys.phi is not None:
        images = [sys.phi.images[i] for i in kept]
        if any(images):
            phi = _onto(sub, sys.phi.dst, images)
        else:  # x is empty and uses no target letter: keep the target whole
            phi = Morphism(sub, sys.phi.dst, tuple(images))
    return ProlongableSystem(sigma, sys.start, phi)


def _blowup_tokens(alphabet: Alphabet, widths: dict[str, int]) -> list[tuple[str, str, int]]:
    """(new token, old token, position) triples, deterministic and collision-free."""
    used = set()
    out = []
    for tok in alphabet.tokens:
        for i in range(widths[tok]):
            cand = f"{tok}_{i}"
            while cand in used:
                cand += "'"
            used.add(cand)
            out.append((cand, tok, i))
    return out


def _onto(src: Alphabet, dst: Alphabet, images: Sequence[str]) -> Morphism:
    """The morphism sending the i-th letter of src to images[i], a word over
    dst, onto the letters of dst the images use (in dst order)."""
    used = set("".join(images))
    kept = "".join(c for c in dst.chars if c in used)
    target = Alphabet(tuple(map(dst.token_of_char, kept)))
    table = str.maketrans(kept, target.chars)
    return Morphism(src, target, tuple(img.translate(table) for img in images))


def normalize_to_coding(sys: ProlongableSystem) -> ProlongableSystem:
    """Equivalent system whose outer morphism is a coding and sigma non-erasing.

    Identity when already in shape: an onto coding phi passes through with
    no new alphabet or morphism.  Any other letter-to-letter phi only needs
    its target shrunk to the letters it uses.  A longer non-erasing phi is
    removed by the letter blow-up: each letter b becomes |phi(b)| indexed
    copies and the blown image of sigma(b) is split into that many non-empty
    pieces, powering sigma first, up to sigma^(#A(#A+1)), until every split
    fits.  The search also stops at the first power with an image longer
    than _BLOWUP_IMAGE_STOP (2^16) letters: it then uses the split found so
    far, and raises NormalizationUnsupported when there is none.
    Erasing sigma or phi requires a general image-elimination pass that is
    out of scope here.
    """
    if sys.sigma.is_erasing:
        raise NormalizationUnsupported(
            "sigma has an empty image; removing erasing letters needs the general "
            "elimination construction, which this library does not implement"
        )
    sys.require_prolongable()
    phi = sys.phi
    if phi is None or phi.is_coding:
        return sys
    if phi.is_erasing:
        raise NormalizationUnsupported(
            "phi has an empty image; erasing outer morphisms need the general "
            "elimination construction, which this library does not implement"
        )
    if phi.max_image_len == 1:
        # letter-to-letter but not onto: shrink the target, keep sigma
        return ProlongableSystem(sys.sigma, sys.start, _onto(sys.alphabet, phi.dst, phi.images))

    # blow-up: find a power where every letter's blown image splits.  Prefer a
    # power where every piece can have length >= 2: then each indexed copy is
    # 2-expanding and the output system is growing, which the downstream
    # pipeline needs to avoid re-entering this blow-up.  Fall back to the
    # smallest power admitting non-empty pieces.
    n = len(sys.alphabet)
    limit = n * (n + 1)
    widths = [len(img) for img in phi.images]
    start_i = sys.alphabet.index(sys.start)
    need = [w + (i == start_i) for i, w in enumerate(widths)]
    chosen = None
    sk = sys.sigma
    for k in range(1, limit + 1):
        if k > 1:
            sk = compose(sk, sys.sigma)
        have = [len(phi.apply(img)) for img in sk.images]
        if all(h >= 2 * w for h, w in zip(have, widths)):
            chosen = sk
            break
        if chosen is None and all(h >= m for h, m in zip(have, need)):
            chosen = sk
        if sk.max_image_len > _BLOWUP_IMAGE_STOP:
            break
    if chosen is None:
        stop = ""
        if sk.max_image_len > _BLOWUP_IMAGE_STOP:
            stop = f", and sigma^{k} has an image over {_BLOWUP_IMAGE_STOP} letters"
        raise NormalizationUnsupported(
            f"no power of sigma up to {k} admits the letter blow-up split{stop}"
        )

    triples = _blowup_tokens(sys.alphabet, dict(zip(sys.alphabet.tokens, widths)))
    new_alpha = Alphabet(tuple(t for t, _, _ in triples))
    # each letter's copies are consecutive in the new alphabet
    copies = [new_alpha.chars[e - w : e] for e, w in zip(accumulate(widths), widths)]
    blow = str.maketrans(dict(zip(sys.alphabet.chars, copies)))

    images = []
    for img, pieces in zip(chosen.images, widths):
        blown = img.translate(blow)
        base, extra = divmod(len(blown), pieces)
        # larger pieces first so the start copy keeps length >= 2
        sizes = [base + 1] * extra + [base] * (pieces - extra)
        pos = 0
        for size in sizes:
            images.append(blown[pos : pos + size])
            pos += size
    new_sigma = Morphism(new_alpha, new_alpha, tuple(images))
    new_phi = _onto(new_alpha, phi.dst, "".join(phi.images))

    start = new_alpha.token_of_char(copies[start_i][0])
    out = ProlongableSystem(new_sigma, start, new_phi)
    out.require_prolongable()
    return out
