"""Prolongable substitution systems: parsing, validation, normal forms.

A system is an endomorphism sigma over an alphabet, a start letter whose
image begins with itself, and an optional outer morphism phi into a target
alphabet.  The generated sequences are y = sigma^inf(start) and x = phi(y).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .errors import (
    NormalizationUnsupported,
    ParseError,
    PreconditionViolated,
)
from .growth import IncidenceStructure
from .morphism import Morphism, compose, power
from .words import Alphabet


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
    def effective_phi(self) -> Morphism:
        """The outer morphism, defaulting to the identity coding."""
        return self.phi if self.phi is not None else Morphism.identity(self.alphabet)

    def is_prolongable(self) -> bool:
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
    col = 0
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
        col = i
    del col
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

    The generated sequences are unchanged; idempotent.
    """
    inc = sys.incidence
    keep = inc.reachable_letters(sys.start)
    if len(keep) == len(sys.alphabet):
        return sys
    sigma = sys.sigma.restricted_to(keep)
    phi = None
    if sys.phi is not None:
        used: list[str] = []
        seen = set()
        for tok in keep:
            for t in sys.phi.image_tokens(tok):
                if t not in seen:
                    seen.add(t)
                    used.append(t)
        # keep target order stable: original order, filtered
        target = Alphabet(tuple(t for t in sys.phi.dst.tokens if t in seen))
        phi = sys.phi.restricted_to(keep, new_dst=target)
        del used
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


def normalize_to_coding(
    sys: ProlongableSystem, max_power_factor: int | None = None
) -> ProlongableSystem:
    """Equivalent system whose outer morphism is a coding and sigma non-erasing.

    Identity when already in shape.  A letter-to-letter phi only needs its
    target shrunk to the letters actually used.  A longer non-erasing phi is
    removed by the letter blow-up: each letter b becomes |phi(b)| indexed
    copies and the blown image of sigma(b) is split into that many non-empty
    pieces, powering sigma first until every split fits.  Erasing sigma or
    phi requires a general image-elimination pass that is out of scope here.
    """
    if sys.sigma.is_erasing:
        raise NormalizationUnsupported(
            "sigma has an empty image; removing erasing letters needs the general "
            "elimination construction, which this library does not implement"
        )
    sys.require_prolongable()
    if sys.phi is None:
        return sys
    phi = sys.phi
    if phi.is_erasing:
        raise NormalizationUnsupported(
            "phi has an empty image; erasing outer morphisms need the general "
            "elimination construction, which this library does not implement"
        )
    if phi.max_image_len == 1:
        # letter-to-letter: shrink the target so phi is onto, keep sigma
        seen = set()
        used = []
        for tok in sys.alphabet.tokens:
            t = phi.image_tokens(tok)[0]
            if t not in seen:
                seen.add(t)
                used.append(t)
        target = Alphabet(tuple(t for t in phi.dst.tokens if t in seen))
        if target.tokens == phi.dst.tokens and phi.is_coding:
            return sys
        new_phi = Morphism.from_tokens(
            sys.alphabet, target, {t: phi.image_tokens(t) for t in sys.alphabet.tokens}
        )
        return ProlongableSystem(sys.sigma, sys.start, new_phi)

    # blow-up: find a power where every letter's blown image splits.  Prefer a
    # power where every piece can have length >= 2: then each indexed copy is
    # 2-expanding and the output system is growing, which the downstream
    # pipeline needs to avoid re-entering this blow-up.  Fall back to the
    # smallest power admitting non-empty pieces.
    n = len(sys.alphabet)
    limit = max_power_factor if max_power_factor is not None else n * (n + 1)
    widths = {tok: len(phi.image_tokens(tok)) for tok in sys.alphabet.tokens}
    chosen = None
    sk = sys.sigma
    for k in range(1, limit + 1):
        if k > 1:
            sk = compose(sk, sys.sigma)
        weak = True
        strong = True
        for tok in sys.alphabet.tokens:
            have = sum(widths[c] for c in sk.image_tokens(tok))
            if have < widths[tok] + (1 if tok == sys.start else 0):
                weak = False
            if have < 2 * widths[tok]:
                strong = False
        if strong:
            chosen = sk
            break
        if weak and chosen is None:
            chosen = sk
        if chosen is not None and sk.max_image_len > (1 << 16):
            break
    if chosen is None:
        raise NormalizationUnsupported(
            f"no power of sigma up to {limit} admits the letter blow-up split"
        )

    triples = _blowup_tokens(sys.alphabet, widths)
    new_tokens = tuple(t for t, _, _ in triples)
    new_alpha = Alphabet(new_tokens)
    name_of = {(old, i): new for new, old, i in triples}

    def blow(word_tokens: list[str]) -> list[str]:
        out = []
        for c in word_tokens:
            for i in range(widths[c]):
                out.append(name_of[(c, i)])
        return out

    sigma_table: dict[str, list[str]] = {}
    for tok in sys.alphabet.tokens:
        blown = blow(chosen.image_tokens(tok))
        pieces = widths[tok]
        base, extra = divmod(len(blown), pieces)
        # larger pieces first so the start copy keeps length >= 2
        sizes = [base + 1] * extra + [base] * (pieces - extra)
        pos = 0
        for i, size in enumerate(sizes):
            sigma_table[name_of[(tok, i)]] = blown[pos : pos + size]
            pos += size
    new_sigma = Morphism.from_tokens(new_alpha, new_alpha, sigma_table)

    coding_table = {
        name_of[(tok, i)]: [phi.image_tokens(tok)[i]]
        for tok in sys.alphabet.tokens
        for i in range(widths[tok])
    }
    seen = set()
    used_targets = []
    for new in new_tokens:
        t = coding_table[new][0]
        if t not in seen:
            seen.add(t)
            used_targets.append(t)
    target = Alphabet(tuple(t for t in phi.dst.tokens if t in seen))
    new_phi = Morphism.from_tokens(new_alpha, target, coding_table)

    out = ProlongableSystem(new_sigma, name_of[(sys.start, 0)], new_phi)
    out.require_prolongable()
    return out
