"""Return words, derived sequences, and induced substitutions.

One closure kernel, build_sigma_U, cuts sigma-images into return words.  It
handles the set case used by the decider: the returns of y to the preimage
set U of a prefix of x, giving a pair table, the index substitution sigma_U,
and the coding psi onto x-side return indices.  The word case,
return_substitution (the returns of y to a single prefix u, with the induced
substitution sigma_u), is its anchored identity-coding case, where U = {u}.
return_words_to_word reads return words off a scanned prefix instead.  All
tables index from 1; entry order is first appearance.

Words inside the u-chain are internal strings (see words.Alphabet):
build_sigma_U takes u over sys.alphabet, its descriptors hold u and the
pairs over sys.alphabet and v and the x-return words over
sys.target_alphabet, and delta_reconstruct returns a prefix of y over
sys.alphabet.  Only the word-case ReturnTable is decoded into tokens.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import (
    BudgetExhausted,
    InternalConsistencyError,
    NoOccurrence,
    NotPrimitive,
    PreconditionViolated,
    PrefixInvalid,
)
from .morphism import Morphism
from .stream import FixedPointStream
from .system import ProlongableSystem
from .words import Alphabet, occurrences_until, split_occurrences

# Budgets, stated once for the library, the CLI and the scripts: levels of
# the u-chain the decider drives before it stops watching for a repetition,
# pairs one closure may discover, letters one closure may expand, and
# letters of the fixed point any E1 scan may read, which every such scan
# holds in the prefix cache.  Only the work budget is a parameter
# (work_budget, with WORK_BUDGET its default).
PRACTICAL_CAP = 64
PAIR_BUDGET = 4096
WORK_BUDGET = 1 << 26
SCAN_LETTERS = 1 << 20

# letters derived_step scans for the first return word of x to u
_DERIVED_STEP_SCAN = 1 << 16


@dataclass(frozen=True)
class ReturnTable:
    """Return words of a sequence to a single word u, in first-appearance order.

    theta(i) is the i-th return word (1-based).  derived_prefix is the start
    of the derived sequence: the index sequence factorizing the scanned
    prefix from one u-occurrence to the next.  scanned is the length of the
    prefix read: the scan budget, or for a closed table the prefix that ends
    with the second occurrence of u.
    """

    u: tuple[str, ...]
    which: str
    words: tuple[tuple[str, ...], ...]
    derived_prefix: tuple[int, ...]
    complete: bool
    scanned: int

    def __len__(self) -> int:
        return len(self.words)

    def theta(self, i: int) -> tuple[str, ...]:
        if not 1 <= i <= len(self.words):
            raise IndexError(f"return index {i} out of range 1..{len(self.words)}")
        return self.words[i - 1]


def _check_prefix(stream: FixedPointStream, pattern: str, label: str):
    if not pattern:
        raise PrefixInvalid(f"{label} must be non-empty")
    if stream.prefix_chars(len(pattern)) != pattern:
        raise PrefixInvalid(f"{label} is not a prefix of the sequence")


def _cut(segment: str, offsets: tuple[int, ...], closed: bool) -> tuple[str, ...]:
    """segment cut at 0 and the offsets, and at its end when closed."""
    cuts = (0, *offsets, len(segment)) if closed else (0, *offsets)
    return tuple(segment[a:b] for a, b in zip(cuts, cuts[1:]))


def return_words_to_word(
    sys: ProlongableSystem, u: list[str], budget: int = 1 << 16, which: str = "x"
) -> ReturnTable:
    """Scan the first `budget` letters and collect return words to u.

    The table is ordered by first appearance of the return word; the trailing
    partial return (after the last seen occurrence) is dropped.  Raises
    PreconditionViolated for a budget below 1, and BudgetExhausted when u
    does not recur within the budget.
    """
    if budget < 1:
        raise PreconditionViolated(f"scan budget must be at least 1 letter, got {budget}")
    stream = FixedPointStream(sys, which)
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    pattern = alpha.encode(u)
    _check_prefix(stream, pattern, "u")
    pieces, inner, tail = split_occurrences(stream.prefix_chars(budget), pattern)
    found = len(pieces) - 1 + len(tail)  # exact up to one greedy start
    if found < 2:
        raise BudgetExhausted(
            f"word recurred {found} time(s) within the first {budget} letters",
            occurrences_found=found,
        )
    # the returns from a greedy start to the next, then those after the last
    segments = {p: _cut(pattern + p, offsets, True) for p, offsets in inner.items()}
    last = _cut(pattern + pieces[-1], tail, False)
    index_of = {
        w: i for i, w in enumerate(dict.fromkeys(chain(*segments.values(), last)), 1)
    }
    indices = {p: tuple(map(index_of.__getitem__, ws)) for p, ws in segments.items()}
    if any(inner.values()):
        derived = tuple(chain.from_iterable(map(indices.__getitem__, pieces[1:-1])))
    else:  # one return per inner piece
        derived = tuple(map({p: i for p, (i,) in indices.items()}.__getitem__, pieces[1:-1]))
    derived += tuple(map(index_of.__getitem__, last))
    del pieces
    words = tuple(tuple(alpha.decode(w)) for w in index_of)
    return ReturnTable(
        u=tuple(u),
        which=which,
        words=words,
        derived_prefix=derived,
        complete=False,
        scanned=budget,
    )


@dataclass(frozen=True)
class ReturnSubstitution:
    """Closed return-word table of y to a prefix u, with the substitution
    sigma_u satisfying Theta sigma_u = sigma Theta."""

    sigma_u: Morphism
    table: ReturnTable


def return_substitution(sys: ProlongableSystem, u: list[str]) -> ReturnSubstitution:
    """Induced substitution on return-word indices for a primitive system.

    This is the anchored identity-coding case of build_sigma_U: with phi the
    identity, U = {u}, every pair is (w, u), and the pair table is the table
    of return words of y to u in first-appearance order.  K is taken so
    that the first-recurrence window (K+1)|u| covers SCAN_LETTERS letters,
    and at least |u|, so that no return word is short against |u|/K.  A
    prefix that does not recur in the window, a return word longer than
    K|u| and more than PAIR_BUDGET words all raise BudgetExhausted.
    """
    if sys.incidence.primitive_exponent is None:
        raise NotPrimitive("return substitutions need a primitive incidence matrix")
    alpha = sys.alphabet
    K = max(SCAN_LETTERS // max(len(u), 1), len(u))
    res = build_sigma_U(
        ProlongableSystem(sys.sigma, sys.start),
        alpha.encode(u),
        K,
        anchored=True,
    )
    if isinstance(res, DriverExit):
        # the window passes SCAN_LETTERS, so a missing recurrence raises
        # in the scan, and E1 never returns here
        if res.kind == "E2":
            raise BudgetExhausted(res.message)
        raise InternalConsistencyError(f"word-case closure exited: {res.message}")

    words = [w for w, _ in res.pairs]
    # independent re-check of the defining equation sigma(Theta(i)) = Theta(sigma_u(i))
    for i, (w, img) in enumerate(zip(words, res.sigma_u_images), start=1):
        if sys.sigma.apply(w) != "".join(words[k - 1] for k in img):
            raise InternalConsistencyError(f"defining equation fails at index {i}")

    table = ReturnTable(
        u=tuple(u),
        which="y",
        words=tuple(tuple(alpha.decode(w)) for w in words),
        derived_prefix=tuple(_derived_prefix_from(res.sigma_u_images, 64)),
        complete=True,
        scanned=len(words[0]) + len(u),
    )
    return ReturnSubstitution(res.sigma_U, table)


def _derived_prefix_from(images: Sequence[Sequence[int]], n: int) -> list[int]:
    """First n letters of the fixed point of the index substitution from 1."""
    seq = [1]
    while len(seq) < n:
        nxt: list[int] = []
        for i in seq:
            nxt.extend(images[i - 1])
            if len(nxt) >= n:
                break
        if nxt == seq or not nxt:
            break
        if len(nxt) <= len(seq) and seq == nxt[: len(seq)]:
            break
        seq = nxt
    return seq[:n]


# -- the p/m/s decomposition --------------------------------------------------------


def pms_decompose(
    sys: ProlongableSystem, w: list[str], u: list[str]
) -> tuple[list[str], list[str], list[str]]:
    """Split sigma(w) as p.m.s where m is the first window whose phi-image
    equals phi(u) (the first occurrence of the preimage set U in sigma(w)).

    Raises NoOccurrence when sigma(w) has no such window.
    """
    alpha = sys.alphabet
    phi = sys.effective_phi
    body = sys.sigma.apply(alpha.encode(w))
    v = phi.apply(alpha.encode(u))
    image = phi.apply(body)
    pos = image.find(v)
    if pos == -1 or pos + len(v) > len(body):
        raise NoOccurrence(
            "image of the word contains no occurrence of the target set",
            scanned_length=len(body),
        )
    m = len(v)
    return (
        alpha.decode(body[:pos]),
        alpha.decode(body[pos : pos + m]),
        alpha.decode(body[pos + m :]),
    )


# -- the set-case driver -------------------------------------------------------------


def first_two_occurrences(stream: FixedPointStream, pattern: str, window: int) -> list[int]:
    """The first two starts of pattern that end within the first `window`
    letters of the stream, fewer when it does not recur there.  The prefix
    read grows by 4x, so an early recurrence reads a short prefix, and it
    never passes SCAN_LETTERS letters: when the window is longer and pattern
    has no second start ending within SCAN_LETTERS letters, the scan raises
    BudgetExhausted, since the window's end stays unread."""
    limit = max(4 * len(pattern), 64)
    while True:
        end = min(limit, window, SCAN_LETTERS)
        text = stream.prefix_chars(end)
        occ: list[int] = []
        pos = text.find(pattern)
        while pos != -1 and len(occ) < 2:
            occ.append(pos)
            pos = text.find(pattern, pos + 1)
        if len(occ) == 2 or end == window:
            return occ
        if end == SCAN_LETTERS:
            raise BudgetExhausted(
                f"a word of length {len(pattern)} does not recur in the first "
                f"{SCAN_LETTERS} letters of its {window}-letter window",
                occurrences_found=len(occ),
            )
        limit *= 4


@dataclass(frozen=True)
class DriverExit:
    """Structured abort of the descriptor driver.

    kind: 'E1' (prefix does not recur in the K-window), 'E2' (return word
    longer than K|u|), 'E3' (more than K1 table entries), 'E4' (entry first
    appears beyond the closure window), 'no-occurrence' (a long window misses
    the target), 'empty-image' (an image block contributes no occurrence),
    'short-return' (return word shorter than |u|/K), 'unanchored' (anchoring
    was asked for and an image's first cut is not at 0 or its closing cut is
    not at the end of the image block).  `derive_chain` alone issues
    'budget' (a closure ran past its work or pair budget), which refutes
    nothing.  unconditional=True means the exit alone refutes uniform
    recurrence.  An exit carries only its kind, unconditional and message,
    which derive prints; the decider's low pass and return_substitution
    read its kind.  The E1 and gap exits of the decider's exit scan are not
    driver exits: certify._level_exit builds them as certificates.
    """

    kind: str
    unconditional: bool
    message: str


@dataclass(frozen=True)
class DerivedDescriptor:
    """Complete return structure of y to U = preimages of a prefix of x.

    pairs[(j-1)] = (w, u') with w a return word of y to U and u' the U-word
    that follows; sigma_u_images are the index images of the induced
    substitution; psi maps pair indices onto x-side return indices;
    x_returns are the return words of x to v = phi(u).  Words are internal
    strings: u and the pairs over sys.alphabet, v and x_returns over
    sys.target_alphabet.
    """

    u: str
    v: str
    pairs: tuple[tuple[str, str], ...]
    sigma_u_images: tuple[tuple[int, ...], ...]
    psi: tuple[int, ...]
    x_returns: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def sigma_U(self) -> Morphism:
        idx = Alphabet.indexed(len(self.pairs))
        chars = idx.chars
        return Morphism(
            idx, idx, tuple("".join(chars[k - 1] for k in img) for img in self.sigma_u_images)
        )

    def canonical_text(self) -> str:
        """Level-independent form: index substitution plus psi, nothing else."""
        lines = [f"pairs: {len(self.pairs)}"]
        for i, img in enumerate(self.sigma_u_images, start=1):
            lines.append(f"s {i}: " + " ".join(map(str, img)))
        for i, k in enumerate(self.psi, start=1):
            lines.append(f"p {i}: {k}")
        return "\n".join(lines) + "\n"


def build_sigma_U(
    sys: ProlongableSystem,
    u: str,
    K: int | None,
    K1: int | None = None,
    work_budget: int = WORK_BUDGET,
    anchored: bool = False,
):
    """Drive the set-case return construction for u, a prefix of y given as
    an internal string over sys.alphabet.

    Returns a DerivedDescriptor on success or a DriverExit.  Processing goes
    in index order: the image of each known pair is cut at occurrences of
    v = phi(u) inside phi(sigma(w u')), which discovers new pairs exactly in
    first-appearance order.  Exits follow the taxonomy on DriverExit; the
    closure window check requires every pair to appear within K+1+#A^2
    expansion rounds of the index substitution.  With anchored=True every
    image block must be cut exactly into whole return words, so that
    Theta sigma_U = sigma Theta holds letter for letter; otherwise the driver
    returns an 'unanchored' exit.  E1 reads at most SCAN_LETTERS letters of
    x: a window past them in which v does not recur raises BudgetExhausted.
    With K None the exits that K sets are off: E1's window is work_budget
    letters, E2, short-return and E4 never fire, and empty-image and
    no-occurrence are guarded.  Those exits are the only places K enters, so
    a run that closes with an int K builds the same descriptor with K None.
    Each pair's scan of its image stops at its closing cut, the first
    occurrence of v at or after |sigma(w)|.
    """
    phi = sys.phi
    if phi is not None and not phi.is_coding:
        raise PrefixInvalid("driver needs phi to be a coding (normalize first)")
    # x = y under the identity coding: one stream, and no translation
    code = phi.apply if phi is not None else (lambda w: w)
    ystream = FixedPointStream(sys, "y")
    alpha = sys.alphabet
    _check_prefix(ystream, u, "u")
    v = code(u)
    m = len(v)

    # E1: v must recur within the (K+1)|v| prefix of x
    window = (K + 1) * m if K is not None else work_budget
    xstream = ystream if phi is None else FixedPointStream(sys, "x")
    occ = first_two_occurrences(xstream, v, window)
    if len(occ) < 2:
        return DriverExit(
            kind="E1",
            unconditional=True,
            message=f"prefix of length {len(u)} does not recur in the first {window} letters",
        )
    p2 = occ[1]
    ytext = ystream.prefix_chars(p2 + m)
    pairs: list[tuple[str, str]] = [(ytext[:p2], ytext[p2 : p2 + m])]
    index_of = {pairs[0]: 1}
    images: list[tuple[int, ...]] = []
    sigma = sys.sigma
    work = 0
    bound = K * m if K is not None else None  # the E2 bound K|u|

    j = 0
    while j < len(pairs):
        w, up = pairs[j]
        j += 1
        body = sigma.apply(w)
        tail = sigma.apply(up)
        T = body + tail
        work += len(T)
        if work > work_budget:
            raise BudgetExhausted(
                f"driver expanded more than {work_budget} letters",
                occurrences_found=len(pairs),
            )
        F = code(T)
        W = len(body)
        before, closing = occurrences_until(F, v, W)
        if not before:
            uncond = bound is not None and W >= bound
            return DriverExit(
                kind="empty-image",
                unconditional=uncond,
                message="an image block contains no occurrence of the target",
            )
        if closing is None:
            uncond = bound is not None and len(F) - W >= bound
            return DriverExit(
                kind="no-occurrence",
                unconditional=uncond,
                message="no closing occurrence after an image block",
            )
        if j == 1 and before[0] != 0:
            raise InternalConsistencyError("first pair image lost its anchor at 0")
        if anchored and (before[0] != 0 or closing != W):
            return DriverExit(
                kind="unanchored",
                unconditional=False,
                message="an image block is not cut exactly into return words",
            )
        bounds = before + [closing]
        img: list[int] = []
        for a, b in zip(bounds, bounds[1:]):
            piece = (T[a:b], T[b : b + m])
            if bound is not None and len(piece[0]) > bound:
                return DriverExit(
                    kind="E2",
                    unconditional=True,
                    message=f"return word of length {len(piece[0])} exceeds K|u| = {bound}",
                )
            if K is not None and len(piece[0]) * K < m:
                return DriverExit(
                    kind="short-return",
                    unconditional=False,
                    message=f"return word of length {len(piece[0])} is below |u|/K",
                )
            idx = index_of.get(piece)
            if idx is None:
                if K1 is not None and len(pairs) >= K1:
                    return DriverExit(
                        kind="E3",
                        unconditional=False,
                        message=f"more than K1 = {K1} table entries",
                    )
                if len(pairs) >= PAIR_BUDGET:
                    raise BudgetExhausted(
                        f"more than {PAIR_BUDGET} pairs discovered",
                        occurrences_found=len(pairs),
                    )
                pairs.append(piece)
                idx = len(pairs)
                index_of[piece] = idx
            img.append(idx)
        images.append(tuple(img))

    if images[0][0] != 1:
        raise InternalConsistencyError("sigma_U(1) does not start with 1")

    # E4 / closure window: every pair must appear within K+1+#A^2 rounds;
    # with no window every pair appears, in the image of an earlier one
    if K is not None:
        rounds = K + 1 + len(alpha) ** 2
        support = {1}
        for _ in range(rounds):
            grown = set(support)
            for i in support:
                grown.update(images[i - 1])
            if grown == support:
                break
            support = grown
        if len(support) != len(pairs):
            return DriverExit(
                kind="E4",
                unconditional=False,
                message="table entries appear only beyond the closure window",
            )

    # x-side return words and psi, by first appearance of phi(w)
    x_words: list[str] = []
    x_index: dict[str, int] = {}
    psi: list[int] = []
    for w, _ in pairs:
        r = code(w)
        k = x_index.get(r)
        if k is None:
            x_words.append(r)
            k = len(x_words)
            x_index[r] = k
        psi.append(k)

    return DerivedDescriptor(
        u=u,
        v=v,
        pairs=tuple(pairs),
        sigma_u_images=tuple(images),
        psi=tuple(psi),
        x_returns=tuple(x_words),
    )


def delta_reconstruct(descriptor: DerivedDescriptor, n: int) -> str:
    """Concatenate the first n return words of the derived expansion.

    The result is a prefix of y, an internal string over the alphabet of the
    system the descriptor was built on (empty for n = 0).
    """
    if n < 0:
        raise ValueError("steps must be >= 0")
    if n == 0:
        return ""
    seq = _derived_prefix_from(descriptor.sigma_u_images, n)
    if len(seq) < n:
        raise InternalConsistencyError("descriptor expansion stalled before n letters")
    return "".join(descriptor.pairs[i - 1][0] for i in seq)


def derived_step(sys: ProlongableSystem, u: list[str]) -> list[str]:
    """Next nested prefix: the first return word of x to u, concatenated with u."""
    table = return_words_to_word(sys, u, budget=_DERIVED_STEP_SCAN, which="x")
    return list(table.theta(1)) + list(u)
