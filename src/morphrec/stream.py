"""Lazy generation of y = sigma^inf(a) and x = phi(y), plus factor analysis.

The stream decomposes the fixed point as a . u . sigma(u) . sigma^2(u) ...
where sigma(a) = a u.  Bulk prefixes use repeated translate() doubling with a
growable cache.  Streaming scans expand each block sigma^k(u) through a table
of sigma^j images, built one level at a time when a scan first reaches it and
never past the level whose images, known in advance from the image lengths
of sigma's shared incidence analysis, would exceed _CHUNK letters; deeper
blocks translate pieces of shallower ones, so memory stays proportional to
the chunk size times the expansion depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import BudgetExhausted, NotEnoughOccurrences, PreconditionViolated
from .system import ProlongableSystem
from .words import factor_set

_CHUNK = 4096
_MAX_LEVEL = 64  # deepest table level, for letters whose images grow slowly
_ERASE_GUARD = 1 << 22  # y letters consumed without x progress before giving up


class FixedPointStream:
    """Single-owner stream over y = sigma^inf(a) or x = phi(y).

    prefix() keeps a growing cache (memory O(n)); chunks()/letters() stream
    with memory bounded by the expansion frontier.  Nothing is expanded at
    construction: the sigma^j image table is built lazily by chunks(), and
    the image lengths and the prolongability check come from the incidence
    analysis cached on sigma, shared by every stream over the same sigma.
    """

    def __init__(self, sys: ProlongableSystem, which: str = "y"):
        if which not in ("y", "x"):
            raise ValueError("which must be 'y' or 'x'")
        sys.require_prolongable()
        self.sys = sys
        self.which = which
        self._ycache = sys.alphabet.char(sys.start)
        self._xcache = None
        if which == "x":
            self._xcache = sys.effective_phi.apply(self._ycache)
        # translate tables of sigma^j (level j) and their longest image
        self._levels: list[dict[int, str]] = []
        self._longest: list[int] = []
        self._levels_done = False

    # -- bulk prefixes ---------------------------------------------------------

    def prefix_chars(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        if self.which == "y":
            self._grow_y(n)
            return self._ycache[:n]
        guard = 0
        while len(self._xcache) < n:
            before = len(self._ycache)
            self._grow_y(max(2 * len(self._ycache), 16))
            self._xcache = self.sys.effective_phi.apply(self._ycache)
            guard += len(self._ycache) - before
            if len(self._xcache) < n and guard > _ERASE_GUARD + (n << 4):
                raise BudgetExhausted(
                    "outer morphism erases too much; x prefix did not reach "
                    f"{n} letters after expanding {len(self._ycache)} inner letters"
                )
        return self._xcache[:n]

    def prefix(self, n: int) -> list[str]:
        word = self.prefix_chars(n)
        alpha = self.sys.alphabet if self.which == "y" else self.sys.target_alphabet
        return alpha.decode(word)

    def _grow_y(self, n: int):
        while len(self._ycache) < n:
            self._ycache = self.sys.sigma.apply(self._ycache)

    # -- streaming -------------------------------------------------------------

    def _deepest_level(self, k: int) -> int:
        """Deepest table level j with 1 <= j <= k, building levels on demand.

        Level 1 is sigma itself; a level j >= 2 is built only while every
        sigma^j image has at most _CHUNK letters.
        """
        levels = self._levels
        sigma = self.sys.sigma
        if not levels:
            levels.append(dict(zip(map(ord, sigma.src.chars), sigma.images)))
            self._longest.append(sigma.max_image_len)
        while len(levels) < k and not self._levels_done:
            j = len(levels) + 1
            longest = max(self.sys.incidence.lengths_after(j))
            if j > _MAX_LEVEL or longest > _CHUNK:
                self._levels_done = True
                break
            levels.append({o: sigma.apply(w) for o, w in levels[-1].items()})
            self._longest.append(longest)
        return min(k, len(levels))

    def _pieces(self, w: str, k: int) -> Iterator[str]:
        """sigma^k(w) as consecutive pieces of at most _CHUNK letters, longer
        only where a single image of sigma is."""
        if k == 0:
            for i in range(0, len(w), _CHUNK):
                yield w[i : i + _CHUNK]
            return
        j = self._deepest_level(k)
        table = self._levels[j - 1]
        step = max(1, _CHUNK // max(self._longest[j - 1], 1))
        for part in [w] if j == k else self._pieces(w, k - j):
            for i in range(0, len(part), step):
                yield part[i : i + step].translate(table)

    def chunks(self) -> Iterator[str]:
        """The sequence as a concatenation of non-empty string chunks, each
        the image of a window of at least _CHUNK letters of y."""
        phi = self.sys.effective_phi if self.which == "x" else None
        guard = 0
        for raw in self._y_windows():
            out = phi.apply(raw) if phi is not None else raw
            if out:
                guard = 0
                yield out
            else:
                guard += len(raw)
                if guard > _ERASE_GUARD:
                    raise BudgetExhausted(
                        "outer morphism erased every letter for too long a stretch"
                    )

    def _y_windows(self) -> Iterator[str]:
        """y as windows of at least _CHUNK letters."""
        buf = [self.sys.alphabet.char(self.sys.start)]
        size = 1
        u = self.sys.sigma.image(self.sys.start)[1:]
        level = 0
        while True:
            for piece in self._pieces(u, level):
                buf.append(piece)
                size += len(piece)
                if size >= _CHUNK:
                    yield "".join(buf)
                    buf = []
                    size = 0
            level += 1

    def letters(self) -> Iterator[str]:
        """Letter tokens, one at a time (streaming)."""
        alpha = self.sys.alphabet if self.which == "y" else self.sys.target_alphabet
        for chunk in self.chunks():
            for ch in chunk:
                yield alpha.token_of_char(ch)

    # -- scanning ---------------------------------------------------------------

    def scan_occurrences(
        self, pattern: str, limit: int, max_count: int | None = None
    ) -> list[int]:
        """Start positions i with i + |pattern| <= limit, ascending."""
        if not pattern:
            raise ValueError("pattern must be non-empty")
        m = len(pattern)
        if m > limit:
            return []
        out: list[int] = []
        if limit <= _CHUNK:  # within one chunk: the cached prefix is cheaper
            text = self.prefix_chars(limit)
            pos = text.find(pattern)
            while pos != -1 and (max_count is None or len(out) < max_count):
                out.append(pos)
                pos = text.find(pattern, pos + 1)
            return out
        carry = ""
        offset = 0  # global index of carry[0]
        produced = 0
        for chunk in self.chunks():
            window = carry + chunk
            produced += len(chunk)
            hi = len(window)
            if produced >= limit:
                hi -= produced - limit  # do not scan past the limit
            pos = window.find(pattern, 0, hi)
            while pos != -1:
                out.append(offset + pos)
                if max_count is not None and len(out) >= max_count:
                    return out
                pos = window.find(pattern, pos + 1, hi)
            if produced >= limit:
                break
            keep = min(m - 1, len(window))
            carry = window[len(window) - keep :] if keep else ""
            offset += len(window) - keep
        return out


def prefix(sys: ProlongableSystem, n: int, which: str = "y") -> list[str]:
    """First n letters of y = sigma^inf(a) or x = phi(y)."""
    return FixedPointStream(sys, which).prefix(n)


def occurrences(
    sys: ProlongableSystem, u: list[str], limit: int, which: str = "x"
) -> list[int]:
    """All start positions of the word u in the first `limit` letters."""
    if not u:
        raise ValueError("pattern must be non-empty")
    stream = FixedPointStream(sys, which)
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    return stream.scan_occurrences(alpha.encode(u), limit)


@dataclass(frozen=True)
class MaxGapResult:
    gap: int
    witness: tuple[int, int]  # successive occurrence positions achieving it


def max_gap(sys: ProlongableSystem, u: list[str], limit: int, which: str = "x"):
    """Largest distance between successive occurrences of u within the limit.

    Returns a MaxGapResult, or a NotEnoughOccurrences signal (not raised)
    when fewer than two occurrences exist in range.
    """
    occ = occurrences(sys, u, limit, which)
    if len(occ) < 2:
        return NotEnoughOccurrences(len(occ))
    best = 0
    pair = (occ[0], occ[1])
    for i in range(1, len(occ)):
        gap = occ[i] - occ[i - 1]
        if gap > best:
            best = gap
            pair = (occ[i - 1], occ[i])
    return MaxGapResult(best, pair)


# -- factor language ---------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityResult:
    count: int
    factors: frozenset[tuple[str, ...]]
    exact: bool


def two_factor_closure(sys: ProlongableSystem) -> tuple[set[str], int]:
    """All length-2 factors of y, by closing {y[0:2]} under pair -> factors of
    its image, plus the closure depth: every factor occurs in sigma^depth
    applied to the first two letters.  Exact when every letter grows."""
    seed = FixedPointStream(sys, "y").prefix_chars(2)
    seen = {seed: 0}
    frontier = [seed]
    sigma = sys.sigma
    while frontier:
        nxt = []
        for pair in frontier:
            w = sigma.apply(pair)
            for i in range(len(w) - 1):
                f = w[i : i + 2]
                if f not in seen:
                    seen[f] = seen[pair] + 1
                    nxt.append(f)
        frontier = nxt
    return set(seen), max(seen.values())


def _inner_language(sys: ProlongableSystem, n: int) -> set[str]:
    """Exact L_n(y) for growing sigma via bounded windows over two-letter seeds.

    With t minimal such that every |sigma^t(b)| >= n, each n-factor starts
    inside sigma^t(c) for a pair cd and ends inside sigma^t(cd).  Windows
    starting inside sigma^t(d) are taken with the pair that starts with d
    (one exists: y is infinite), so each pair contributes only the windows
    starting in its first image.
    """
    if n == 0:
        return {""}
    pairs, _ = two_factor_closure(sys)
    if n == 1:
        return {c for p in pairs for c in p}
    inc = sys.incidence
    t = 1
    while min(inc.lengths_after(t)) < n:
        t += 1
    from .morphism import power

    sig_t = power(sys.sigma, t)
    head = dict(zip(sys.alphabet.chars, inc.lengths_after(t)))
    out: set[str] = set()
    for p in pairs:
        w = sig_t.apply(p)
        out.update(w[i : i + n] for i in range(head[p[0]]))
    return out


def complexity(
    sys: ProlongableSystem,
    n: int,
    which: str = "y",
    prefix_length: int | None = None,
) -> ComplexityResult:
    """Factor count p(n) with the factor set itself.

    Exact when every letter of sigma grows (and, for the outer sequence, phi
    is non-erasing): every length-n factor then sits inside the image of a
    two-letter factor under a sufficient power of sigma.  Otherwise the count
    is a lower bound from a plain prefix scan of prefix_length letters.
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    if n == 0:
        return ComplexityResult(1, frozenset({()}), True)
    phi = sys.effective_phi
    growing = True
    try:
        growing = sys.incidence.all_growing()
    except PreconditionViolated:
        growing = False

    if growing and (which == "y" or phi.is_non_erasing):
        if which == "y":
            lang = _inner_language(sys, n)
        else:
            lang = set()
            for w in _inner_language(sys, n + 1):
                img = phi.apply(w)
                for i in range(len(img) - n + 1):
                    lang.add(img[i : i + n])
        factors = frozenset(tuple(alpha.decode(w)) for w in lang)
        return ComplexityResult(len(factors), factors, True)

    length = prefix_length if prefix_length is not None else 1 << 15
    word = FixedPointStream(sys, which).prefix_chars(length)
    lang = factor_set(word, n)
    factors = frozenset(tuple(alpha.decode(w)) for w in lang)
    return ComplexityResult(len(factors), factors, False)


def factor_language(
    sys: ProlongableSystem, n: int, which: str = "y", budget: int = 1 << 22
) -> frozenset[str]:
    """Exact set of length-n factors as internal strings, for any non-erasing
    sigma (growing or not).

    Closure argument: an n-window of sigma(Z) is covered by sigma applied to
    an n-window of Z when sigma is non-erasing, so saturating "factors of
    sigma(V)" from the factors of a long enough prefix reaches every factor
    of the fixed point.  The x-side set is the coding image of the y-side.
    """
    if n <= 0:
        return frozenset({""})
    sigma = sys.sigma
    if sigma.is_erasing:
        raise PreconditionViolated("exact factor sets need a non-erasing sigma")
    # seed with a full sigma^T(a), T minimal with |sigma^T(a)| >= n
    seed = sys.alphabet.char(sys.start)
    while len(seed) < n:
        grown = sigma.apply(seed)
        if len(grown) > budget:
            raise BudgetExhausted("factor closure seed exceeded its budget")
        if len(grown) == len(seed):
            break  # degenerate fixed word shorter than n
        seed = grown
    seen = set(factor_set(seed, n))
    frontier = list(seen)
    spent = 0
    while frontier:
        nxt = []
        for v in frontier:
            w = sigma.apply(v)
            spent += len(w)
            if spent > budget:
                raise BudgetExhausted("factor closure exceeded its budget")
            for f in factor_set(w, n):
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    if which == "x":
        phi = sys.effective_phi
        if not phi.is_coding and sys.phi is not None:
            raise PreconditionViolated("x-side factor sets need phi to be a coding")
        return frozenset(phi.apply(w) for w in seen)
    return frozenset(seen)
