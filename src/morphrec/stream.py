"""Lazy generation of y = sigma^inf(a) and x = phi(y), plus factor analysis.

factor_language is the one routine that builds an exact set of n-factors,
of y or of x, with no prefix: a closure under sigma for n <= 2 or a
bounded letter, and otherwise the n-windows of the images of the
2-factors under one power of sigma.  complexity counts its set where it is
exact, and the constant sheet's p(K+1) is its size.

Every read of the fixed point goes through one prefix cache, shared by
every reader: y's cache belongs to the pair (sigma, a) and is held on
sigma, as its incidence analysis is, so every system built on sigma with
start letter a reads it; x's cache belongs to the system and grows from
that y cache (x is y itself when there is no phi).  The y cache
decomposes y as a . u . sigma(u) . sigma^2(u) ... where sigma(a) = a u,
keeps sigma^k(a) with the offsets of its blocks, and grows it one
translated block sigma^k(u) at a time: from the block before while that
one has fewer than _CHUNK letters, and after it from the block j levels
earlier through the deepest sigma^j table, since str.translate with
multi-letter images pays for every letter it reads.  The table is built one
level at a time when the cache first needs it, and never past the level
whose images, known in advance from the image lengths of sigma's shared
incidence analysis, would exceed _CHUNK letters.  The x cache grows by the
phi-image of the y letters it has not yet mapped, up to the first
sigma^k(a) twice as long.  A scan holds the whole prefix it reads, so
every scan states its own bound: returns.SCAN_LETTERS for the E1 scans.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import BudgetExhausted, NotEnoughOccurrences, PreconditionViolated
from .morphism import Morphism
from .system import ProlongableSystem
from .words import factor_set, occurrences_in_word

_CHUNK = 4096
_MAX_LEVEL = 64  # deepest table level, for letters whose images grow slowly
_ERASE_GUARD = 1 << 22  # y letters consumed without x progress before giving up
_CLOSURE_BUDGET = 1 << 22  # letters factor_language may expand
_COMPLEXITY_PREFIX = 1 << 15  # letters complexity scans when it cannot be exact


class FixedPointCache:
    """The prefix sigma^k(a) of y = sigma^inf(a) grown so far, for one sigma
    and start letter a; Morphism.fixed_points holds one per start letter.
    Each call passes sigma in, so the cache holds no reference back to it:
    sigma and its caches make no cycle, and are freed together."""

    def __init__(self, sigma: Morphism, start: str):
        self.start = start
        self.text = sigma.src.char(start)
        # y = a u sigma(u) sigma^2(u) ...: the text is sigma^k(a), and these
        # the offsets of its blocks sigma^i(u), i < k
        self.starts: list[int] = []
        # translate tables of sigma^j (level j)
        self.levels: list[dict[int, str]] = []
        self.levels_done = False

    def grow(self, sigma: Morphism, n: int) -> int:
        """Extend the text sigma^k(a) to the first such prefix with at least
        n letters, translating only the new block sigma^k(u) at each level:
        translating the whole text costs time quadratic in n when y grows
        slowly (one letter per level for a -> a b, b -> b).  Once the last
        block has _CHUNK letters, the next one is sigma^j of the block j
        levels earlier, through the deepest table of _deepest_level.
        Returns the length of the first sigma^k(a) with at least n letters."""
        text, starts = self.text, self.starts
        parts = [text]
        size = len(text)
        old = len(starts)  # blocks from `old` on are in parts[1:]
        while size < n:
            k = len(starts)
            if k == 0:
                new = sigma.image(self.start)[1:]
            elif size - starts[-1] < _CHUNK:
                new = sigma.apply(parts[-1] if k > old else text[starts[-1] :])
            else:
                j = self._deepest_level(sigma, k)
                i = k - j
                if i >= old:
                    block = parts[i - old + 1]
                else:
                    block = text[starts[i] : starts[i + 1] if i + 1 < old else len(text)]
                new = block.translate(self.levels[j - 1])
            starts.append(size)
            parts.append(new)
            size += len(new)
        if len(parts) > 1:
            self.text = "".join(parts)
        # starts[i] = |sigma^i(a)|, and the text is sigma^len(starts)(a)
        i = bisect_left(starts, n)
        return starts[i] if i < len(starts) else size

    def _deepest_level(self, sigma: Morphism, k: int) -> int:
        """Deepest table level j with 1 <= j <= k, building levels on demand.

        Level 1 is sigma's own translate table; a level j >= 2 is built only
        while every sigma^j image has at most _CHUNK letters.
        """
        levels = self.levels
        if not levels:
            levels.append(sigma._table)
        while len(levels) < k and not self.levels_done:
            j = len(levels) + 1
            longest = max(sigma.incidence.lengths_after(j))
            if j > _MAX_LEVEL or longest > _CHUNK:
                self.levels_done = True
                break
            levels.append({o: sigma.apply(w) for o, w in levels[-1].items()})
        return min(k, len(levels))


class ImageCache:
    """The prefix phi(y[:read]) of x, for one system with an outer morphism;
    ProlongableSystem.x_cache holds it."""

    def __init__(self, text: str, read: int):
        self.text = text
        self.read = read


class FixedPointStream:
    """Reader of y = sigma^inf(a) or x = phi(y) through the shared caches.

    prefix_chars() and prefix() read y's cache on sigma, or x's cache on
    the system, so every stream over the same fixed point reads the letters
    any of them has grown, and memory is O(n) in the longest prefix read.
    Nothing is expanded at construction: the sigma^j image table is built
    as the cache grows, and the image lengths and the prolongability check
    come from the incidence analysis cached on sigma.
    """

    def __init__(self, sys: ProlongableSystem, which: str = "y"):
        if which not in ("y", "x"):
            raise ValueError("which must be 'y' or 'x'")
        caches = sys.sigma.fixed_points
        if sys.start not in caches:
            sys.require_prolongable()
            caches[sys.start] = FixedPointCache(sys.sigma, sys.start)
        self.sys = sys
        self.which = which
        self._y = caches[sys.start]
        # without phi, x is y itself
        self._x = sys.x_cache if which == "x" and sys.phi is not None else None

    # -- bulk prefixes ---------------------------------------------------------

    def prefix_chars(self, n: int) -> str:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        sigma, y, x = self.sys.sigma, self._y, self._x
        if x is None:
            y.grow(sigma, n)
            return y.text[:n]
        guard = 0
        phi = self.sys.phi
        while len(x.text) < n:
            before = x.read
            end = y.grow(sigma, max(2 * before, 16))
            # phi(uv) = phi(u) phi(v): only the new letters of y are mapped
            x.text += phi.apply(y.text[before:end])
            x.read = end
            guard += end - before
            if len(x.text) < n and guard > _ERASE_GUARD + (n << 4):
                raise BudgetExhausted(
                    "outer morphism erases too much; x prefix did not reach "
                    f"{n} letters after expanding {end} inner letters"
                )
        return x.text[:n]

    def prefix(self, n: int) -> list[str]:
        word = self.prefix_chars(n)
        alpha = self.sys.alphabet if self.which == "y" else self.sys.target_alphabet
        return alpha.decode(word)


def prefix(sys: ProlongableSystem, n: int, which: str = "y") -> list[str]:
    """First n letters of y = sigma^inf(a) or x = phi(y)."""
    return FixedPointStream(sys, which).prefix(n)


def occurrences(
    sys: ProlongableSystem, u: list[str], limit: int, which: str = "x"
) -> list[int]:
    """All start positions of the word u in the first `limit` letters, read
    off the prefix cache, which holds those letters."""
    if not u:
        raise ValueError("pattern must be non-empty")
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    text = FixedPointStream(sys, which).prefix_chars(limit)
    return occurrences_in_word(text, alpha.encode(u))


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


def complexity(sys: ProlongableSystem, n: int, which: str = "y") -> ComplexityResult:
    """Factor count p(n) with the factor set itself.

    Exact when every letter of sigma grows (and, for the outer sequence, phi
    is non-erasing): the set is then factor_language's.  Otherwise the count
    is a lower bound from a plain prefix scan of _COMPLEXITY_PREFIX letters.
    """
    if n < 0:
        raise ValueError("factor length must be >= 0")
    alpha = sys.alphabet if which == "y" else sys.target_alphabet
    if n == 0:
        return ComplexityResult(1, frozenset({()}), True)
    try:
        growing = sys.incidence.all_growing()
    except PreconditionViolated:
        growing = False
    exact = growing and (which == "y" or sys.effective_phi.is_non_erasing)
    if exact:
        lang = factor_language(sys, n, which)
    else:
        lang = factor_set(FixedPointStream(sys, which).prefix_chars(_COMPLEXITY_PREFIX), n)
    factors = frozenset(tuple(alpha.decode(w)) for w in lang)
    return ComplexityResult(len(factors), factors, exact)


def factor_language(sys: ProlongableSystem, n: int, which: str = "y") -> frozenset[str]:
    """Exact set of length-n factors as internal strings, for any non-erasing
    sigma (growing or not) and, on the x side, any non-erasing phi.

    For n <= 2, or when a letter of sigma is bounded, L_n(y) is _closure's.
    When every letter grows, take t least with |sigma^t(b)| >= n for every
    letter b of y: as y = sigma^t(y), each n-factor lies inside one image
    sigma^t(c) or across the junction of sigma^t(cd) for a 2-factor cd.
    When those images, over every power up to t, would pass _CLOSURE_BUDGET
    letters, the closure serves instead.  L_n(x) is the n-windows of phi(w)
    over w in L_n(y): each letter of y gives x at least one letter, so every
    n-factor of x lies in the image of the n-factor of y where it starts.
    """
    if n <= 0:
        return frozenset({""})
    if sys.sigma.is_erasing:
        raise PreconditionViolated("exact factor sets need a non-erasing sigma")
    phi = sys.phi
    if which == "x" and phi is not None:
        if phi.is_erasing:
            raise PreconditionViolated("x-side factor sets need a non-erasing phi")
        return frozenset(
            v[i : i + n]
            for v in map(phi.apply, factor_language(sys, n))
            for i in range(len(v) - n + 1)
        )
    if n <= 2 or not sys.incidence.all_growing():
        return frozenset(_closure(sys, n))
    pairs = _closure(sys, 2)
    letters = {b for p in pairs for b in p}  # the letters of y
    index = [i for i, b in enumerate(sys.alphabet.chars) if b in letters]
    lengths = sys.incidence.lengths_after
    t = 1
    while min(lengths(t)[i] for i in index) < n:
        t += 1
    if sum(lengths(k)[i] for k in range(1, t + 1) for i in index) > _CLOSURE_BUDGET:
        return frozenset(_closure(sys, n))
    images = dict(zip(letters, letters))
    for _ in range(t):
        images = {b: sys.sigma.apply(w) for b, w in images.items()}
    out: set[str] = set()
    for w in images.values():
        out |= factor_set(w, n)
    for c, d in pairs:
        out |= factor_set(images[c][1 - n :] + images[d][: n - 1], n)
    return frozenset(out)


def _closure(sys: ProlongableSystem, n: int) -> set[str]:
    """L_n(y) for n >= 1 and a non-erasing sigma by closure: an n-window of
    sigma(Z) is covered by sigma applied to an n-window of Z, so saturating
    "factors of sigma(V)" from the factors of a long enough prefix reaches
    every factor of the fixed point.  The seed and the closure may each
    expand _CLOSURE_BUDGET letters."""
    sigma = sys.sigma
    # seed with a full sigma^T(a), T minimal with |sigma^T(a)| >= n; iterates
    # shorter than n that repeat (a fixed word, or a cycle of one-letter
    # images) never reach n letters
    seed = sys.alphabet.char(sys.start)
    seeds = {seed}
    while len(seed) < n:
        seed = sigma.apply(seed)
        if len(seed) > _CLOSURE_BUDGET:
            raise BudgetExhausted("factor closure seed exceeded its budget")
        if seed in seeds:
            break
        seeds.add(seed)
    seen = set(factor_set(seed, n))
    frontier = list(seen)
    spent = 0
    while frontier:
        nxt = []
        for v in frontier:
            w = sigma.apply(v)
            spent += len(w)
            if spent > _CLOSURE_BUDGET:
                raise BudgetExhausted("factor closure exceeded its budget")
            for f in factor_set(w, n):
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return seen
