"""Exact incidence-matrix analysis.

Everything here is exact: matrices are arbitrary-precision integers,
spectral radii are algebraic-number handles (square-free integer polynomial
plus an isolating rational interval), and all derived constants are
Fractions rounded outward where an over-approximation is safe.

Whether a letter grows, and whether a matrix is primitive, are read off the
letter graph without any spectral radius.  Each strongly connected component
(SCC) of the graph has one of three radius classes: 0 for a trivial SCC (one
letter, no self-loop); exactly 1 for a cyclic permutation block, where every
letter's image holds exactly one letter of the SCC, exactly once; above 1
otherwise, since an irreducible non-negative matrix whose column sums are
all >= 1 and not all equal to 1 has spectral radius above 1
(Perron-Frobenius).  A letter grows iff it reaches an SCC of radius above 1
or some path from it passes two cycle SCCs.  The graph is kept as one
successor bitmask per letter, and IncidenceStructure reads every one of
these facts in one pass: Tarjan's algorithm emits the SCCs sinks first, and
one sweep over them in that order gives each SCC its edges, reach mask,
period, radius class and growing flag from the SCCs it reaches.
Primitivity, the least positive power and the positivity of a given power
depend only on the zero pattern, so they are computed over the Booleans,
rows as bitmasks.  Perron values are computed only where their digits are
printed or enter a constant: growth types, and the envelopes of systems
with several SCCs.  They come from integer polynomials: the characteristic
polynomial by Berkowitz's division-free algorithm, its square-free part by a
Euclidean gcd over the rationals, and root counts from Sturm sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress
from operator import and_, mul
from typing import TYPE_CHECKING, Sequence

from .errors import NotPrimitive, PreconditionViolated
from .words import Alphabet

if TYPE_CHECKING:
    from .morphism import Morphism

Matrix = tuple[tuple[int, ...], ...]


# -- integer matrix helpers ----------------------------------------------------


def mat_from(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_pow(m: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix power")
    result = mat_identity(len(m))
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def _bool_row_times(row: int, pattern: list[int]) -> int:
    """Row bitmask times a 0/1 matrix given as row bitmasks."""
    out = 0
    l = 0
    while row:
        if row & 1:
            out |= pattern[l]
        row >>= 1
        l += 1
    return out


def _zero_pattern(matrix: Sequence[Sequence[int]]) -> list[int]:
    """Rows of a non-negative matrix as bitmasks of their positive entries."""
    return [sum(1 << j for j, v in enumerate(row) if v > 0) for row in matrix]


def horn_exponent(matrix: Sequence[Sequence[int]]) -> int:
    """Least k with matrix^k entrywise positive; k <= d^2 - 2d + 2 or NotPrimitive.

    Positivity of a power of a non-negative matrix depends only on its zero
    pattern, so the powers are taken over the Booleans, rows as bitmasks.
    """
    pattern = _zero_pattern(matrix)
    d = len(pattern)
    full = (1 << d) - 1
    bound = d * d - 2 * d + 2
    acc = pattern
    for k in range(1, bound + 1):
        if all(row == full for row in acc):
            return k
        acc = [_bool_row_times(row, pattern) for row in acc]
    raise NotPrimitive(f"no positive power up to the d^2-2d+2 = {bound} bound")


def power_is_positive(matrix: Sequence[Sequence[int]], k: int) -> bool:
    """Whether matrix^k is entrywise positive, for a non-negative matrix and
    k >= 0; like horn_exponent, the power is taken over the Booleans on the
    zero pattern's bitmask rows, here by repeated squaring."""
    pattern = _zero_pattern(matrix)
    d = len(pattern)
    result = [1 << i for i in range(d)]
    base = pattern
    while k:
        if k & 1:
            result = [_bool_row_times(row, base) for row in result]
        k >>= 1
        if k:
            base = [_bool_row_times(row, base) for row in base]
    return all(row == (1 << d) - 1 for row in result)


def is_primitive(matrix: Sequence[Sequence[int]]) -> bool:
    try:
        horn_exponent(matrix)
        return True
    except NotPrimitive:
        return False


# -- polynomials ----------------------------------------------------------------
# Coefficient sequences run from the highest degree down; Fractions or ints.


def _sign(p: Sequence, x: Fraction) -> int:
    """Sign of p(x), read off the integer den^deg * p(num / den)."""
    acc, scale = 0, 1
    for c in p:
        acc = acc * x.numerator + c * scale
        scale *= x.denominator
    return (acc > 0) - (acc < 0)


def _charpoly(m: Sequence[Sequence]) -> list:
    """det(xI - m) by Berkowitz's division-free algorithm: each leading row
    and column folds in through the Toeplitz column (1, -a, -R C, -R S C,
    ...), where S is the trailing block already done."""
    n = len(m)
    poly = [1, -m[-1][-1]]
    for k in range(n - 2, -1, -1):
        row, col = m[k][k + 1 :], [m[i][k] for i in range(k + 1, n)]
        toeplitz = [1, -m[k][k]]
        for _ in range(n - k - 1):
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(m[i][k + 1 :], col)) for i in range(k + 1, n)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(min(i + 1, len(poly))))
            for i in range(len(toeplitz))
        ]
    return poly


def _divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder over the rationals; b has a non-zero leading
    coefficient, and the remainder has none that is zero."""
    rem = [Fraction(c) for c in a]
    quo = []
    while len(rem) >= len(b):
        c = rem[0] / b[0]
        quo.append(c)
        for i in range(1, len(b)):
            rem[i] -= c * b[i]
        del rem[0]
    while rem and rem[0] == 0:
        del rem[0]
    return quo, rem


def _derivative(p: Sequence) -> list:
    return [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]


def _gcd(a: Sequence, b: Sequence) -> Sequence:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _integral(p: Sequence) -> list[int]:
    """p times the positive rational that makes it a primitive integer polynomial."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    ints = [int(c * den) for c in p]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _squarefree(p: Sequence) -> tuple[int, ...]:
    """Square-free primitive integer polynomial with positive leading
    coefficient and the same roots as p, which has degree >= 1."""
    ints = _integral(_divmod(p, _gcd(p, _derivative(p)))[0])
    return tuple(ints if ints[0] > 0 else [-c for c in ints])


def _sturm(p: Sequence) -> list[list[int]]:
    """Sturm sequence of a square-free p: p, p', then negated remainders,
    each scaled by a positive rational onto integers."""
    chain = [_integral(p), _integral(_derivative(p))]
    while chain[-1]:
        chain.append(_integral([-c for c in _divmod(chain[-2], chain[-1])[1]]))
    return chain[:-1]


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [v for v in (_sign(q, x) for q in chain) if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _count_roots(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of chain[0] in [lo, hi] (Sturm's theorem counts (lo, hi])."""
    return _variations(chain, lo) - _variations(chain, hi) + (_sign(chain[0], lo) == 0)


# -- algebraic number handles ----------------------------------------------------


@dataclass(frozen=True)
class PerronValue:
    """A real algebraic number: defining polynomial + isolating rational interval.

    Invariant: either lo == hi and the value is exactly that rational, or
    the polynomial has exactly one root in [lo, hi] and changes sign there.
    Structural equality (==) compares representations; use cmp() for the
    mathematical order.
    """

    coeffs: tuple[int, ...]  # highest degree first; square-free, primitive, LC > 0
    lo: Fraction
    hi: Fraction

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(q) -> "PerronValue":
        q = Fraction(q)
        return PerronValue((q.denominator, -q.numerator), q, q)

    @staticmethod
    def of_matrix(rows: Sequence[Sequence[int]]) -> "PerronValue":
        """Spectral radius of a non-negative integer matrix (largest real root
        theta of its characteristic polynomial).

        The interval is canonical: exact when theta is an integer, else
        [floor(theta), floor(theta) + 1] when no other root lies in it, else
        the first dyadic half-interval around theta that holds no other root.
        A 1x1 matrix is read off at once: its one root is its entry.
        """
        if len(rows) == 1:
            return PerronValue.from_rational(rows[0][0])
        coeffs = _squarefree(_charpoly(mat_from(rows)))
        chain = _sturm(coeffs)
        # the poly is monic: every root lies strictly inside its Cauchy bound
        hi = 1 + max(abs(c) for c in coeffs[1:])
        lo = -hi
        if not _count_roots(chain, lo, hi):
            raise PreconditionViolated("matrix has no real eigenvalue")
        while hi - lo > 1:  # theta in [lo, hi), no root at or above hi
            mid = (lo + hi) // 2
            if _count_roots(chain, mid, hi):
                lo = mid
            else:
                hi = mid
        lo, hi = Fraction(lo), Fraction(hi)
        if _variations(chain, lo) == _variations(chain, hi):  # no root in (lo, hi]
            return PerronValue(coeffs, lo, lo)
        # theta is irrational (rational roots of a monic integer poly are
        # integers), so no midpoint hits it
        while _count_roots(chain, lo, hi) > 1:
            mid = (lo + hi) / 2
            if _variations(chain, mid) > _variations(chain, hi):
                lo = mid
            else:
                hi = mid
        return PerronValue(coeffs, lo, hi)

    # -- refinement ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refined(self, eps: Fraction) -> "PerronValue":
        """A handle for the same number with interval width <= eps (bisection)."""
        if eps <= 0:
            raise ValueError("refinement width must be positive")
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        flo = _sign(self.coeffs, lo)
        while hi - lo > eps:
            mid = (lo + hi) / 2
            fmid = _sign(self.coeffs, mid)
            if fmid == 0:
                return PerronValue(self.coeffs, mid, mid)
            if fmid == flo:
                lo = mid
            else:
                hi = mid
        return PerronValue(self.coeffs, lo, hi)

    # -- order ---------------------------------------------------------------

    def cmp(self, other: "PerronValue") -> int:
        """-1, 0, or +1; exact trichotomy.

        Equal handles denote one number (an isolating interval has a single
        root), and a rational is placed against an interval by the sign of
        the polynomial there, so only two irrational values reach the
        common-factor test of _cmp_general.
        """
        a, b = self, other
        if a == b:
            return 0
        if a.is_exact and b.is_exact:
            return (a.lo > b.lo) - (a.lo < b.lo)
        if b.is_exact:
            return a._cmp_rational_exact(b.lo)
        if a.is_exact:
            return -b._cmp_rational_exact(a.lo)
        return a._cmp_general(b)

    def _cmp_general(self, other: "PerronValue") -> int:
        """Trichotomy for any two handles: refine both intervals until they
        separate, or until the common factor of the polynomials has a root
        where they overlap."""
        a, b = self, other
        common = None
        while True:
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            if common is None:
                common = _sturm(_gcd(a.coeffs, b.coeffs))
            if _count_roots(common, max(a.lo, b.lo), min(a.hi, b.hi)):
                return 0
            width_a = a.hi - a.lo
            width_b = b.hi - b.lo
            target = max(width_a, width_b) / 4 or Fraction(1, 16)
            a = a.refined(target)
            b = b.refined(target)

    def _cmp_rational_exact(self, q: Fraction) -> int:
        """Order against the rational q for a handle with lo < hi: the root
        is the only sign change of the polynomial in [lo, hi]."""
        if q < self.lo:
            return 1
        if q > self.hi:
            return -1
        fq = _sign(self.coeffs, q)
        if fq == 0:
            return 0
        flo = _sign(self.coeffs, self.lo)
        if flo == 0:  # the root is lo itself
            return (self.lo > q) - (self.lo < q)
        # same sign as at lo: no root in [lo, q], so the root lies above q
        return 1 if fq == flo else -1

    def eq(self, other: "PerronValue") -> bool:
        return self.cmp(other) == 0

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)


def compare_perron(p: PerronValue, q: PerronValue) -> str:
    """Exact trichotomy as one of '<', '=', '>'."""
    return {-1: "<", 0: "=", 1: ">"}[p.cmp(q)]


_ONE = PerronValue.from_rational(1)


# -- growth types ------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthType:
    """Pair (d, theta): image lengths scale like n^d * theta^n."""

    d: int
    theta: PerronValue

    def eq(self, other: "GrowthType") -> bool:
        return self.d == other.d and self.theta.eq(other.theta)

    def is_non_growing(self) -> bool:
        return self.d == 0 and self.theta.eq(_ONE)


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition into cyclicity-class blocks; diagonal blocks of M^r_sigma are
    primitive or zero; block order is compatible with reachability (a letter's
    image only uses letters from its own or later blocks)."""

    blocks: tuple[tuple[str, ...], ...]  # letter tokens per block
    r_sigma: int
    flags: tuple[str, ...]  # 'primitive' | 'zero' per block
    closed: tuple[bool, ...]  # block images stay inside the block


# radius classes of an SCC (see the module docstring)
RADIUS_ZERO = 0
RADIUS_ONE = 1
RADIUS_ABOVE_ONE = 2


def letter_bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def image_masks(sigma: "Morphism") -> list[int]:
    """Per letter of an endomorphism, the letters of its image as a bitmask:
    bit i stands for the i-th letter of the alphabet."""
    bit = dict(zip(sigma.src.chars, map((1).__lshift__, range(len(sigma.images)))))
    return [sum(map(bit.__getitem__, set(img))) for img in sigma.images]


def reach_mask(succ: Sequence[int], seed: int) -> int:
    """The letters reachable from those of the bitmask seed, seed included,
    over the successor masks succ."""
    reach = todo = seed
    while todo:
        low = todo & -todo
        todo ^= low
        new = succ[low.bit_length() - 1] & ~reach
        reach |= new
        todo |= new
    return reach


def _period_levels(succ: Sequence[int], start: int, mask: int) -> tuple[int, dict[int, int]]:
    """The period of the non-trivial SCC with letter bitmask mask, and the
    BFS level of each of its letters from its letter start: the period is
    the gcd of level[v] + 1 - level[w] over the SCC's edges v -> w."""
    level = {start: 0}
    order = [start]
    g = 0
    for v in order:  # grows while it is read
        lv = level[v] + 1
        for w in letter_bits(succ[v] & mask):
            lw = level.get(w)
            if lw is None:
                level[w] = lv
                order.append(w)
            else:
                g = math.gcd(g, lv - lw)
    return g or 1, level


class IncidenceStructure:
    """Incidence matrix of an endomorphism with its SCC condensation.

    matrix[i][j] counts occurrences of letter i in the image of letter j.
    The letter graph has an edge j -> i when matrix[i][j] > 0; SCCs are
    listed in topological order, sources first, so closed SCCs come last.

    Everything the letter graph tells is computed once, when the structure
    is built.  The graph is one successor bitmask per letter.  Its SCCs come
    from Tarjan's algorithm, roots and successors taken in letter order.
    Tarjan emits an SCC only after every SCC it reaches, so one sweep over
    the SCCs in that order reads each SCC's data off the SCCs it reaches:
    its edges, reach mask, period (with the BFS levels the block
    decomposition splits it by), radius class (RADIUS_ZERO, RADIUS_ONE or
    RADIUS_ABOVE_ONE) and whether its letters grow.  From these is_growing,
    reachable_letters, reach_of and primitive_exponent answer without a
    Perron value, and block_decomposition keeps its result on the
    structure; growth_type computes the exact Perron values.
    """

    def __init__(self, alphabet: Alphabet, matrix: Matrix):
        n = len(alphabet)
        if len(matrix) != n or set(map(len, matrix)) - {n}:
            raise PreconditionViolated("incidence matrix must be square over the alphabet")
        self.alphabet = alphabet
        self.matrix = matrix
        self._columns = tuple(zip(*matrix))  # column b: letter counts of sigma(b)
        bits = list(map((1).__lshift__, range(n)))
        # bit i of _succ[j] is set when letter i occurs in the image of letter j
        self._succ = [sum(compress(bits, col)) for col in self._columns]
        self._condense(self._tarjan(), sum(map(and_, self._succ, bits)))
        self._perron_cache: dict[int, PerronValue] = {}
        self._growth_cache: dict[int, GrowthType] = {}
        self._lengths: list[list[int]] = [[1] * n]  # row k: |sigma^k(b)| per letter b
        self._pq: tuple[Fraction, Fraction] | None = None  # see pq_constants
        self._blocks: BlockDecomposition | None = None  # see block_decomposition

    @staticmethod
    def of_morphism(sigma: "Morphism") -> "IncidenceStructure":
        if not sigma.is_endomorphism:
            raise PreconditionViolated("incidence analysis needs an endomorphism")
        chars = sigma.src.chars
        columns = [tuple(map(img.count, chars)) for img in sigma.images]
        return IncidenceStructure(sigma.src, tuple(zip(*columns)))

    # -- SCC machinery --------------------------------------------------------

    def _tarjan(self) -> list[tuple[list[int], int]]:
        """The SCCs, sinks first, each as its sorted letters and their
        bitmask: iterative Tarjan, roots and successors in letter order."""
        succ = self._succ
        n = len(succ)
        index = [-1] * n
        low = [0] * n
        stack: list[int] = []
        on_stack = 0
        counter = 0
        found = []
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack |= 1 << root
            work = [[root, succ[root]]]  # a letter and its successors not yet taken
            while work:
                frame = work[-1]
                v, rest = frame
                while rest:
                    b = rest & -rest
                    rest ^= b
                    w = b.bit_length() - 1
                    if index[w] < 0:
                        break
                    if on_stack & b and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                    if low[v] == index[v]:
                        comp, mask = [], 0
                        while True:
                            w = stack.pop()
                            comp.append(w)
                            mask |= 1 << w
                            if w == v:
                                break
                        on_stack ^= mask
                        comp.sort()
                        found.append((comp, mask))
                    continue
                frame[1] = rest
                index[w] = low[w] = counter
                counter += 1
                stack.append(w)
                on_stack |= b
                work.append([w, succ[w]])
        return found

    def _condense(self, found: list[tuple[list[int], int]], loops: int):
        """Every per-SCC field, in one sweep over the SCCs sinks first, so
        each SCC's data is read off the SCCs it reaches; loops is the
        bitmask of the letters with a self-loop."""
        succ, columns = self._succ, self._columns
        k = len(found)
        sccs: list = [None] * k
        scc_of = [0] * len(succ)
        edges: list = [None] * k
        trivial = [False] * k
        radius = [RADIUS_ZERO] * k
        period = [1] * k
        levels: list[dict[int, int] | None] = [None] * k
        reach = [0] * k
        above = [False] * k  # reaches an SCC of radius above 1
        cycles = [0] * k  # most cycle SCCs on a path from the SCC, capped at 2
        grows: list[bool | None] = [None] * k
        sid = k
        for comp, mask in found:
            sid -= 1
            sccs[sid] = comp
            out = 0
            for v in comp:
                scc_of[v] = sid
                out |= succ[v]
            out &= ~mask
            nxt = edges[sid] = {scc_of[w] for w in letter_bits(out)} if out else set()
            r = mask
            for t in nxt:
                r |= reach[t]
            reach[sid] = r
            if len(comp) == 1 and not loops & mask:
                trivial[sid] = True
                cls = RADIUS_ZERO
            else:
                one = all(sum(map(columns[j].__getitem__, comp)) == 1 for j in comp)
                cls = radius[sid] = RADIUS_ONE if one else RADIUS_ABOVE_ONE
                if not loops & mask:  # a self-loop makes the period 1
                    period[sid], levels[sid] = _period_levels(succ, comp[0], mask)
            # a letter grows iff it reaches an SCC of radius above 1 (then
            # theta > 1) or a path from it passes two cycle SCCs (then
            # theta = 1 and d >= 1); None when it reaches only trivial SCCs
            nontrivial = cls != RADIUS_ZERO
            ab = cls == RADIUS_ABOVE_ONE
            cy = 0
            for t in nxt:
                nontrivial = nontrivial or grows[t] is not None
                ab = ab or above[t]
                cy = max(cy, cycles[t])
            cy = min(2, cy + (cls == RADIUS_ONE))
            above[sid], cycles[sid] = ab, cy
            if nontrivial:
                grows[sid] = ab or cy == 2
        self.sccs = sccs
        self.scc_of = scc_of
        self.scc_edges = edges
        self.scc_closed = [not nxt for nxt in edges]
        self.scc_trivial = trivial
        self.scc_period = period
        self.scc_radius = radius
        # BFS levels of an SCC with no self-loop, read by block_decomposition
        # when its period is above 1
        self._scc_levels = levels
        self._scc_grows = grows  # see is_growing
        # per letter, the letters it reaches (itself included) as a bitmask
        self.letter_reach = [reach[s] for s in scc_of]

    def block(self, members: Sequence[int]) -> Matrix:
        return tuple(tuple(self.matrix[i][j] for j in members) for i in members)

    def perron_of_scc(self, sid: int) -> PerronValue:
        if sid not in self._perron_cache:
            if self.scc_trivial[sid]:
                self._perron_cache[sid] = PerronValue.from_rational(0)
            else:
                self._perron_cache[sid] = PerronValue.of_matrix(self.block(self.sccs[sid]))
        return self._perron_cache[sid]

    def reachable_sccs(self, sid: int) -> set[int]:
        seen = {sid}
        work = [sid]
        while work:
            s = work.pop()
            for t in self.scc_edges[s]:
                if t not in seen:
                    seen.add(t)
                    work.append(t)
        return seen

    def reachable_letters(self, token: str) -> list[str]:
        """Closure of {token} under 'appears in the image of' (includes token)."""
        return self.letters_of(self.letter_reach[self.alphabet.index(token)])

    def reach_of(self, word: str) -> int:
        """The letters reachable from those of an internal word, as a bitmask."""
        reach = dict(zip(self.alphabet.chars, self.letter_reach))
        out = 0
        for c in set(word):
            out |= reach[c]
        return out

    def letters_of(self, mask: int) -> list[str]:
        """The tokens of a letter bitmask, in alphabet order."""
        return [self.alphabet.tokens[i] for i in letter_bits(mask)]

    # -- growth ---------------------------------------------------------------

    def growth_type(self, token: str) -> GrowthType:
        i = self.alphabet.index(token)
        if i not in self._growth_cache:
            sid = self.scc_of[i]
            reach = self.reachable_sccs(sid)
            theta = None
            for s in reach:
                p = self.perron_of_scc(s)
                if theta is None or p.cmp(theta) > 0:
                    theta = p
            if theta.cmp(_ONE) < 0:
                raise PreconditionViolated(
                    "letter reaches only nilpotent structure; erasing input rejected"
                )
            memo: dict[int, int] = {}

            def count(s: int) -> int:
                if s in memo:
                    return memo[s]
                best = 0
                for t in self.scc_edges[s]:
                    if t in reach:
                        best = max(best, count(t))
                here = 1 if self.perron_of_scc(s).eq(theta) else 0
                memo[s] = here + best
                return memo[s]

            self._growth_cache[i] = GrowthType(count(sid) - 1, theta)
        return self._growth_cache[i]

    def is_growing(self, token: str) -> bool:
        """Whether |sigma^n(token)| tends to infinity; agrees with
        growth_type(token).is_non_growing() and raises where it raises."""
        grows = self._scc_grows[self.scc_of[self.alphabet.index(token)]]
        if grows is None:
            raise PreconditionViolated(
                "letter reaches only nilpotent structure; erasing input rejected"
            )
        return grows

    def all_growing(self) -> bool:
        return all(self.is_growing(t) for t in self.alphabet.tokens)

    @cached_property
    def primitive_exponent(self) -> int | None:
        """horn_exponent of the matrix, or None when it is not primitive: a
        matrix is primitive iff its letters form one non-trivial SCC of
        period 1."""
        if len(self.sccs) != 1 or self.scc_trivial[0] or self.scc_period[0] != 1:
            return None
        return horn_exponent(self.matrix)

    def lengths_after(self, k: int) -> list[int]:
        """|sigma^k(b)| for every letter b (column sums of the k-th power).

        Row k+1 is row k times the matrix, |sigma^(k+1)(b)| being the sum of
        |sigma^k(c)| over the letters c of sigma(b); rows are kept, so each
        power is computed once per structure.
        """
        if k < 0:
            raise ValueError("negative matrix power")
        rows = self._lengths
        while len(rows) <= k:
            prev = rows[-1]
            rows.append([sum(map(mul, prev, col)) for col in self._columns])
        return list(rows[k])


def incidence(sigma: "Morphism") -> IncidenceStructure:
    """The analysis cached on sigma (see Morphism.incidence)."""
    return sigma.incidence


def growth_type(structure: IncidenceStructure, token: str) -> GrowthType:
    return structure.growth_type(token)


def block_decomposition(structure: IncidenceStructure) -> BlockDecomposition:
    """Cyclicity-class partition and the exponent r_sigma.

    r_sigma is the lcm of SCC periods; each SCC of period p splits into p
    classes (BFS level mod p, the levels its period was read from), and each
    class block of M^{r_sigma} is primitive, while trivial single-letter SCCs
    without self-loop give zero blocks.  The result is kept on the structure.
    """
    if structure._blocks is not None:
        return structure._blocks
    tokens = structure.alphabet.tokens
    r = 1
    blocks: list[tuple[str, ...]] = []
    flags: list[str] = []
    closed: list[bool] = []
    for sid, comp in enumerate(structure.sccs):
        if structure.scc_trivial[sid]:
            blocks.append((tokens[comp[0]],))
            flags.append("zero")
            closed.append(structure.scc_closed[sid])
            continue
        p = structure.scc_period[sid]
        r = math.lcm(r, p)
        classes: dict[int, list[int]] = {0: comp}
        if p > 1:
            level = structure._scc_levels[sid]
            classes = {}
            for v in comp:
                classes.setdefault(level[v] % p, []).append(v)
        for c in sorted(classes):
            blocks.append(tuple(map(tokens.__getitem__, classes[c])))
            flags.append("primitive")
            closed.append(structure.scc_closed[sid])
    structure._blocks = BlockDecomposition(tuple(blocks), r, tuple(flags), tuple(closed))
    return structure._blocks


# -- the P/Q constants ------------------------------------------------------------

# powers past the primitive exponent taken before reading eigenvector ratios;
# a larger power narrows the ratio bounds at the cost of bigger integers
_TIGHTEN_POWER = 8


def _eigenvector_ratio_bounds(n_matrix: Matrix) -> tuple[list[Fraction], list[Fraction]]:
    """Per-row bounds on w_i / max_j w_j and w_i / min_j w_j for the positive
    eigenvector w of a matrix whose displayed power n_matrix is positive.

    Row i's ratios to row 0 are n_i,l / n_0,l; their least and largest are
    picked by integer cross-multiplication, a/b < c/d iff ad < cb for
    positive entries, and only the returned quotients become Fractions.
    """
    ref = n_matrix[0]
    r_lo = []  # (numerator, denominator) of each row's least ratio
    r_hi = []  # and of its largest
    for row in n_matrix:
        lo_n = hi_n = row[0]
        lo_d = hi_d = ref[0]
        for a, b in zip(row, ref):
            if a * lo_d < lo_n * b:
                lo_n, lo_d = a, b
            elif a * hi_d > hi_n * b:
                hi_n, hi_d = a, b
        r_lo.append((lo_n, lo_d))
        r_hi.append((hi_n, hi_d))
    hi_n, hi_d = r_hi[0]
    for a, b in r_hi:
        if a * hi_d > hi_n * b:
            hi_n, hi_d = a, b
    lo_n, lo_d = r_lo[0]
    for a, b in r_lo:
        if a * lo_d < lo_n * b:
            lo_n, lo_d = a, b
    lo_bounds = [Fraction(a * hi_d, b * hi_n) for a, b in r_lo]  # >= w_i / max w
    hi_bounds = [Fraction(a * lo_d, b * lo_n) for a, b in r_hi]  # <= w_i / min w  (outward)
    return lo_bounds, hi_bounds


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def _scc_ratio_bounds(structure, comp) -> tuple[list[Fraction], list[Fraction]]:
    """Eigenvector ratio bounds of a non-trivial SCC's transposed block, read
    off a positive power of it: past its primitive exponent, or, when the
    block is irreducible but imprimitive, a power of I + T, which is
    primitive with the same eigenvector.

    A block over the whole alphabet is the matrix with its letters
    reordered, so it and its transpose share the structure's cached
    primitive exponent.
    """
    t_block = _transpose(structure.block(comp))
    d = len(comp)
    if d == len(structure.matrix):
        horn = structure.primitive_exponent
    else:
        try:
            horn = horn_exponent(t_block)
        except NotPrimitive:
            horn = None
    if horn is not None:
        n_matrix = mat_pow(t_block, horn + _TIGHTEN_POWER)
    else:
        it = tuple(tuple(int(i == j) + t_block[i][j] for j in range(d)) for i in range(d))
        n_matrix = mat_pow(it, (d - 1) + _TIGHTEN_POWER)
    return _eigenvector_ratio_bounds(n_matrix)


def letter_envelopes(structure: IncidenceStructure) -> tuple[list[Fraction], list[Fraction]]:
    """Per-letter rationals with lo_b * a^k <= |sigma^k(b)| <= hi_b * a^k for
    every k >= 0, where a is the shared growth rate.

    Precondition: every letter has growth type (0, a) for one common a.
    Envelopes are assembled over the condensation, closed SCCs first.  When
    the letters form one non-trivial SCC the precondition holds, and its
    closed-SCC envelope never reads a, so no Perron value is computed.
    """
    tokens = structure.alphabet.tokens
    n = len(tokens)
    lo: list = [None] * n
    hi: list = [None] * n
    if len(structure.sccs) == 1 and not structure.scc_trivial[0]:
        _closed_scc_envelope(structure, 0, lo, hi)
        return _clamped(lo, hi)

    alpha_handle = None
    for t in tokens:
        gt = structure.growth_type(t)
        if gt.d != 0:
            raise PreconditionViolated(f"letter {t!r} has polynomial factor in its growth")
        if alpha_handle is None:
            alpha_handle = gt.theta
        elif not gt.theta.eq(alpha_handle):
            raise PreconditionViolated("letters have different growth rates")
    alpha = alpha_handle.refined(Fraction(1, 1 << 16))
    alo, ahi = alpha.lo, alpha.hi
    if alo <= 0:
        raise PreconditionViolated("growth rate must be positive")

    order = list(range(len(structure.sccs)))[::-1]  # sinks (closed) first
    for sid in order:
        comp = structure.sccs[sid]
        if structure.scc_closed[sid]:
            _closed_scc_envelope(structure, sid, lo, hi)
            continue
        if structure.scc_trivial[sid]:
            a = comp[0]
            img_letters = [
                i for i in range(n) for _ in range(structure.matrix[i][a])
            ]
            hi_a = sum(hi[c] for c in img_letters) / alo
            lo_a = sum(lo[c] for c in img_letters) / ahi
            hi[a] = max(hi_a, Fraction(1))
            lo[a] = min(lo_a, Fraction(1))
            continue
        _open_scc_envelope(structure, sid, lo, hi, alpha_handle, alo, ahi)
    return _clamped(lo, hi)


def _clamped(lo: list, hi: list) -> tuple[list[Fraction], list[Fraction]]:
    """Widen every envelope to contain 1, the length at k = 0."""
    return [min(v, Fraction(1)) for v in lo], [max(v, Fraction(1)) for v in hi]


def pq_constants(structure: IncidenceStructure) -> tuple[Fraction, Fraction]:
    """Constants P and Q with (1/P) a^k <= <sigma^k> <= |sigma^k| <= P a^k and
    |sigma^k| <= Q <sigma^k> for every k >= 0, where a is the common growth rate.

    The result is kept on the structure.
    """
    if structure._pq is None:
        lo, hi = letter_envelopes(structure)
        structure._pq = (max(max(hi), 1 / min(lo)), max(hi) / min(lo))
    return structure._pq


def _closed_scc_envelope(structure, sid, lo, hi):
    comp = structure.sccs[sid]
    if len(comp) == 1:
        lo[comp[0]] = Fraction(1)
        hi[comp[0]] = Fraction(1)
        return
    lo_bounds, hi_bounds = _scc_ratio_bounds(structure, comp)
    for pos, letter in enumerate(comp):
        lo[letter] = lo_bounds[pos]
        hi[letter] = hi_bounds[pos]


def _open_scc_envelope(structure, sid, lo, hi, alpha_handle, alo, ahi):
    comp = structure.sccs[sid]
    members = set(comp)
    comp_mask = sum(1 << v for v in comp)
    n = len(structure.matrix)
    rho = structure.perron_of_scc(sid)
    # refine until the internal radius is strictly below the global rate
    a_ref = alpha_handle
    while rho.hi >= a_ref.lo:
        if rho.cmp(a_ref) >= 0:
            raise PreconditionViolated(
                "open component has the full growth rate; envelope impossible"
            )
        rho = rho.refined((rho.hi - rho.lo) / 4 or Fraction(1, 16))
        a_ref = a_ref.refined((a_ref.hi - a_ref.lo) / 4 or Fraction(1, 16))
    alo_r = max(alo, a_ref.lo)
    rho_hi = rho.hi

    # internal envelope |sigma_S^j(a)| <= hiS_a * rho^j via the same eigen trick
    _, hi_bounds = _scc_ratio_bounds(structure, comp)

    spill: dict[int, list[int]] = {}
    for pos, e in enumerate(comp):
        out = []
        for i in range(n):
            if i not in members and structure.matrix[i][e] > 0:
                out.extend([i] * structure.matrix[i][e])
        spill[e] = out
    whimax = max(
        (sum(hi[c] for c in spill[e]) for e in comp if spill[e]), default=Fraction(0)
    )

    # distances within the component graph
    for pos, a in enumerate(comp):
        hi_s_a = hi_bounds[pos]
        hi_a = hi_s_a * (1 + whimax / (alo_r - rho_hi))
        best_lo = None
        dist = {a: 0}
        frontier = [a]
        while frontier:
            nxt = []
            for v in frontier:
                for w in letter_bits(structure._succ[v] & comp_mask):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for e in comp:
            if e not in dist or not spill[e]:
                continue
            for c in spill[e]:
                cand = lo[c] / (ahi ** (1 + dist[e]))
                if best_lo is None or cand > best_lo:
                    best_lo = cand
        if best_lo is None:
            raise PreconditionViolated("open component with no exit; inconsistent SCC data")
        lo[a] = min(best_lo, Fraction(1))
        hi[a] = max(hi_a, Fraction(1))
