"""Exact incidence-matrix analysis.

Everything here is exact: matrices are arbitrary-precision integers,
spectral radii are algebraic-number handles (square-free integer polynomial
plus an isolating rational interval), and all derived constants are
Fractions rounded outward where an over-approximation is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import sympy

from .errors import NotPrimitive, PreconditionViolated
from .words import Alphabet

if TYPE_CHECKING:
    from .morphism import Morphism

_X = sympy.Symbol("x")

Matrix = tuple[tuple[int, ...], ...]


# -- integer matrix helpers ----------------------------------------------------


def mat_from(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


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


def mat_positive(m: Matrix) -> bool:
    return all(v > 0 for row in m for v in row)


def mat_colsums(m: Matrix) -> list[int]:
    return [sum(m[i][j] for i in range(len(m))) for j in range(len(m))]


def horn_exponent(matrix: Sequence[Sequence[int]]) -> int:
    """Least k with matrix^k entrywise positive; k <= d^2 - 2d + 2 or NotPrimitive."""
    m = mat_from(matrix)
    d = len(m)
    bound = d * d - 2 * d + 2
    acc = m
    for k in range(1, bound + 1):
        if mat_positive(acc):
            return k
        acc = mat_mul(acc, m)
    raise NotPrimitive(f"no positive power up to the d^2-2d+2 = {bound} bound")


def is_primitive(matrix: Sequence[Sequence[int]]) -> bool:
    try:
        horn_exponent(matrix)
        return True
    except NotPrimitive:
        return False


# -- algebraic number handles ----------------------------------------------------


def _eval_coeffs(coeffs: tuple[int, ...], q: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * q + c
    return acc


def _canonical_poly(expr) -> tuple[int, ...]:
    """Square-free primitive polynomial with positive leading coefficient."""
    p = sympy.Poly(sympy.sqf_part(expr, _X), _X)
    _, prim = p.primitive()
    if prim.LC() < 0:
        prim = -prim
    return tuple(int(c) for c in prim.all_coeffs())


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
        of its characteristic polynomial)."""
        m = mat_from(rows)
        if len(m) == 1:
            return PerronValue.from_rational(m[0][0])
        charpoly = sympy.Matrix([list(r) for r in m]).charpoly(_X).as_expr()
        coeffs = _canonical_poly(charpoly)
        poly = sympy.Poly(list(coeffs), _X)
        intervals = poly.intervals()  # isolating intervals of all real roots, ascending
        if not intervals:
            raise PreconditionViolated("matrix has no real eigenvalue")
        (a, b), _mult = intervals[-1]
        return PerronValue._normalized(coeffs, Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)))

    @staticmethod
    def _normalized(coeffs: tuple[int, ...], lo: Fraction, hi: Fraction) -> "PerronValue":
        if lo == hi:
            return PerronValue(coeffs, lo, hi)
        flo = _eval_coeffs(coeffs, lo)
        if flo == 0:
            return PerronValue(coeffs, lo, lo)
        fhi = _eval_coeffs(coeffs, hi)
        if fhi == 0:
            return PerronValue(coeffs, hi, hi)
        if (flo > 0) == (fhi > 0):
            raise PreconditionViolated("interval does not isolate a sign change")
        return PerronValue(coeffs, lo, hi)

    # -- refinement ----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def refined(self, eps: Fraction) -> "PerronValue":
        """A handle for the same number with interval width <= eps (bisection)."""
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        flo = _eval_coeffs(self.coeffs, lo)
        while hi - lo > eps:
            mid = (lo + hi) / 2
            fmid = _eval_coeffs(self.coeffs, mid)
            if fmid == 0:
                return PerronValue(self.coeffs, mid, mid)
            if (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return PerronValue(self.coeffs, lo, hi)

    # -- order ---------------------------------------------------------------

    def cmp(self, other: "PerronValue") -> int:
        """-1, 0, or +1; exact trichotomy.

        Equal handles denote one number (an isolating interval has a single
        root), and a rational is placed against an interval by the sign of
        the polynomial there, so only two irrational values reach sympy.
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
        gcd_poly = None
        while True:
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            if gcd_poly is None:
                gcd_expr = sympy.gcd(
                    sympy.Poly(list(a.coeffs), _X), sympy.Poly(list(b.coeffs), _X)
                )
                gcd_poly = sympy.Poly(gcd_expr, _X)
            if gcd_poly.degree() >= 1:
                m = max(a.lo, b.lo)
                mm = min(a.hi, b.hi)
                if m <= mm and gcd_poly.count_roots(sympy.Rational(m), sympy.Rational(mm)) >= 1:
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
        fq = _eval_coeffs(self.coeffs, q)
        if fq == 0:
            return 0
        flo = _eval_coeffs(self.coeffs, self.lo)
        if flo == 0:  # the root is lo itself
            return (self.lo > q) - (self.lo < q)
        # same sign as at lo: no root in [lo, q], so the root lies above q
        return 1 if (fq > 0) == (flo > 0) else -1

    def eq(self, other: "PerronValue") -> bool:
        return self.cmp(other) == 0

    def cmp_rational(self, q) -> int:
        return self.cmp(PerronValue.from_rational(q))

    # -- arithmetic handles ----------------------------------------------------

    def pow(self, k: int) -> "PerronValue":
        """Handle for the k-th power of this number."""
        if k == 1:
            return self
        if k < 1:
            raise ValueError("power must be >= 1")
        if self.is_exact:
            return PerronValue.from_rational(self.lo**k)
        y = sympy.Symbol("y")
        p_y = sympy.Poly(list(self.coeffs), _X).as_expr().subs(_X, y)
        res = sympy.resultant(p_y, _X - y**k, y)
        coeffs = _canonical_poly(res)
        poly = sympy.Poly(list(coeffs), _X)
        base = self
        while True:
            lo, hi = base.lo**k, base.hi**k
            if lo > hi:
                lo, hi = hi, lo
            if poly.count_roots(sympy.Rational(lo), sympy.Rational(hi)) == 1:
                return PerronValue._normalized(coeffs, lo, hi)
            base = base.refined((base.hi - base.lo) / 4)

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def bounds(self, eps=Fraction(1, 1 << 20)) -> tuple[Fraction, Fraction]:
        r = self.refined(Fraction(eps))
        return r.lo, r.hi


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

    def less_than(self, other: "GrowthType") -> bool:
        c = self.theta.cmp(other.theta)
        return c < 0 or (c == 0 and self.d < other.d)

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


class IncidenceStructure:
    """Incidence matrix of an endomorphism with its SCC condensation.

    matrix[i][j] counts occurrences of letter i in the image of letter j.
    The letter graph has an edge j -> i when matrix[i][j] > 0; SCCs are
    listed in topological order, sources first, so closed SCCs come last.
    """

    def __init__(self, alphabet: Alphabet, matrix: Matrix):
        n = len(alphabet)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise PreconditionViolated("incidence matrix must be square over the alphabet")
        self.alphabet = alphabet
        self.matrix = matrix
        self._succ = [
            [i for i in range(n) if matrix[i][j] > 0] for j in range(n)
        ]
        self._compute_sccs()
        self._perron_cache: dict[int, PerronValue] = {}
        self._growth_cache: dict[int, GrowthType] = {}
        self._lengths: list[list[int]] = [[1] * n]  # row k: |sigma^k(b)| per letter b
        self._pq_cache: dict[tuple, tuple[Fraction, Fraction]] = {}

    @staticmethod
    def of_morphism(sigma: "Morphism") -> "IncidenceStructure":
        if not sigma.is_endomorphism:
            raise PreconditionViolated("incidence analysis needs an endomorphism")
        return IncidenceStructure(sigma.src, mat_from(sigma.incidence_matrix()))

    # -- SCC machinery --------------------------------------------------------

    def _compute_sccs(self):
        n = len(self.alphabet)
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        sccs: list[list[int]] = []
        counter = [0]

        def strongconnect(v0: int):
            # iterative Tarjan
            work = [(v0, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for i in range(pi, len(self._succ[v])):
                    w = self._succ[v][i]
                    if index[w] == -1:
                        work[-1] = (v, i + 1)
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(sorted(comp))
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

        for v in range(n):
            if index[v] == -1:
                strongconnect(v)

        # Tarjan emits sinks first; reverse for sources-first order.
        sccs.reverse()
        self.sccs: list[list[int]] = sccs
        self.scc_of = [0] * n
        for sid, comp in enumerate(sccs):
            for v in comp:
                self.scc_of[v] = sid
        self.scc_edges: list[set[int]] = [set() for _ in sccs]
        for j in range(n):
            for i in self._succ[j]:
                if self.scc_of[i] != self.scc_of[j]:
                    self.scc_edges[self.scc_of[j]].add(self.scc_of[i])
        self.scc_closed = [not self.scc_edges[s] for s in range(len(sccs))]
        self.scc_trivial = [
            len(comp) == 1 and self.matrix[comp[0]][comp[0]] == 0 for comp in sccs
        ]
        self.scc_period = [self._period(comp) for comp in sccs]

    def _period(self, comp: list[int]) -> int:
        if len(comp) == 1 and self.matrix[comp[0]][comp[0]] == 0:
            return 1
        members = set(comp)
        level = {comp[0]: 0}
        order = [comp[0]]
        g = 0
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            for w in self._succ[v]:
                if w not in members:
                    continue
                if w not in level:
                    level[w] = level[v] + 1
                    order.append(w)
                else:
                    g = math.gcd(g, level[v] + 1 - level[w])
        return abs(g) if g else 1

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
        start = self.alphabet.index(token)
        seen = {start}
        work = [start]
        while work:
            v = work.pop()
            for w in self._succ[v]:
                if w not in seen:
                    seen.add(w)
                    work.append(w)
        return [t for i, t in enumerate(self.alphabet.tokens) if i in seen]

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
        return not self.growth_type(token).is_non_growing()

    def all_growing(self) -> bool:
        return all(self.is_growing(t) for t in self.alphabet.tokens)

    def lengths_after(self, k: int) -> list[int]:
        """|sigma^k(b)| for every letter b (column sums of the k-th power).

        Row k+1 is row k times the matrix, |sigma^(k+1)(b)| being the sum of
        |sigma^k(c)| over the letters c of sigma(b); rows are kept, so each
        power is computed once per structure.
        """
        if k < 0:
            raise ValueError("negative matrix power")
        rows = self._lengths
        m = self.matrix
        n = len(m)
        while len(rows) <= k:
            prev = rows[-1]
            rows.append([sum(prev[i] * m[i][j] for i in range(n)) for j in range(n)])
        return list(rows[k])


def incidence(sigma: "Morphism") -> IncidenceStructure:
    """The analysis cached on sigma (see Morphism.incidence)."""
    return sigma.incidence


def growth_type(structure: IncidenceStructure, token: str) -> GrowthType:
    return structure.growth_type(token)


def block_decomposition(structure: IncidenceStructure) -> BlockDecomposition:
    """Cyclicity-class partition and the exponent r_sigma.

    r_sigma is the lcm of SCC periods; each SCC of period p splits into p
    classes (BFS level mod p), and each class block of M^{r_sigma} is
    primitive, while trivial single-letter SCCs without self-loop give zero
    blocks.
    """
    r = 1
    for sid, comp in enumerate(structure.sccs):
        if not structure.scc_trivial[sid]:
            r = math.lcm(r, structure.scc_period[sid])
    blocks: list[tuple[str, ...]] = []
    flags: list[str] = []
    closed: list[bool] = []
    for sid, comp in enumerate(structure.sccs):
        if structure.scc_trivial[sid]:
            blocks.append((structure.alphabet.tokens[comp[0]],))
            flags.append("zero")
            closed.append(structure.scc_closed[sid])
            continue
        p = structure.scc_period[sid]
        members = set(comp)
        level = {comp[0]: 0}
        order = [comp[0]]
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            for w in structure._succ[v]:
                if w in members and w not in level:
                    level[w] = level[v] + 1
                    order.append(w)
        classes: dict[int, list[int]] = {}
        for v in comp:
            classes.setdefault(level[v] % p, []).append(v)
        for c in sorted(classes):
            blocks.append(tuple(structure.alphabet.tokens[v] for v in sorted(classes[c])))
            flags.append("primitive")
            closed.append(structure.scc_closed[sid])
    return BlockDecomposition(tuple(blocks), r, tuple(flags), tuple(closed))


# -- the P/Q constants ------------------------------------------------------------


def _eigenvector_ratio_bounds(n_matrix: Matrix) -> tuple[list[Fraction], list[Fraction]]:
    """Per-row bounds on w_i / max_j w_j and w_i / min_j w_j for the positive
    eigenvector w of a matrix whose displayed power n_matrix is positive."""
    d = len(n_matrix)
    ref = 0
    r_lo = []
    r_hi = []
    for i in range(d):
        ratios = [Fraction(n_matrix[i][l], n_matrix[ref][l]) for l in range(d)]
        r_lo.append(min(ratios))
        r_hi.append(max(ratios))
    hi_all = max(r_hi)
    lo_all = min(r_lo)
    lo_bounds = [r_lo[i] / hi_all for i in range(d)]  # >= w_i / max w
    hi_bounds = [r_hi[i] / lo_all for i in range(d)]  # <= w_i / min w  (outward)
    return lo_bounds, hi_bounds


def _transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def letter_envelopes(
    structure: IncidenceStructure, tighten_power: int = 8
) -> tuple[list[Fraction], list[Fraction]]:
    """Per-letter rationals with lo_b * a^k <= |sigma^k(b)| <= hi_b * a^k for
    every k >= 0, where a is the shared growth rate.

    Precondition: every letter has growth type (0, a) for one common a.
    Envelopes are assembled over the condensation, closed SCCs first.
    """
    tokens = structure.alphabet.tokens
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

    n = len(tokens)
    lo: list = [None] * n
    hi: list = [None] * n
    order = list(range(len(structure.sccs)))[::-1]  # sinks (closed) first

    for sid in order:
        comp = structure.sccs[sid]
        if structure.scc_closed[sid]:
            _closed_scc_envelope(structure, sid, lo, hi, tighten_power)
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
        _open_scc_envelope(structure, sid, lo, hi, alpha_handle, alo, ahi, tighten_power)

    for i in range(n):
        lo[i] = min(lo[i], Fraction(1))
        hi[i] = max(hi[i], Fraction(1))
    return lo, hi


def pq_constants(
    structure: IncidenceStructure,
    tighten_power: int = 8,
    empirical: bool = False,
    empirical_kmax: int = 30,
) -> tuple[Fraction, Fraction]:
    """Constants P and Q with (1/P) a^k <= <sigma^k> <= |sigma^k| <= P a^k and
    |sigma^k| <= Q <sigma^k> for every k >= 0, where a is the common growth rate.

    With empirical=True a deeper eigenvector pass is also run and the smaller
    (still sound for all k) Q is kept; exact small-k ratios serve as a sanity
    floor.  The result is kept on the structure, per set of arguments.
    """
    key = (tighten_power, empirical, empirical_kmax)
    if key not in structure._pq_cache:
        structure._pq_cache[key] = _pq_constants(
            structure, tighten_power, empirical, empirical_kmax
        )
    return structure._pq_cache[key]


def _pq_constants(structure, tighten_power, empirical, empirical_kmax):
    lo, hi = letter_envelopes(structure, tighten_power)
    p_const = max(max(hi), 1 / min(lo))
    q_const = max(hi) / min(lo)

    if empirical:
        lo2, hi2 = letter_envelopes(structure, tighten_power * 3)
        q_deep = max(hi2) / min(lo2)
        p_deep = max(max(hi2), 1 / min(lo2))
        floor = Fraction(1)
        acc = structure.matrix
        for _k in range(1, empirical_kmax + 1):
            sums = mat_colsums(acc)
            floor = max(floor, Fraction(max(sums), min(sums)))
            acc = mat_mul(acc, structure.matrix)
        q_const = min(q_const, q_deep)
        p_const = min(p_const, p_deep)
        if q_const < floor:
            raise PreconditionViolated("envelope tighter than exact ratios; internal error")
    return p_const, q_const


def _closed_scc_envelope(structure, sid, lo, hi, tighten_power):
    comp = structure.sccs[sid]
    block = structure.block(comp)
    t_block = _transpose(block)
    d = len(comp)
    if d == 1:
        lo[comp[0]] = Fraction(1)
        hi[comp[0]] = Fraction(1)
        return
    try:
        k0 = horn_exponent(t_block) + tighten_power
        n_matrix = mat_pow(t_block, k0)
    except NotPrimitive:
        # irreducible but imprimitive: I + T is primitive with the same eigenvector
        eye = mat_identity(d)
        it = tuple(
            tuple(eye[i][j] + t_block[i][j] for j in range(d)) for i in range(d)
        )
        n_matrix = mat_pow(it, (d - 1) + tighten_power)
    lo_bounds, hi_bounds = _eigenvector_ratio_bounds(n_matrix)
    for pos, letter in enumerate(comp):
        lo[letter] = lo_bounds[pos]
        hi[letter] = hi_bounds[pos]


def _open_scc_envelope(structure, sid, lo, hi, alpha_handle, alo, ahi, tighten_power):
    comp = structure.sccs[sid]
    members = set(comp)
    n = len(structure.matrix)
    block = structure.block(comp)
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
    t_block = _transpose(block)
    d = len(comp)
    try:
        k0 = horn_exponent(t_block) + tighten_power
        n_matrix = mat_pow(t_block, k0)
        _, hi_bounds = _eigenvector_ratio_bounds(n_matrix)
    except NotPrimitive:
        eye = mat_identity(d)
        it = tuple(
            tuple(eye[i][j] + t_block[i][j] for j in range(d)) for i in range(d)
        )
        n_matrix = mat_pow(it, (d - 1) + tighten_power)
        _, hi_bounds = _eigenvector_ratio_bounds(n_matrix)

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
                for w in structure._succ[v]:
                    if w in members and w not in dist:
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
