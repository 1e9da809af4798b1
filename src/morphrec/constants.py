"""Exact recurrence constants: R, K, K1, K2, the preimage bound and the cap.

Everything is an exact integer or Fraction.  Over-approximation is always on
the sound side: a larger K inflates caps and weakens early exits but never
flips a verdict.

The sheet is built in two steps.  `compute_count_free_sheet` fills in every
constant that does not need the factor count p(K+1); `with_factor_count`
counts the (K+1)-factors of y and adds the constants built on that count.
The count is by far the costliest part, and only the paper's full-power
chain uses what it yields: `compute_constant_sheet` serves `derive_chain`
and the `constants` and `derive` commands, while the decider and the
verifier use the count-free sheet alone.

R, the largest gap between successive occurrences of a 2-factor of y, is
read off the images of the letters under one power of sigma, each split
once per 2-factor, with no scan of a prefix of y; its sanity bound reads
image lengths only up to the first power that covers R.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (
    BudgetExhausted,
    InternalConsistencyError,
    NoPrimitiveSubmorphism,
    NotPrimitive,
)
from .growth import (
    IncidenceStructure,
    block_decomposition,
    pq_constants,
)
from .morphism import power
from .returns import WORK_BUDGET
from .stream import factor_language
from .system import ProlongableSystem, restrict_to_reachable


# most powers of sigma tried before image lengths must have reached a target
_MAX_STEPS = 512


def _covering_power(inc: IncidenceStructure, t_star: int) -> int:
    """Least s with every |sigma^s(b)| >= 2|sigma^{t*}| + 2.

    The search starts past t*: for a primitive sigma, max|sigma^k| never
    shrinks as k grows, so no s <= t* reaches the target.
    """
    n = 2 * max(inc.lengths_after(t_star)) + 2
    t = t_star + 1
    while t <= _MAX_STEPS and min(inc.lengths_after(t)) < n:
        t += 1
    if t > _MAX_STEPS:
        raise InternalConsistencyError("image lengths failed to reach the target")
    return t


def _image_occurrences(image: str, u: str) -> tuple[int, int, int, int]:
    """(count, first start, last start, largest gap between successive
    starts) of a 2-letter word u in image, read off the pieces left between
    cuts at the occurrences of u, or, for u = cc, whose occurrences overlap,
    at the maximal runs of c.  A cut of r letters holds r - 1 occurrences, 1
    apart, and a piece between two cuts is a gap less 2.  The gap is 1 when
    no piece lies between two cuts; the starts mean nothing when the count
    is 0.
    """
    if u[0] == u[1]:
        pieces = re.split(re.escape(u[0]) + "{2,}", image)
    else:
        pieces = image.split(u)
    count = len(image) - sum(map(len, pieces)) - len(pieces) + 1
    gap = max(map(len, pieces[1:-1]), default=-1) + 2
    return count, len(pieces[0]), len(image) - len(pieces[-1]) - 2, gap


def _window_gap(left: str, right: str, u: str, found_left, found_right) -> int | None:
    """Largest gap between successive starts of u in left + right, from the
    _image_occurrences of both words, or None when u occurs there fewer
    than twice.  An occurrence lies in left, in right, or across the
    junction, where it starts at len(left) - 1.
    """
    n_l, _, last_l, gap_l = found_left
    n_r, first_r, _, gap_r = found_right
    junction = left[-1] == u[0] and right[0] == u[1]
    if n_l + n_r + junction < 2:
        return None
    gap = max(gap_l, gap_r)
    if junction:
        if n_l:
            gap = max(gap, len(left) - 1 - last_l)
        if n_r:
            gap = max(gap, first_r + 1)
    elif n_l and n_r:
        gap = max(gap, len(left) + first_r - last_l)
    return gap


def compute_R_sigma(sys: ProlongableSystem) -> int:
    """Exact maximal gap between successive occurrences of any length-2 factor.

    Completeness: for each 2-factor u a power t* is found with u occurring
    in sigma^{t*}(e) for every letter e, so successive occurrences of u are
    less than 2|sigma^{t*}| apart, and the factor of y from one to the end
    of the next has at most 2|sigma^{t*}| + 1 letters.  With s least such
    that every |sigma^s(e)| >= 2|sigma^{t*}| + 2, that factor lies inside
    sigma^s(cd) for a 2-factor cd, since y is the concatenation of the
    images sigma^s(y_i); and sigma^s(cd) is itself a factor of y, so
    successive occurrences of u inside it are successive in y.  R is thus
    read off the windows sigma^s(c)sigma^s(d), with no prefix of y.

    Each image sigma^s(c) is split once per u, and keeps u's count, first
    and last starts and largest inner gap.  An occurrence of u in the
    window lies in sigma^s(c), in sigma^s(d), or across the junction, so
    the window's gaps are the two images' inner gaps and the gaps through
    the junction (`_window_gap`), with no window built.

    The result is checked against the 2|sigma^{2d^2}| bound, at the least
    power k <= 2d^2 with 2|sigma^k| >= R.  That is the same check, as
    |sigma^k| never shrinks as k grows: a letter c with the longest
    sigma^k(c) occurs in some image sigma(b) of a primitive sigma, so
    |sigma^(k+1)(b)| >= |sigma^k(c)|.  Images are held to WORK_BUDGET
    letters, and a level is compared with it before it is built.
    """
    inc = sys.incidence
    horn = inc.primitive_exponent
    if horn is None:
        raise NotPrimitive("R is computed for primitive substitutions only")
    sys.require_prolongable()
    alpha = sys.alphabet
    d = len(alpha)
    pairs = sorted(factor_language(sys, 2))
    # each pair occurs in sigma^k(a) for some k <= d^2, and a in every
    # sigma^horn(e)
    t_cap = horn + d * d

    # materialized images per level, for the containment searches
    level_images: list[dict[str, str]] = [{c: c for c in alpha.chars}]

    def images_at(t: int) -> dict[str, str]:
        while len(level_images) <= t:
            if sum(inc.lengths_after(len(level_images))) > WORK_BUDGET:
                raise BudgetExhausted("image materialization exceeded the work budget")
            prev = level_images[-1]
            level_images.append({c: sys.sigma.apply(prev[c]) for c in alpha.chars})
        return level_images[t]

    letters = {c for p in pairs for c in p}
    best = 1  # a word that recurs has gaps of at least 1
    for u in pairs:
        t_star = None
        for t in range(1, t_cap + 1):
            if all(u in w for w in images_at(t).values()):
                t_star = t
                break
        if t_star is None:
            raise InternalConsistencyError(
                "primitive substitution never covered a two-letter factor"
            )
        images = images_at(_covering_power(inc, t_star))
        found = {c: _image_occurrences(images[c], u) for c in letters}
        for c, e in pairs:
            gap = _window_gap(images[c], images[e], u, found[c], found[e])
            if gap is None:
                raise InternalConsistencyError("two-letter factor did not recur in its window")
            best = max(best, gap)

    k = 0
    while 2 * max(inc.lengths_after(k)) < best:
        if k == 2 * d * d:
            raise InternalConsistencyError(
                f"computed R = {best} exceeds the 2|sigma^(2d^2)| = "
                f"{2 * max(inc.lengths_after(k))} bound"
            )
        k += 1
    return best


@dataclass(frozen=True)
class SubMorphismConstants:
    """A primitive closed block of sigma^{r_sigma}, powered to prolongability."""

    letters: tuple[str, ...]
    start: str
    power: int  # total exponent of sigma this block morphism equals
    norm: int  # max image length of the block morphism
    q_value: Fraction
    r_value: int
    k_value: Fraction  # q * r * norm

    def to_json_dict(self) -> dict:
        return {
            "letters": list(self.letters),
            "start": self.start,
            "power": self.power,
            "norm": self.norm,
            "Q": f"{self.q_value.numerator}/{self.q_value.denominator}",
            "R": self.r_value,
            "K": f"{self.k_value.numerator}/{self.k_value.denominator}",
        }


def _prolongable_block_system(
    sys: ProlongableSystem, letters: tuple[str, ...], r_sigma: int
) -> tuple[ProlongableSystem, int]:
    """Power sigma^{r_sigma} restricted to a closed block until prolongable."""
    tau0 = power(sys.sigma, r_sigma).restricted_to(list(letters))
    # first-letter functional graph: find a cycle letter and its period
    first = {c: img[0] for c, img in zip(tau0.src.chars, tau0.images)}
    seen_order = []
    seen_set = {}
    cur = tau0.src.chars[0]
    while cur not in seen_set:
        seen_set[cur] = len(seen_order)
        seen_order.append(cur)
        cur = first[cur]
    cycle = seen_order[seen_set[cur] :]
    c = len(cycle)
    start = tau0.src.token_of_char(cycle[0])
    tau = power(tau0, c) if c > 1 else tau0
    exponent = r_sigma * c
    guard = 0
    while len(tau.image(start)) < 2:
        tau = power(tau, 2)
        exponent *= 2
        guard += 1
        if guard > 16:
            raise InternalConsistencyError("block morphism refuses to grow at its cycle letter")
    block_sys = ProlongableSystem(tau, start)
    block_sys.require_prolongable()
    return block_sys, exponent


def compute_K(sys: ProlongableSystem) -> tuple[int, tuple[SubMorphismConstants, ...], int]:
    """K = ceil of the least Q_t * R_t * |t| over primitive sub-morphisms.

    Candidates are the closed primitive blocks of the cyclicity decomposition
    of sigma, each raised to the recorded power making it prolongable.
    Returns (K, all candidate constants, index of the chosen candidate).
    """
    inc = sys.incidence
    bd = block_decomposition(inc)
    out: list[SubMorphismConstants] = []
    for i, letters in enumerate(bd.blocks):
        if not bd.closed[i] or bd.flags[i] != "primitive":
            continue
        block_sys, exponent = _prolongable_block_system(sys, letters, bd.r_sigma)
        _, q = pq_constants(block_sys.incidence)
        r = compute_R_sigma(block_sys)
        norm = block_sys.sigma.max_image_len
        out.append(
            SubMorphismConstants(
                letters=letters,
                start=block_sys.start,
                power=exponent,
                norm=norm,
                q_value=q,
                r_value=r,
                k_value=q * r * norm,
            )
        )
    if not out:
        raise NoPrimitiveSubmorphism(
            "no closed primitive block found; unreachable for growing substitutions"
        )
    chosen = min(range(len(out)), key=lambda i: out[i].k_value)
    k_int = max(1, math.ceil(out[chosen].k_value))
    return k_int, tuple(out), chosen


@dataclass(frozen=True)
class CapExpression:
    """base ** exponent, kept symbolic: the power itself is never computed."""

    base: int
    exponent: int

    def describe(self) -> str:
        return f"{self.base}^{self.exponent}"


@dataclass(frozen=True)
class CapsResult:
    K1: int
    K2: int
    cap: CapExpression
    preimage_bound: int


def _compute_K2(k_const: int, powered_norm: int) -> int:
    """K2 = |sigma|(K+1)K, with |sigma| the powered image norm."""
    return powered_norm * (k_const + 1) * k_const


def compute_caps(
    k_const: int,
    q_const: Fraction,
    powered_norm: int,
    p_factor_count: int,
    growth_stage_norm: int,
) -> CapsResult:
    """K1 = ceil(4 K^3 p(K+1) |sigma| Q (K+1)^2), K2 = |sigma|(K+1)K, the cap
    K1^(K1 K2 + 2), and the preimage bound p(K+1) |sigma| Q (K+1)^2 computed
    with the pre-powering image norm."""
    kp1 = k_const + 1
    k1 = math.ceil(
        Fraction(4 * k_const**3 * p_factor_count * powered_norm * kp1 * kp1) * q_const
    )
    k2 = _compute_K2(k_const, powered_norm)
    preimage = math.ceil(
        Fraction(p_factor_count * growth_stage_norm * kp1 * kp1) * q_const
    )
    return CapsResult(k1, k2, CapExpression(k1, k1 * k2 + 2), preimage)


@dataclass(frozen=True)
class ConstantSheet:
    """All decision constants for one normalized growing system.

    Stage one (the system as given, after restriction): norms, P, Q, R when
    primitive, the sub-morphism table and K.  Stage two (after raising sigma
    so <sigma> >= (K+1)^2): the power exponent, the powered norm and min, and
    K2.  The count fields, p_factor_count (p(K+1)), preimage_bound, K1 and
    cap, are None on a sheet from `compute_count_free_sheet`, until
    `with_factor_count` fills them in; a verdict's sheet leaves them None.
    """

    sigma_norm: int
    sigma_min: int
    p_const: Fraction
    q_const: Fraction
    r_value: int | None
    submorphisms: tuple[SubMorphismConstants, ...]
    chosen_submorphism: int
    K: int
    p_factor_count: int | None
    preimage_bound: int | None
    power_exponent: int
    powered_norm: int
    powered_min: int
    K1: int | None
    K2: int
    cap: CapExpression | None

    def to_json_dict(self) -> dict:
        return {
            "sigma_norm": self.sigma_norm,
            "sigma_min": self.sigma_min,
            "P": f"{self.p_const.numerator}/{self.p_const.denominator}",
            "Q": f"{self.q_const.numerator}/{self.q_const.denominator}",
            "R": self.r_value,
            "submorphisms": [s.to_json_dict() for s in self.submorphisms],
            "chosen_submorphism": self.chosen_submorphism,
            "K": self.K,
            "factor_count_K_plus_1": self.p_factor_count,
            "preimage_bound": self.preimage_bound,
            "power_exponent": self.power_exponent,
            "powered_norm": self.powered_norm,
            "powered_min": self.powered_min,
            "K1": self.K1,
            "K2": self.K2,
            "cap": self.cap.describe() if self.cap is not None else None,
        }


def compute_count_free_sheet(sys: ProlongableSystem) -> ConstantSheet:
    """The sheet of a growing system (phi a coding or absent) without the
    factor count: its count fields are None.

    The system is restricted to reachable letters first, as for the count.
    """
    sys = restrict_to_reachable(sys)
    inc = sys.incidence
    p_const, q_const = pq_constants(inc)
    k_const, subs, chosen = compute_K(sys)
    # a primitive sigma is its own single block, whose power shares sigma's
    # language and so its R
    r_value = subs[0].r_value if inc.primitive_exponent is not None else None

    target = (k_const + 1) ** 2
    k_pow = 1
    while min(inc.lengths_after(k_pow)) < target:
        k_pow += 1
        if k_pow > 4096:
            raise InternalConsistencyError("powering failed to reach (K+1)^2")
    powered_lengths = inc.lengths_after(k_pow)
    return ConstantSheet(
        sigma_norm=sys.sigma.max_image_len,
        sigma_min=sys.sigma.min_image_len,
        p_const=p_const,
        q_const=q_const,
        r_value=r_value,
        submorphisms=subs,
        chosen_submorphism=chosen,
        K=k_const,
        p_factor_count=None,
        preimage_bound=None,
        power_exponent=k_pow,
        powered_norm=max(powered_lengths),
        powered_min=min(powered_lengths),
        K1=None,
        K2=_compute_K2(k_const, max(powered_lengths)),
        cap=None,
    )


def with_factor_count(sys: ProlongableSystem, sheet: ConstantSheet) -> ConstantSheet:
    """The count-free sheet of sys with p(K+1), the preimage bound, K1 and
    the cap filled in.

    p(K+1) is the size of factor_language(sys, K + 1) on sys restricted to
    reachable letters, so the count refers to the generated language.
    """
    sys = restrict_to_reachable(sys)
    # the sheet's constants hold for growing sigma only
    if not sys.incidence.all_growing():
        raise InternalConsistencyError("factor count must be exact for growing sigma")
    p_count = len(factor_language(sys, sheet.K + 1))
    caps = compute_caps(
        sheet.K, sheet.q_const, sheet.powered_norm, p_count, sheet.sigma_norm
    )
    return replace(
        sheet,
        p_factor_count=p_count,
        preimage_bound=caps.preimage_bound,
        K1=caps.K1,
        cap=caps.cap,
    )


def compute_constant_sheet(sys: ProlongableSystem) -> ConstantSheet:
    """The full sheet of a growing system (phi a coding or absent), count
    fields included."""
    return with_factor_count(sys, compute_count_free_sheet(sys))
