"""Exact recurrence constants: R, K, K1, K2, the preimage bound and the cap.

Everything is an exact integer or Fraction.  Over-approximation is always on
the sound side: a larger K inflates caps and weakens early exits but never
flips a verdict.
"""

from __future__ import annotations

import math
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
    horn_exponent,
    is_primitive,
    mat_colsums,
    mat_pow,
    pq_constants,
)
from .morphism import Morphism, power
from .stream import FixedPointStream, _inner_language, two_factor_closure
from .system import ProlongableSystem, restrict_to_reachable
from .words import factor_set


def _steps_until_min_length(inc: IncidenceStructure, n: int, cap: int = 512) -> int:
    """Least t with every |sigma^t(b)| >= n."""
    t = 0
    while min(inc.lengths_after(t)) < n:
        t += 1
        if t > cap:
            raise InternalConsistencyError("image lengths failed to reach the target")
    return t


def compute_R_sigma(sys: ProlongableSystem, work_budget: int = 1 << 26) -> int:
    """Exact maximal gap between successive occurrences of any length-2 factor.

    Completeness: for each pair u, a power t* is found with u occurring in
    sigma^{t*}(e) for every letter e, so no u-free window can reach length
    2|sigma^{t*}|; every distinct return word of that length occurs inside
    the image of some two-letter factor, hence within a computable prefix.
    The result is checked against the 2|sigma^{2d^2}| bound.
    """
    inc = sys.incidence
    if not is_primitive(inc.matrix):
        raise NotPrimitive("R is computed for primitive substitutions only")
    sys.require_prolongable()
    alpha = sys.alphabet
    d = len(alpha)
    pairs, depth = two_factor_closure(sys)
    horn = horn_exponent(inc.matrix)
    t_cap = horn + depth + 1 + _steps_until_min_length(inc, 2)

    # materialized images per level, for the containment searches
    level_images: list[dict[str, str]] = [{c: c for c in alpha.chars}]

    def images_at(t: int) -> dict[str, str]:
        while len(level_images) <= t:
            prev = level_images[-1]
            nxt = {c: sys.sigma.apply(prev[c]) for c in alpha.chars}
            if sum(len(w) for w in nxt.values()) > work_budget:
                raise BudgetExhausted("image materialization exceeded the work budget")
            level_images.append(nxt)
        return level_images[t]

    stream = FixedPointStream(sys, "y")
    best = 0
    for u in sorted(pairs):
        t_star = None
        for t in range(1, t_cap + 1):
            if all(u in w for w in images_at(t).values()):
                t_star = t
                break
        if t_star is None:
            raise InternalConsistencyError(
                "primitive substitution never covered a two-letter factor"
            )
        g_bound = 2 * max(inc.lengths_after(t_star))
        s_needed = _steps_until_min_length(inc, g_bound + 2)
        scan = inc.lengths_after(depth + 1 + s_needed)[alpha.index(sys.start)]
        if scan > work_budget:
            raise BudgetExhausted(
                f"certified scan length {scan} exceeds the work budget"
            )
        occ = stream.scan_occurrences(u, scan)
        if len(occ) < 2:
            raise InternalConsistencyError("two-letter factor did not recur in scan")
        gap = max(b - a for a, b in zip(occ, occ[1:]))
        best = max(best, gap)

    bound_exp = 2 * d * d
    bound = 2 * max(mat_colsums(mat_pow(inc.matrix, bound_exp)))
    if best > bound:
        raise InternalConsistencyError(
            f"computed R = {best} exceeds the 2|sigma^(2d^2)| = {bound} bound"
        )
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
    first = {t: tau0.image_tokens(t)[0] for t in letters}
    seen_order = []
    seen_set = {}
    cur = letters[0]
    while cur not in seen_set:
        seen_set[cur] = len(seen_order)
        seen_order.append(cur)
        cur = first[cur]
    cycle = seen_order[seen_set[cur] :]
    c = len(cycle)
    start = cycle[0]
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


def compute_K(
    sys: ProlongableSystem, r_value: int | None = None
) -> tuple[int, tuple[SubMorphismConstants, ...], int]:
    """K = ceil of the least Q_t * R_t * |t| over primitive sub-morphisms.

    Candidates are the closed primitive blocks of the cyclicity decomposition
    of sigma, each raised to the recorded power making it prolongable.
    r_value, when given, is R of sys itself and is reused for a block system
    with the same sigma and start.
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
        if r_value is not None and (block_sys.sigma, block_sys.start) == (sys.sigma, sys.start):
            r = r_value
        else:
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
    """base ** exponent, never evaluated unless small enough to be cheap."""

    base: int
    exponent: int

    def greater_than(self, counter: int) -> bool:
        if self.base < 2:
            return self.base**self.exponent > counter
        if counter < 0:
            return True
        # base >= 2 so cap >= 2**exponent
        if counter.bit_length() <= self.exponent:
            return True
        if self.exponent <= 512:
            return self.base**self.exponent > counter
        # counter needs more than 2**512 bits to get here; treat cap as larger
        return True

    def exceeded_by(self, counter: int) -> bool:
        return not self.greater_than(counter)

    def describe(self) -> str:
        return f"{self.base}^{self.exponent}"


@dataclass(frozen=True)
class CapsResult:
    K1: int
    K2: int
    cap: CapExpression
    preimage_bound: int


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
    k2 = powered_norm * kp1 * k_const
    preimage = math.ceil(
        Fraction(p_factor_count * growth_stage_norm * kp1 * kp1) * q_const
    )
    return CapsResult(k1, k2, CapExpression(k1, k1 * k2 + 2), preimage)


@dataclass(frozen=True)
class ConstantSheet:
    """All decision constants for one normalized growing system.

    Stage one (the system as given, after restriction): norms, P, Q, R when
    primitive, the sub-morphism table and K, the factor count p(K+1) and the
    preimage bound.  Stage two (after raising sigma so <sigma> >= (K+1)^2):
    the powered norm, K1, K2 and the cap expression.
    """

    sigma_norm: int
    sigma_min: int
    p_const: Fraction
    q_const: Fraction
    r_value: int | None
    submorphisms: tuple[SubMorphismConstants, ...]
    chosen_submorphism: int
    K: int
    p_factor_count: int
    preimage_bound: int
    power_exponent: int
    powered_norm: int
    powered_min: int
    K1: int
    K2: int
    cap: CapExpression

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
            "cap": self.cap.describe(),
        }


def compute_constant_sheet(
    sys: ProlongableSystem, compute_r: bool = True
) -> ConstantSheet:
    """Build the full sheet for a growing system (phi a coding or absent).

    The system is restricted to reachable letters first so the factor count
    refers to the generated language.
    """
    sys = restrict_to_reachable(sys)
    inc = sys.incidence
    p_const, q_const = pq_constants(inc)
    r_value = None
    if compute_r and is_primitive(inc.matrix):
        r_value = compute_R_sigma(sys)
    k_const, subs, chosen = compute_K(sys, r_value)

    # the bounded-window language is exact only when every letter grows
    if not inc.all_growing():
        raise InternalConsistencyError("factor count must be exact for growing sigma")
    p_count = len(_inner_language(sys, k_const + 1))

    target = (k_const + 1) ** 2
    k_pow = 1
    while min(inc.lengths_after(k_pow)) < target:
        k_pow += 1
        if k_pow > 4096:
            raise InternalConsistencyError("powering failed to reach (K+1)^2")
    powered_lengths = inc.lengths_after(k_pow)
    caps = compute_caps(
        k_const, q_const, max(powered_lengths), p_count, sys.sigma.max_image_len
    )
    return ConstantSheet(
        sigma_norm=sys.sigma.max_image_len,
        sigma_min=sys.sigma.min_image_len,
        p_const=p_const,
        q_const=q_const,
        r_value=r_value,
        submorphisms=subs,
        chosen_submorphism=chosen,
        K=k_const,
        p_factor_count=p_count,
        preimage_bound=caps.preimage_bound,
        power_exponent=k_pow,
        powered_norm=max(powered_lengths),
        powered_min=min(powered_lengths),
        K1=caps.K1,
        K2=caps.K2,
        cap=caps.cap,
    )
