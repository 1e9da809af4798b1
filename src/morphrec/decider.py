"""Decision pipeline for uniform recurrence of the generated sequence.

The flow: restrict to reachable letters, normalize the outer morphism to a
coding, raise sigma so cyclicity classes are stable, then split on whether
every letter grows.  Growing systems first get an exact periodicity check
(periods up to UPFRONT_QMAX, proposed by a prefix scan and confirmed on the
(q+1)-factors of x): a purely periodic x is uniformly recurrent and needs no
constant sheet.  The rest run the derived-descriptor iteration with
repetition detection; systems with bounded letters go through the
pumping-word branch.  Verdicts carry machine-checkable certificates.

The growing branch first drives the u-chain on sigma^p for the small powers
in LOW_POWERS and accepts only a certified repetition there; everything else
falls back to the full power P of the constant sheet, whose thresholds the
exit evidence needs.  Why a low-power repetition is sound: below P the
driver demands that every pair image sigma^p(w) is cut exactly into whole
return words (first cut at 0, closing cut at |sigma^p(w)|).  Each pair
(w, u') is then followed in y by its u', and the cuts are all occurrences of
v = phi(u) that start inside sigma^p(w), so Theta sigma_U = sigma^p Theta
holds letter for letter.  As sigma_U(1) starts with 1 and y is fixed by
sigma^p, y = Theta(D) for the fixed point D of sigma_U, and x = phi(y) cuts
at every occurrence of v into the x-side return words psi(D).  Levels n < m
with the same sigma_U and psi have D_n = D_m, and tau factors each level-m
return word at the occurrences of v_n (v_m starts with v_n), so
tau(psi(D_m)) = psi(D_n) = psi(D_m).  With tau primitive, psi(D_n) is the
fixed point of a primitive substitution, hence uniformly recurrent, and so
is its non-erasing image x.  No constant of the sheet enters this argument,
so it holds at any power (Durand 1998, "A characterization of substitutive
sequences using return words").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .constants import ConstantSheet, compute_constant_sheet
from .errors import (
    BudgetExhausted,
    InternalConsistencyError,
    NoPrimitiveSubmorphism,
    PreconditionViolated,
    WitnessSearchExhausted,
)
from .growth import block_decomposition, horn_exponent, is_primitive, mat_positive, mat_pow
from .morphism import Morphism, power
from .returns import DerivedDescriptor, DriverExit, build_sigma_U
from .stream import FixedPointStream, factor_language
from .system import ProlongableSystem, normalize_to_coding, restrict_to_reachable
from .words import Alphabet, occurrences_in_word

UNIFORMLY_RECURRENT = "uniformly_recurrent"
NOT_UNIFORMLY_RECURRENT = "not_uniformly_recurrent"
INCONCLUSIVE = "inconclusive"

# bounded-block encodings may chain when coding normalization reintroduces
# bounded letters; give up (soundly) after this many rounds
MAX_ENCODE_HOPS = 8

# powers tried, below the sheet's full power, before the full-power chain
LOW_POWERS = (1, 2, 3)

# largest period tried before the constant sheet: the exact check needs the
# (q+1)-factors of x, whose count grows with q, and short periods are common
UPFRONT_QMAX = 64

# a low-power try that exits this way ends the low pass: the u-chain and the
# x-side return words do not depend on the power, so a higher power walks to
# the same exit
_POWER_INDEPENDENT_EXITS = ("short-return", "E1")


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence: kind plus a JSON-ready payload."""

    kind: str  # repetition | periodic | exit | periodic_mismatch
    data: dict

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        out.update(self.data)
        return out


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: Certificate | None
    sheet: ConstantSheet | None
    trace: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.outcome,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "constants": self.sheet.to_json_dict() if self.sheet else None,
            "trace": [dict(t) for t in self.trace],
        }


@dataclass(frozen=True)
class PreparedSystem:
    """Input after restriction, coding normalization and the r_sigma power."""

    staged: ProlongableSystem
    r_sigma: int

    @cached_property
    def growing(self) -> bool:
        return self.staged.incidence.all_growing()


def prepare(sys: ProlongableSystem, trace: list[dict] | None = None) -> PreparedSystem:
    restricted = restrict_to_reachable(sys)
    coded = normalize_to_coding(restricted)
    r = block_decomposition(coded.incidence).r_sigma
    staged = coded.with_sigma_power(r) if r > 1 else coded
    if trace is not None:
        trace.append(
            {
                "step": "prepare",
                "letters": len(staged.alphabet),
                "r_sigma": r,
                "normalized": coded is not restricted,
            }
        )
    return PreparedSystem(staged=staged, r_sigma=r)


# ---------------------------------------------------------------------------
# periodicity machinery


def pure_period_check(sys: ProlongableSystem, q: int, budget: int = 1 << 22) -> bool:
    """Exact test: the outer sequence has period q.

    Equivalent formulation used here: every (q+1)-factor has equal first and
    last letter, which propagates to x[i] = x[i+q] for all i.
    """
    if q < 1:
        return False
    lang = factor_language(sys, q + 1, "x", budget=budget)
    return all(w[0] == w[q] for w in lang)


def _prefix_period_candidates(word: str, qmax: int) -> list[int]:
    """All q <= qmax that are periods of the given finite word (border scan)."""
    n = len(word)
    if n == 0:
        return []
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and word[i] != word[k]:
            k = fail[k - 1]
        if word[i] == word[k]:
            k += 1
        fail[i] = k
    out = []
    b = fail[n - 1]
    while True:
        q = n - b
        if q <= qmax:
            out.append(q)
        if b == 0:
            break
        b = fail[b - 1]
    return sorted(out)


def resolve_periodicity(
    sys: ProlongableSystem,
    qmax: int,
    scan: int | None = None,
    hints: tuple[int, ...] = (),
    budget: int = 1 << 22,
) -> tuple[int | None, dict]:
    """Find and exactly confirm a pure period of x, if one exists up to qmax.

    Candidates come from a prefix border scan plus caller hints; every
    candidate is confirmed or rejected by the exact factor condition, so a
    returned period is proven.  Returns (period, evidence).
    """
    scan_len = scan if scan is not None else max(8 * qmax, 1 << 14)
    prefix = FixedPointStream(sys, "x").prefix_chars(scan_len)
    candidates = _prefix_period_candidates(prefix, qmax)
    for h in hints:
        if 1 <= h <= qmax and h not in candidates:
            # a hinted period must at least survive the prefix scan
            if all(prefix[i] == prefix[i + h] for i in range(len(prefix) - h)):
                candidates.append(h)
    candidates = sorted(set(candidates))
    evidence = {"qmax": qmax, "scan_length": len(prefix), "candidates": candidates}
    for q in candidates:
        if pure_period_check(sys, q, budget=budget):
            return q, evidence
    return None, evidence


def _periodic_certificate(
    sys: ProlongableSystem, q: int, source: str, evidence: dict
) -> Certificate:
    """The certificate for a period q that resolve_periodicity confirmed."""
    word = sys.target_alphabet.decode(FixedPointStream(sys, "x").prefix_chars(q))
    return Certificate(
        kind="periodic",
        data={"word": word, "period": q, "source": source, "evidence": evidence},
    )


def _primitive_root(word: str) -> str:
    """Shortest z with word = z^k (classical doubling trick)."""
    n = len(word)
    d = (word + word).find(word, 1)
    return word[:d] if d and n % d == 0 else word


def periodic_checklist(sys: ProlongableSystem, w_tokens: list[str]) -> dict:
    """The three-condition test for x equal to the periodic word built on w.

    W is phi(w) reduced to its primitive root (period q).  Condition 1: every
    2q-factor of y maps under phi into the periodic language, i.e. splits as
    suffix * W^r * prefix.  Condition 2: adjacent windows agree on the phase.
    Condition 3: the phase at the start of y is zero.  Conditions 1 and 2
    alone force x to have period q (any phase); condition 3 pins x to start
    exactly at a W-boundary.
    """
    phi = sys.effective_phi
    w_enc = sys.alphabet.encode(w_tokens)
    if not w_enc:
        raise PreconditionViolated("the candidate periodic word must be nonempty")
    root = _primitive_root(phi.apply(w_enc))
    q = len(root)
    target = sys.target_alphabet
    report = {
        "w": list(w_tokens),
        "period_word": target.decode(root),
        "period": q,
    }

    def decompose(f: str):
        # unique phase o with f = root[q-o:] + root + root[:q-o]
        hits = []
        for o in range(q):
            if f[o : o + q] == root and f[:o] == root[q - o :] and f[o + q :] == root[: q - o]:
                hits.append(o)
        if len(hits) > 1:
            raise InternalConsistencyError("ambiguous split against a primitive word")
        return hits[0] if hits else None

    lang2 = sorted(factor_language(sys, 2 * q, "y"))
    phases = {}
    cond1 = True
    for b in lang2:
        o = decompose(phi.apply(b))
        phases[b] = o
        if o is None and cond1:
            cond1 = False
            report["condition1"] = {"holds": False, "witness": sys.alphabet.decode(b)}
    if cond1:
        report["condition1"] = {"holds": True, "windows": len(lang2)}

    cond2 = cond1
    if cond1:
        lang4 = sorted(factor_language(sys, 4 * q, "y"))
        for v in lang4:
            b, b2 = v[: 2 * q], v[2 * q :]
            o, o2 = phases[b], phases[b2]
            p_b = root[: q - o]
            s_b2 = root[q - o2 :]
            if p_b + s_b2 != root:
                cond2 = False
                report["condition2"] = {"holds": False, "witness": sys.alphabet.decode(v)}
                break
        if cond2:
            report["condition2"] = {"holds": True, "windows": len(lang4)}
    else:
        report["condition2"] = {"holds": False, "skipped": "condition1 failed"}

    b_pref = FixedPointStream(sys, "y").prefix_chars(2 * q)
    o_pref = phases.get(b_pref, decompose(phi.apply(b_pref)))
    cond3 = o_pref == 0
    report["condition3"] = {"holds": cond3, "start_phase": o_pref}
    report["periodic"] = cond1 and cond2
    report["anchored"] = cond1 and cond2 and cond3
    return report


# ---------------------------------------------------------------------------
# unconditional letter-recurrence screen


def finite_letter_witness(sys: ProlongableSystem) -> str | None:
    """An x-letter that occurs in x but only finitely often, if the letter
    graph proves one.

    Occurrence counts in y satisfy count_k = M^k e_a, so the increment vector
    evolves as M^k w where w counts the prolongation tail (sigma(a) = a w).
    A y-letter recurs infinitely iff some tail letter reaches a cycle vertex
    that reaches it; an x-letter recurs iff some preimage does.  Assumes the
    alphabet is already restricted to letters occurring in y.
    """
    sigma = sys.sigma
    alpha = sys.alphabet
    n = len(alpha)
    idx = {t: j for j, t in enumerate(alpha.tokens)}
    succ = [sorted({idx[t] for t in sigma.image_tokens(s)}) for s in alpha.tokens]
    reach = []
    for j0 in range(n):
        seen = {j0}
        stack = [j0]
        while stack:
            j = stack.pop()
            for k in succ[j]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        reach.append(seen)
    on_cycle = {c for c in range(n) if any(c in reach[k] for k in succ[c])}
    tail = sigma.image_tokens(sys.start)[1:]
    infinite = set()
    for s in sorted({idx[t] for t in tail}):
        for c in sorted(on_cycle & reach[s]):
            infinite |= reach[c]
    phi = sys.effective_phi
    finite_y = [alpha.tokens[j] for j in range(n) if j not in infinite]
    if not finite_y:
        return None
    infinite_images = {phi.image(alpha.tokens[j])[0] for j in sorted(infinite)}
    for t in finite_y:
        img = phi.image(t)[0]
        if img not in infinite_images:
            return sys.target_alphabet.token_of_char(img)
    return None


# ---------------------------------------------------------------------------
# growing pipeline


def _connecting_morphism(
    sys: ProlongableSystem,
    desc_low: DerivedDescriptor,
    desc_high: DerivedDescriptor,
) -> Morphism:
    """tau with Theta_low(tau(j)) = Theta_high(j): factor each high-level
    return word over the low-level table by cutting at occurrences of the
    low-level prefix."""
    target = sys.target_alphabet
    v_low = target.encode(list(desc_low.v))
    low_words = [target.encode(list(w)) for w in desc_low.x_returns]
    index_of = {w: i + 1 for i, w in enumerate(low_words)}
    images: dict[str, list[str]] = {}
    for j, wt in enumerate(desc_high.x_returns, start=1):
        f = target.encode(list(wt))
        ext = f + v_low
        cuts = [c for c in occurrences_in_word(ext, v_low) if c < len(f)]
        if not cuts or cuts[0] != 0:
            raise InternalConsistencyError("high-level return word misses the anchor")
        cuts.append(len(f))
        idx = []
        for a, b in zip(cuts, cuts[1:]):
            piece = f[a:b]
            if piece not in index_of:
                raise InternalConsistencyError(
                    "high-level return word does not factor over the low-level table"
                )
            idx.append(str(index_of[piece]))
        images[str(j)] = idx
    src = Alphabet.indexed(len(desc_high.x_returns))
    dst = Alphabet.indexed(len(desc_low.x_returns))
    tau = Morphism.from_tokens(src, dst, images)
    # re-check the defining equation letter by letter
    for j, wt in enumerate(desc_high.x_returns, start=1):
        rebuilt = "".join(low_words[int(t) - 1] for t in tau.image_tokens(str(j)))
        if rebuilt != target.encode(list(wt)):
            raise InternalConsistencyError("connecting morphism fails its defining equation")
    return tau


def _certify_repetition(
    sys: ProlongableSystem,
    power: int,
    n_low: int,
    n_high: int,
    desc_low: DerivedDescriptor,
    desc_high: DerivedDescriptor,
    budget: int = 1 << 22,
) -> Certificate | None:
    """Build the UR certificate from two levels with equal descriptors.

    Returns None when the connecting morphism is not primitive (the caller
    then keeps iterating).  A 1x1 repetition is certified as exact pure
    periodicity instead.
    """
    tau = _connecting_morphism(sys, desc_low, desc_high)
    if len(desc_low.x_returns) == 1:
        q = len(desc_low.x_returns[0])
        if not pure_period_check(sys, q, budget=budget):
            raise InternalConsistencyError(
                "singleton return table without pure periodicity"
            )
        return Certificate(
            kind="periodic",
            data={
                "word": list(desc_low.x_returns[0]),
                "period": q,
                "source": "repetition-1x1",
                "levels": [n_low, n_high],
            },
        )
    mat = tuple(tuple(r) for r in tau.incidence_matrix())
    if not is_primitive(mat):
        return None
    k = horn_exponent(mat)
    if not mat_positive(mat_pow(mat, k)):
        raise InternalConsistencyError("horn exponent failed to produce positivity")
    if tau.image_tokens("1")[0] != "1":
        return None
    return Certificate(
        kind="repetition",
        data={
            "n": n_low,
            "m": n_high,
            "power": power,
            "table_size": len(desc_high.x_returns),
            "pair_count": len(desc_high.pairs),
            "tau": [[int(t) for t in tau.image_tokens(str(j))] for j in range(1, len(desc_high.x_returns) + 1)],
            "positivity_power": k,
            "canonical": desc_low.canonical_text(),
        },
    )


def _exit_certificate(
    exit_: DriverExit, level: int, u_len: int, resolution: dict | None
) -> Certificate:
    data = {
        "exit": exit_.kind,
        "unconditional": exit_.unconditional,
        "level": level,
        "u_length": u_len,
        "message": exit_.message,
        "evidence": dict(exit_.evidence),
    }
    if resolution is not None:
        data["resolution"] = resolution
    return Certificate(kind="exit", data=data)


def _levels(
    sys_pow: ProlongableSystem,
    power: int,
    sheet: ConstantSheet,
    last: int,
    pair_budget: int,
    work_budget: int,
):
    """The u-chain on sys_pow = sigma^power: yields (n, u, descriptor or
    exit) for the levels 1..last and stops after the first exit.  Below the
    full power every pair image must be anchored."""
    u: list[str] = [sys_pow.start]
    for n in range(1, last + 1):
        res = build_sigma_U(
            sys_pow,
            u,
            sheet.K,
            K1=sheet.K1,
            pair_budget=pair_budget,
            work_budget=work_budget,
            anchored=power < sheet.power_exponent,
        )
        yield n, u, res
        if isinstance(res, DriverExit):
            return
        # next prefix: y up to and including the second occurrence of v,
        # which is the first pair's w followed by its closing u'
        u = list(res.pairs[0][0]) + list(res.pairs[0][1])


def _chain(
    sys_pow: ProlongableSystem,
    power: int,
    sheet: ConstantSheet,
    practical_cap: int,
    pair_budget: int,
    work_budget: int,
    trace: list[dict],
):
    """Drive the u-chain up to the practical cap, watching for repetitions.

    Returns the certificate of the first certified repetition, the
    (level, |u|, exit) of a driver exit, or None when the cap is reached.
    """
    seen: dict[str, tuple[int, DerivedDescriptor]] = {}
    for n, u, res in _levels(sys_pow, power, sheet, practical_cap, pair_budget, work_budget):
        if isinstance(res, DriverExit):
            return n, len(u), res
        canon = res.canonical_text()
        trace.append(
            {
                "step": "level",
                "n": n,
                "u_length": len(u),
                "pairs": len(res.pairs),
                "x_returns": len(res.x_returns),
            }
        )
        if canon in seen:
            n_low, desc_low = seen[canon]
            cert = _certify_repetition(sys_pow, power, n_low, n, desc_low, res)
            if cert is not None:
                return cert
            trace.append({"step": "rejected-match", "n": n, "with": n_low})
        else:
            seen[canon] = (n, res)
    return None


def _growing_verdict(
    prepared: PreparedSystem,
    sheet: ConstantSheet,
    practical_cap: int,
    pair_budget: int,
    work_budget: int,
    trace: list[dict],
) -> Verdict:
    staged = prepared.staged
    for p in LOW_POWERS:
        if p >= sheet.power_exponent:
            break
        try:
            found = _chain(
                staged.with_sigma_power(p), p, sheet, practical_cap, pair_budget, work_budget, []
            )
        except BudgetExhausted:
            found = None
        certified = isinstance(found, Certificate)
        trace.append({"step": "low-power", "power": p, "certified": certified})
        if certified:
            return Verdict(UNIFORMLY_RECURRENT, found, sheet, tuple(trace))
        if isinstance(found, tuple) and found[2].kind in _POWER_INDEPENDENT_EXITS:
            break

    sys_pow = staged.with_sigma_power(sheet.power_exponent)
    trace.append(
        {
            "step": "power",
            "exponent": sheet.power_exponent,
            "min_image": sheet.powered_min,
            "target": (sheet.K + 1) ** 2,
        }
    )
    found = _chain(
        sys_pow, sheet.power_exponent, sheet, practical_cap, pair_budget, work_budget, trace
    )
    if isinstance(found, Certificate):
        return Verdict(UNIFORMLY_RECURRENT, found, sheet, tuple(trace))

    if found is None:
        if sheet.cap.exceeded_by(practical_cap + 1):
            cert = Certificate(
                kind="exit",
                data={
                    "exit": "cap",
                    "unconditional": True,
                    "level": practical_cap + 1,
                    "message": "descriptor count exceeded the theoretical cap",
                    "evidence": {"cap": sheet.cap.describe()},
                },
            )
            return Verdict(NOT_UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))
        q, ev = resolve_periodicity(sys_pow, qmax=4096)
        if q is not None:
            cert = _periodic_certificate(sys_pow, q, "cap-resolution", ev)
            return Verdict(UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))
        trace.append({"step": "cap", "practical_cap": practical_cap})
        return Verdict(INCONCLUSIVE, None, sheet, tuple(trace))

    n, u_len, res = found
    if res.unconditional:
        return Verdict(
            NOT_UNIFORMLY_RECURRENT,
            _exit_certificate(res, n, u_len, None),
            sheet,
            tuple(trace),
        )
    qmax = max(2 * u_len, 512)
    q, ev = resolve_periodicity(sys_pow, qmax=qmax)
    if q is not None:
        cert = _periodic_certificate(sys_pow, q, "guarded-exit-resolution", ev)
        return Verdict(UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))
    return Verdict(
        NOT_UNIFORMLY_RECURRENT,
        _exit_certificate(res, n, u_len, ev),
        sheet,
        tuple(trace),
    )


# ---------------------------------------------------------------------------
# non-growing branch


def _pumping_witness(sys: ProlongableSystem, kmax: int):
    """Search powers sigma^k for a growing letter g with sigma^k(g) = v g u,
    u a nonempty word of bounded letters (or the mirrored form).

    Never materializes sigma^k.  An occurrence of g with an all-bounded right
    part must be the last growing letter of sigma^k(g), and the last-growing
    letter of sigma^k(g) is the k-th iterate of the one-step map L; the
    bounded trail is nonempty iff some letter along the L-orbit contributes
    one.  Mirrored for the left form with the first-growing map F.
    """
    inc = sys.incidence
    alpha = sys.alphabet
    sigma = sys.sigma
    gset = {t for t in alpha.tokens if inc.is_growing(t)}
    if not gset:
        return None
    first, last, lead1, trail1 = {}, {}, {}, {}
    for g in sorted(gset):
        img = sigma.image_tokens(g)
        gpos = [i for i, t in enumerate(img) if t in gset]
        first[g] = img[gpos[0]]
        last[g] = img[gpos[-1]]
        lead1[g] = alpha.encode(img[: gpos[0]])
        trail1[g] = alpha.encode(img[gpos[-1] + 1 :])

    def trail_word(g: str, k: int) -> str:
        # T_j(g) = trail1(L^{j-1}(g)) + sigma(T_{j-1}(g))
        t, h = "", g
        for _ in range(k):
            t = trail1[h] + sigma.apply(t)
            h = last[h]
        return t

    def lead_word(g: str, k: int) -> str:
        t, h = "", g
        for _ in range(k):
            t = sigma.apply(t) + lead1[h]
            h = first[h]
        return t

    def small_image(g: str, k: int) -> str | None:
        word = alpha.encode([g])
        for _ in range(k):
            word = sigma.apply(word)
            if len(word) > 4096:
                return None
        return word

    for k in range(1, kmax + 1):
        for g in sorted(gset):
            h, flag = g, False
            for _ in range(k):
                flag = flag or bool(trail1[h])
                h = last[h]
            if h == g and flag:
                u = trail_word(g, k)
                out = {"letter": g, "power": k, "u": alpha.decode(u), "side": "right"}
                img = small_image(g, k)
                if img is not None:
                    out["v"] = alpha.decode(img[: len(img) - len(u) - 1])
                return out
            h, flag = g, False
            for _ in range(k):
                flag = flag or bool(lead1[h])
                h = first[h]
            if h == g and flag:
                u = lead_word(g, k)
                out = {"letter": g, "power": k, "u": alpha.decode(u), "side": "left"}
                img = small_image(g, k)
                if img is not None:
                    out["v"] = alpha.decode(img[len(u) + 1 :])
                return out
    return None


def _apply_times(sigma, word: str, k: int) -> str:
    for _ in range(k):
        word = sigma.apply(word)
    return word


def _pumping_word(sys: ProlongableSystem, witness: dict) -> list[str]:
    """One period of the eventually periodic tail u, tau(u), tau^2(u), ...
    (read outward from the pumped letter), for tau = sigma^power."""
    alpha = sys.alphabet
    k = witness["power"]
    cur = alpha.encode(list(witness["u"]))
    seen: dict[str, int] = {}
    words = []
    while cur not in seen:
        seen[cur] = len(words)
        words.append(cur)
        cur = _apply_times(sys.sigma, cur, k)
        if len(cur) > 1 << 16:
            raise InternalConsistencyError("bounded letters produced an unbounded image")
    t0 = seen[cur]
    cycle = words[t0:]
    if witness["side"] == "left":
        cycle = list(reversed(cycle))
    return alpha.decode("".join(cycle))


def _encode_bounded_blocks(sys: ProlongableSystem, budget: int = 512):
    """Rewrite y over cells (growing letter + following bounded block) so the
    new substitution is growing and the image sequence is unchanged.

    Tokens are pairs (cell, next growing letter); sigma is first raised so
    every growing letter's image contains at least two growing letters,
    which makes the token images self-contained.
    """
    inc = sys.incidence
    alpha = sys.alphabet
    growing = {t for t in alpha.tokens if inc.is_growing(t)}
    if sys.start not in growing:
        raise WitnessSearchExhausted("the axiom letter does not grow")

    # power so the start letter's image spans at least two cells; counting
    # goes through the incidence matrix, the power is materialized once
    mat = sys.sigma.incidence_matrix()
    n = len(alpha.tokens)
    start_i = alpha.tokens.index(sys.start)
    grow_i = [i for i, t in enumerate(alpha.tokens) if t in growing]
    vec = [1 if i == start_i else 0 for i in range(n)]
    p1 = 0
    while sum(vec[i] for i in grow_i) < 2:
        vec = [sum(mat[i][j] * vec[j] for j in range(n)) for i in range(n)]
        p1 += 1
        if p1 > 64:
            raise WitnessSearchExhausted("images refuse to accumulate growing letters")
    tau = power(sys.sigma, p1) if p1 > 1 else sys.sigma
    if tau.max_image_len > 1 << 20:
        raise WitnessSearchExhausted("cell images exceeded their budget")

    def carved(word_tokens):
        """Split a token word into leading block + [(g, following block)...]."""
        cells = []
        i = 0
        lead = []
        while i < len(word_tokens) and word_tokens[i] not in growing:
            lead.append(word_tokens[i])
            i += 1
        while i < len(word_tokens):
            g = word_tokens[i]
            i += 1
            blk = []
            while i < len(word_tokens) and word_tokens[i] not in growing:
                blk.append(word_tokens[i])
                i += 1
            cells.append((g, tuple(blk)))
        return lead, cells

    def lead_of(g):
        lead, _ = carved(tau.image_tokens(g))
        return lead

    def first_growing_of(g):
        _, cells = carved(tau.image_tokens(g))
        return cells[0][0]

    # first two cells of y's own cell sequence
    ystream = FixedPointStream(ProlongableSystem(tau, sys.start, sys.phi), "y")
    head = ystream.prefix(4096)
    _, head_cells = carved(head)
    if len(head_cells) < 2:
        raise WitnessSearchExhausted("could not read two cells from the fixed point")

    start_token = (head_cells[0], head_cells[1][0])
    token_index: dict = {start_token: 1}
    order = [start_token]
    images: dict[int, list[int]] = {}
    pos = 0
    while pos < len(order):
        (g, blk), nxt = order[pos]
        pos += 1
        word = list(tau.image_tokens(g))
        for b in blk:
            word.extend(tau.image_tokens(b))
        # the leading block of the image belongs to the previous token
        _, cells = carved(word)
        if not cells:
            raise WitnessSearchExhausted("a cell image contains no growing letter")
        # complete the trailing block with the lead of the next token's image
        g_last, blk_last = cells[-1]
        cells[-1] = (g_last, tuple(list(blk_last) + lead_of(nxt)))
        toks = []
        for i, cell in enumerate(cells):
            follower = cells[i + 1][0] if i + 1 < len(cells) else first_growing_of(nxt)
            toks.append((cell, follower))
        img_ids = []
        for t in toks:
            if t not in token_index:
                token_index[t] = len(order) + 1
                order.append(t)
                if len(order) > budget:
                    raise WitnessSearchExhausted("cell alphabet exceeded its budget")
            img_ids.append(token_index[t])
        images[token_index[((g, blk), nxt)]] = img_ids

    idx = Alphabet.indexed(len(order))
    sigma_tokens = {str(i): [str(j) for j in images[i]] for i in range(1, len(order) + 1)}
    new_sigma = Morphism.from_tokens(idx, idx, sigma_tokens)

    phi = sys.effective_phi
    target = sys.target_alphabet

    def token_image(t):
        (g, blk), _ = t
        return target.decode(phi.apply(alpha.encode([g, *blk])))

    phi_tokens = {str(i): token_image(order[i - 1]) for i in range(1, len(order) + 1)}
    new_phi = Morphism.from_tokens(idx, target, phi_tokens)
    encoded = ProlongableSystem(new_sigma, "1", new_phi)
    if not encoded.is_prolongable():
        raise InternalConsistencyError("block encoding lost prolongability")

    # the encoding must reproduce the image sequence letter for letter
    want = FixedPointStream(sys, "x").prefix(512)
    got = FixedPointStream(encoded, "x").prefix(512)
    if want != got:
        raise InternalConsistencyError("block encoding changed the image sequence")
    return encoded, {"tokens": len(order), "power": p1}


def _nongrowing_verdict(
    prepared: PreparedSystem,
    practical_cap: int,
    pair_budget: int,
    work_budget: int,
    trace: list[dict],
    _depth: int,
) -> Verdict:
    staged = prepared.staged
    kmax = max(len(staged.alphabet) * max(prepared.r_sigma, 1), len(staged.alphabet))
    witness = _pumping_witness(staged, kmax)
    if witness is None:
        if _depth >= MAX_ENCODE_HOPS:
            trace.append(
                {"step": "nongrowing", "status": "unresolved", "reason": "encode depth limit"}
            )
            return Verdict(INCONCLUSIVE, None, None, tuple(trace))
        try:
            encoded, info = _encode_bounded_blocks(staged)
        except WitnessSearchExhausted as e:
            trace.append({"step": "nongrowing", "status": "unresolved", "reason": str(e)})
            return Verdict(INCONCLUSIVE, None, None, tuple(trace))
        trace.append({"step": "block-encode", **info})
        return _decide(
            encoded, practical_cap, pair_budget, work_budget, trace, _depth + 1
        )

    trace.append(
        {
            "step": "nongrowing",
            "witness_letter": witness["letter"],
            "witness_power": witness["power"],
            "witness_side": witness["side"],
        }
    )
    w = _pumping_word(staged, witness)
    report = periodic_checklist(staged, w)
    pumping = {
        "letter": witness["letter"],
        "power": witness["power"],
        "side": witness["side"],
        "u": list(witness["u"]),
        "w": list(w),
    }
    if "v" in witness:
        pumping["v"] = list(witness["v"])
    if report["periodic"]:
        q = report["period"]
        if not pure_period_check(staged, q):
            raise InternalConsistencyError("checklist passed but direct period test failed")
        word = staged.target_alphabet.decode(FixedPointStream(staged, "x").prefix_chars(q))
        cert = Certificate(
            kind="periodic",
            data={
                "word": word,
                "period": q,
                "source": "nongrowing",
                "pumping": pumping,
                "checklist": report,
            },
        )
        return Verdict(UNIFORMLY_RECURRENT, cert, None, tuple(trace))
    failing = 1 if not report["condition1"]["holds"] else 2
    cert = Certificate(
        kind="periodic_mismatch",
        data={
            "failing_condition": failing,
            "pumping": pumping,
            "checklist": report,
        },
    )
    return Verdict(NOT_UNIFORMLY_RECURRENT, cert, None, tuple(trace))


# ---------------------------------------------------------------------------
# entry points


def _preimage_system(sys: ProlongableSystem) -> ProlongableSystem | None:
    """The identity-coded fixed point, when deciding it first can settle x.

    Applies only when phi is non-erasing and not a coding: then x is a
    non-erasing morphic image of y, so y uniformly recurrent forces x
    uniformly recurrent.  Returns None when the shortcut does not apply.
    """
    restricted = restrict_to_reachable(sys)
    phi = restricted.phi
    if (
        phi is None
        or phi.is_erasing
        or phi.max_image_len == 1
        or restricted.sigma.is_erasing
    ):
        return None
    return ProlongableSystem(restricted.sigma, restricted.start, None)


def _image_shortcut(
    sys: ProlongableSystem,
    practical_cap: int,
    pair_budget: int,
    work_budget: int,
    trace: list[dict],
) -> Verdict | None:
    """Decide the fixed point alone before paying for the letter blow-up.

    The blow-up multiplies the alphabet and can inflate the recurrence
    constants past any workable power target, while the underlying fixed
    point is often cheap to certify.  Only a positive answer transfers:
    a collapsing phi can turn a non-recurrent y into a recurrent x, so
    anything other than UR falls through to the full pipeline.
    """
    inner = _preimage_system(sys)
    if inner is None:
        return None
    trace.append(
        {"step": "image-shortcut", "status": "deciding-preimage", "letters": len(inner.alphabet)}
    )
    try:
        sub = _decide(inner, practical_cap, pair_budget, work_budget, trace, 1)
    except BudgetExhausted as e:
        trace.append({"step": "image-shortcut", "status": "fallthrough", "reason": str(e)})
        return None
    if sub.outcome != UNIFORMLY_RECURRENT or sub.certificate is None:
        trace.append(
            {"step": "image-shortcut", "status": "fallthrough", "preimage_outcome": sub.outcome}
        )
        return None
    data = dict(sub.certificate.data)
    data["via"] = "preimage"
    trace.append({"step": "image-shortcut", "status": "resolved"})
    return Verdict(
        UNIFORMLY_RECURRENT, Certificate(sub.certificate.kind, data), sub.sheet, tuple(trace)
    )


def _decide(
    sys: ProlongableSystem,
    practical_cap: int,
    pair_budget: int,
    work_budget: int,
    trace: list[dict],
    _depth: int,
) -> Verdict:
    if _depth == 0:
        shortcut = _image_shortcut(sys, practical_cap, pair_budget, work_budget, trace)
        if shortcut is not None:
            return shortcut
    prepared = prepare(sys, trace)
    letter = finite_letter_witness(prepared.staged)
    if letter is not None:
        cert = Certificate(
            kind="exit",
            data={
                "exit": "letter",
                "unconditional": True,
                "level": 0,
                "letter": letter,
                "message": f"letter {letter} occurs in x but only finitely often",
                "evidence": {"graph": "no cycle reaches a preimage"},
            },
        )
        return Verdict(NOT_UNIFORMLY_RECURRENT, cert, None, tuple(trace))
    if not prepared.growing:
        return _nongrowing_verdict(
            prepared, practical_cap, pair_budget, work_budget, trace, _depth
        )
    # a periodic x is uniformly recurrent; a check that finds no period or
    # runs out of budget leaves the decision to the sheet and the chain
    try:
        q, ev = resolve_periodicity(prepared.staged, qmax=UPFRONT_QMAX, scan=8 * UPFRONT_QMAX)
    except BudgetExhausted:
        q = None
    if q is not None:
        trace.append({"step": "upfront-periodic", "period": q})
        cert = _periodic_certificate(prepared.staged, q, "upfront", ev)
        return Verdict(UNIFORMLY_RECURRENT, cert, None, tuple(trace))
    try:
        sheet = compute_constant_sheet(prepared.staged)
    except (PreconditionViolated, NoPrimitiveSubmorphism, BudgetExhausted) as e:
        q, ev = resolve_periodicity(prepared.staged, qmax=1024)
        if q is not None:
            cert = _periodic_certificate(prepared.staged, q, "constants-unavailable", ev)
            return Verdict(UNIFORMLY_RECURRENT, cert, None, tuple(trace))
        trace.append({"step": "constants", "status": "unavailable", "reason": str(e)})
        return Verdict(INCONCLUSIVE, None, None, tuple(trace))
    trace.append({"step": "constants", "K": sheet.K, "K1": sheet.K1, "K2": sheet.K2})
    return _growing_verdict(
        prepared, sheet, practical_cap, pair_budget, work_budget, trace
    )


def decide_uniform_recurrence(
    sys: ProlongableSystem,
    practical_cap: int = 64,
    pair_budget: int = 4096,
    work_budget: int = 1 << 26,
) -> Verdict:
    """Full decision pipeline; see the module docstring for the stages."""
    if practical_cap < 2:
        raise ValueError("practical_cap must be at least 2")
    trace: list[dict] = []
    try:
        return _decide(sys, practical_cap, pair_budget, work_budget, trace, 0)
    except BudgetExhausted as e:
        trace.append({"step": "budget", "reason": str(e)})
        return Verdict(INCONCLUSIVE, None, None, tuple(trace))


# ---------------------------------------------------------------------------
# certificate verification


def _stage_chain(sys: ProlongableSystem) -> list[PreparedSystem]:
    """Replay the preprocessing chain: prepare, then bounded-block encodings
    for as long as the decider would have applied them."""
    prepared = prepare(sys, None)
    stages = [prepared]
    hops = 0
    while not prepared.growing and hops < MAX_ENCODE_HOPS:
        staged = prepared.staged
        kmax = max(len(staged.alphabet) * max(prepared.r_sigma, 1), len(staged.alphabet))
        if _pumping_witness(staged, kmax) is not None:
            break
        try:
            encoded, _ = _encode_bounded_blocks(staged)
        except WitnessSearchExhausted:
            break
        prepared = prepare(encoded, None)
        stages.append(prepared)
        hops += 1
    return stages


def _growing_stage(sys: ProlongableSystem) -> PreparedSystem | None:
    """The growing-branch input the decider would have used, if any."""
    last = _stage_chain(sys)[-1]
    return last if last.growing else None


def _drive_to_level(
    prepared: PreparedSystem,
    sheet: ConstantSheet,
    level: int,
    pair_budget: int,
    work_budget: int,
    power: int | None = None,
):
    """Reproduce the u-chain on sigma^power (default: the sheet's full power);
    returns (powered system, descriptors by level, exit or None)."""
    if power is None:
        power = sheet.power_exponent
    sys_pow = prepared.staged.with_sigma_power(power)
    out = {}
    for n, _, res in _levels(sys_pow, power, sheet, level, pair_budget, work_budget):
        if isinstance(res, DriverExit):
            return sys_pow, out, (n, res)
        out[n] = res
    return sys_pow, out, None


@dataclass(frozen=True)
class DeriveChainResult:
    """Replay of the u-chain for inspection: the growing stage, its constant
    sheet, the powered system actually driven, the descriptor at each level
    reached, and the driver exit that stopped the chain early (if any)."""

    stage: PreparedSystem
    sheet: ConstantSheet
    powered: ProlongableSystem
    levels: dict
    driver_exit: tuple[int, DriverExit] | None


def derive_chain(
    sys: ProlongableSystem,
    depth: int,
    pair_budget: int = 4096,
    work_budget: int = 1 << 26,
) -> DeriveChainResult:
    """Drive the descriptor chain u_1, u_2, ... down to the requested depth.

    The input is staged exactly as the decision pipeline stages it
    (restriction, coding normalization, the r_sigma power, bounded-block
    encodings when needed); only a growing stage carries a chain, so systems
    that resolve entirely in the non-growing branch are rejected.
    """
    if depth < 1:
        raise PreconditionViolated("chain depth must be at least 1")
    stage = _growing_stage(sys)
    if stage is None:
        raise PreconditionViolated(
            "no growing stage: this system resolves in the non-growing branch"
        )
    sheet = compute_constant_sheet(stage.staged)
    powered, levels, exited = _drive_to_level(stage, sheet, depth, pair_budget, work_budget)
    return DeriveChainResult(stage, sheet, powered, levels, exited)


def verify_certificate(sys: ProlongableSystem, verdict: Verdict) -> tuple[bool, dict]:
    """Recheck a verdict's certificate from scratch.  Total: never raises.

    The check runs on new morphism objects, so no analysis that an earlier
    decide cached on the caller's sigma or phi is reused.
    """
    cert = verdict.certificate
    if cert is None:
        return False, {"reason": "no certificate to verify"}
    try:
        fresh = ProlongableSystem(
            replace(sys.sigma), sys.start, replace(sys.phi) if sys.phi is not None else None
        )
        return _verify(fresh, verdict, cert)
    except Exception as e:  # noqa: BLE001 - verification must be total
        return False, {"reason": f"verification raised {type(e).__name__}: {e}"}


_CERT_OUTCOME = {
    "repetition": UNIFORMLY_RECURRENT,
    "periodic": UNIFORMLY_RECURRENT,
    "periodic_mismatch": NOT_UNIFORMLY_RECURRENT,
    "exit": NOT_UNIFORMLY_RECURRENT,
}


def _verify(sys: ProlongableSystem, verdict: Verdict, cert: Certificate) -> tuple[bool, dict]:
    expected = _CERT_OUTCOME.get(cert.kind)
    if expected is None:
        return False, {"reason": f"unknown certificate kind {cert.kind!r}"}
    if verdict.outcome != expected:
        return False, {
            "reason": f"a {cert.kind} certificate implies {expected}, "
            f"but the verdict claims {verdict.outcome}"
        }
    if cert.data.get("via") == "preimage":
        inner = _preimage_system(sys)
        if inner is None:
            return False, {"reason": "preimage shortcut does not apply to this system"}
        stripped = dict(cert.data)
        stripped.pop("via")
        return _verify(inner, verdict, Certificate(cert.kind, stripped))
    if cert.kind == "repetition":
        prepared = _growing_stage(sys)
        if prepared is None:
            return False, {"reason": "repetition certificate on a pumping-branch system"}
        sheet = compute_constant_sheet(prepared.staged)
        n, m = cert.data["n"], cert.data["m"]
        if not (1 <= n < m):
            return False, {"reason": "levels must satisfy 1 <= n < m"}
        power = cert.data.get("power")
        if type(power) is not int or not 1 <= power <= sheet.power_exponent:
            return False, {
                "reason": f"power must be an int in 1..{sheet.power_exponent}, got {power!r}"
            }
        sys_pow, descs, exited = _drive_to_level(
            prepared, sheet, m, pair_budget=4096, work_budget=1 << 26, power=power
        )
        if exited is not None:
            return False, {"reason": f"driver exited at level {exited[0]}"}
        low, high = descs[n], descs[m]
        if low.canonical_text() != high.canonical_text():
            return False, {
                "reason": "descriptors differ",
                "diff": {"n": low.canonical_text(), "m": high.canonical_text()},
            }
        tau = _connecting_morphism(sys_pow, low, high)
        rebuilt = [
            [int(t) for t in tau.image_tokens(str(j))]
            for j in range(1, len(high.x_returns) + 1)
        ]
        if rebuilt != cert.data["tau"]:
            return False, {"reason": "stored tau differs from the rebuilt one"}
        if cert.data["table_size"] != len(high.x_returns):
            return False, {"reason": "stored table size differs from the rebuilt one"}
        if cert.data["pair_count"] != len(high.pairs):
            return False, {"reason": "stored pair count differs from the rebuilt one"}
        if cert.data["canonical"] != low.canonical_text():
            return False, {"reason": "stored canonical form differs from the rebuilt one"}
        mat = tuple(tuple(r) for r in tau.incidence_matrix())
        if not is_primitive(mat):
            return False, {"reason": "tau is not primitive"}
        if not mat_positive(mat_pow(mat, cert.data["positivity_power"])):
            return False, {"reason": "stated power does not make tau positive"}
        if tau.image_tokens("1")[0] != "1":
            return False, {"reason": "tau is not prolongable on index 1"}
        return True, {"checked": "repetition", "n": n, "m": m}

    if cert.kind == "periodic":
        prepared = prepare(sys, [])
        staged = prepared.staged
        q = cert.data["period"]
        word = cert.data["word"]
        if q != len(word) or q < 1:
            return False, {"reason": "period does not match the word length"}
        got = staged.target_alphabet.decode(FixedPointStream(staged, "x").prefix_chars(q))
        if got != list(word):
            return False, {"reason": "stored word is not the x-prefix"}
        if not pure_period_check(staged, q):
            return False, {"reason": "exact period test failed"}
        if cert.data.get("source") == "nongrowing":
            stage = _stage_chain(sys)[-1]
            if stage.growing:
                return False, {"reason": "checklist stage is growing after all"}
            report = periodic_checklist(stage.staged, cert.data["pumping"]["w"])
            if not report["periodic"]:
                return False, {"reason": "checklist no longer passes"}
        return True, {"checked": "periodic", "period": q}

    if cert.kind == "periodic_mismatch":
        stage = _stage_chain(sys)[-1]
        if stage.growing:
            return False, {"reason": "mismatch certificate on a growing system"}
        staged = stage.staged
        kmax = max(len(staged.alphabet) * max(stage.r_sigma, 1), len(staged.alphabet))
        if _pumping_witness(staged, kmax) is None:
            return False, {"reason": "pumping witness no longer found"}
        report = periodic_checklist(staged, cert.data["pumping"]["w"])
        if report["periodic"]:
            return False, {"reason": "checklist passes; mismatch claim is wrong"}
        failing = 1 if not report["condition1"]["holds"] else 2
        if failing != cert.data["failing_condition"]:
            return False, {"reason": "failing condition differs"}
        return True, {"checked": "periodic_mismatch", "condition": failing}

    if cert.kind == "exit":
        data = cert.data
        if data["exit"] == "letter":
            for st in _stage_chain(sys):
                if finite_letter_witness(st.staged) == data["letter"]:
                    return True, {"checked": "letter", "letter": data["letter"]}
            return False, {"reason": "letter witness not reproduced"}
        prepared = _growing_stage(sys)
        if prepared is None:
            return False, {"reason": "exit certificate on a pumping-branch system"}
        if data["exit"] == "cap":
            return False, {"reason": "theoretical-cap exits are not re-driven"}
        sheet = compute_constant_sheet(prepared.staged)
        level = data["level"]
        sys_pow, descs, exited = _drive_to_level(
            prepared, sheet, level, pair_budget=4096, work_budget=1 << 26
        )
        if exited is None:
            return False, {"reason": "driver did not exit at the stated level"}
        got_level, got_exit = exited
        if got_level != level or got_exit.kind != data["exit"]:
            return False, {
                "reason": "exit mismatch",
                "got": {"level": got_level, "kind": got_exit.kind},
            }
        if got_exit.unconditional != data["unconditional"]:
            return False, {"reason": "exit conditionality differs"}
        if not got_exit.unconditional:
            qmax = data.get("resolution", {}).get("qmax", 512)
            q, _ = resolve_periodicity(sys_pow, qmax=qmax)
            if q is not None:
                return False, {"reason": f"a pure period {q} was found after all"}
        return True, {"checked": "exit", "kind": data["exit"], "level": level}

    return False, {"reason": f"unknown certificate kind {cert.kind!r}"}
