"""Decision pipeline for uniform recurrence of the generated sequence.

The flow: restrict to reachable letters, normalize the outer morphism to a
coding, raise sigma so cyclicity classes are stable, then split on whether
every letter grows.  Growing systems first get an exact periodicity check
(periods up to UPFRONT_QMAX, proposed by a prefix scan and confirmed on the
(q+1)-factors of x): a purely periodic x is uniformly recurrent and needs no
constant sheet.  The rest run the derived-descriptor iteration with
repetition detection; systems with bounded letters go through the
pumping-word branch.  Verdicts carry machine-checkable certificates.

One stage walk, `_stages`, serves the decider and the verifier alike.  It
yields the prepared input and then, while a stage has bounded letters and
no pumping witness, that stage's bounded-block encoding, at most
MAX_ENCODE_HOPS times.  The decider settles the first stage it can (a
letter that occurs finitely often, the growing branch or a pumping
verdict); the verifier, `derive_chain` and the CLI replay the same walk, so
a certificate is checked on the very stage it was issued for.

The growing branch first builds the constant sheet without the factor count
p(K+1).  When the sheet raises, a stage that no period of up to 1024 letters
settles gets only the `primitive` and `primitive_tail` checks, which read
none of its constants, and its verdict carries no sheet.  Otherwise the
branch drives the u-chain on sigma^p for the small powers in LOW_POWERS
below the sheet's full power P and accepts only a certified repetition
there.  A stage that this low pass, the `primitive` check, the
`primitive_tail` search and the exit scan all leave open ends
inconclusive, with one `unsettled` trace step.  The paper drives the chain
at P, after counting p(K+1); the decider never does, and `derive_chain`
keeps that chain for inspection.  Why a low-power repetition is sound:
below P the driver demands that every pair image sigma^p(w) is cut exactly
into whole return words (first cut at 0, closing cut at |sigma^p(w)|).
Each pair (w, u') is then followed in y by its u', and the cuts are all
occurrences of v = phi(u) that start inside sigma^p(w), so
Theta sigma_U = sigma^p Theta holds letter for letter.  As sigma_U(1)
starts with 1 and y is fixed by sigma^p, y = Theta(D) for the fixed point D
of sigma_U, and x = phi(y) cuts at every occurrence of v into the x-side
return words psi(D).  Levels n < m with the same sigma_U and psi have
D_n = D_m, and tau factors each level-m return word at the occurrences of
v_n (v_m starts with v_n), so tau(psi(D_m)) = psi(D_n) = psi(D_m).  With
tau primitive, psi(D_n) is the fixed point of a primitive substitution,
hence uniformly recurrent, and so is its non-erasing image x.  No constant
of the sheet enters this argument, so it holds at any power (Durand 1998,
"A characterization of substitutive sequences using return words").  Why
the low pass needs no p(K+1): the count enters the driver only through K1,
the threshold of the guarded exit E3, and below P any exit only ends that
power's try, never a decision.  So the low pass runs with no K1.  For
K >= 3, K1 >= 4 K^3 (K+1)^4 >= 27,648 exceeds PAIR_BUDGET, so the pair
budget stops a table before E3 could fire and the pass is the same as with
K1; only K <= 2 can certify where E3 would have ended the try.

A growing stage that no low power certifies is checked for primitivity
next.  Why a `primitive` verdict is sound: the stage is the input after
restriction to the letters the start reaches, coding normalization, the
r_sigma power and any bounded-block encodings, each of which keeps
x = phi(y) letter for letter, with y the fixed point of the staged sigma
and phi a coding.  If some power M^k of the staged incidence matrix is
positive, the staged sigma is primitive, so every factor of y occurs in
every image sigma^n(b) for n large enough, and y is uniformly recurrent
(Queffelec, "Substitution Dynamical Systems", LNM 1294, 1987).  A
letter-to-letter image of a uniformly recurrent sequence is uniformly
recurrent.  This uses no constant of the sheet either.  The check runs
after the low pass so that every system a low power settles keeps its
`repetition` certificate.  A verdict carries the sheet it used: a
low-power `repetition` or a `primitive` verdict leaves the count fields of
its sheet null and has no `constants` trace step.

A stage that is still open gets the `primitive_tail` check below, then the
exit scan.  The scan walks the u-chain's prefixes by the chain rule below,
on prefixes of x that double from SCAN_FIRST to SCAN_LETTERS letters (the
bound on every E1 scan, stated in returns.py) and within SCAN_WORK letters
searched, and ends the decision at the first level where v = x[:|u|]
either has no second occurrence ending within (K+1)|v| letters (E1, the
test the driver makes first at each level) or has two successive
occurrences more than K|v| apart (a `gap`, the return word that E2 bounds).
Why either refutes uniform recurrence at any level and any power: a
uniformly recurrent morphic x is linearly recurrent, and K bounds its
constant, so every return word of x to any factor v has length at most
K|v| (Durand, "Linearly recurrent subshifts have a finite number of
non-periodic subshift factors", ETDS 2000).  Both facts are about x alone:
v is a prefix of x whatever level named it, and sigma^p has the same fixed
point for every p, so neither needs P, the factor count or a closure.  The
scan runs after the low pass so that every system a low power settles keeps
its `repetition` certificate, and after the `primitive` and `primitive_tail`
checks because each of them proves uniform recurrence, so the scan could
find nothing where they succeed, and a stage they settle never pays for it.
An E1 it finds is the exit the full-power chain would have taken at that
level, with the same message; a gap is an unconditional exit that the chain
does not name.  `_level_exit` builds both certificates, for the scan and
the verifier alike.  The verdict carries the count-free sheet and one
`scan` trace step.

The `primitive_tail` check applies when the start letter s is transient:
sigma(s) = s w, and B, the letters reachable from w, does not hold s, so s
occurs once in y = s z, with z = w sigma(z).  It needs sigma restricted to B
primitive, with language L_B and minimal subshift X_B (every letter of B
grows on a growing stage).  The certificate holds w, B, a positivity power
k of sigma on B, a letter e of B with phi(e) = phi(s), words v_0 = e, v_1,
..., v_n over B with each sigma(v_(i+1)) ending with v_i w, an index j < n
with v_n = v_j, and a prefix length m.  Why it implies uniform recurrence:
  - If sigma(v') = P v w, then sigma(v' z) = P v w sigma(z) = P v z, so
    t_i = v_i z is a suffix of sigma(t_(i+1)).
  - Let p = n - j and W_p = w sigma(w) ... sigma^(p-1)(w), so that
    z = W_p sigma^p(z).  Composing the suffix conditions around the cycle
    gives sigma^p(v_j) = s' v_j W_p for some word s'; the builder checks
    this letter for letter.  Then t = t_j satisfies
    sigma^p(t) = s' v_j W_p sigma^p(z) = s' t.
  - Suppose t[:m] is in L_B and |sigma^p(t[:m])| > |s'| + m.  As
    sigma^p(t[:m]) is a prefix of sigma^p(t) = s' t, it equals s' t[:m']
    with m' > m, and t[:m'] is in L_B, a factor of a word of L_B's image.
    sigma is non-erasing, so m' - m does not shrink from one step to the
    next, the prefixes grow without bound, every prefix of t is in L_B,
    and t lies in X_B.
  - X_B is closed under sigma and the shift, so each t_i lies in X_B as a
    suffix of sigma(t_(i+1)), down to t_0 = e z.  Then x = phi(s) phi(z)
    = phi(e z) lies in phi(X_B), which is minimal because sigma on B is
    primitive (Queffelec, LNM 1294), so every factor of e z recurs in it
    with bounded gaps and x is uniformly recurrent.
Since |W_p| >= 1, m = |v_j| always meets the length condition, so
t[:m] = v_j[:m]; the certificate states the least such m, which is usually
1, and then the condition t[0] in B holds by itself.  A larger m is checked
against the exact m-factors of L_B (`factor_language` on a positive
power of sigma restricted to B).  The decider searches depth first
from e over minimal preimages v' (no proper suffix of v' ends its image
with v w), along a path of distinct words, within TAIL_WORD letters,
TAIL_CHAIN steps and TAIL_STEPS letters tried; finding no chain leaves the
stage to the exit scan.  The verdict carries the count-free sheet, if there
is one, and one `tail` trace step.

The verifier has one path.  It walks the stages, reads the fields that
select a certificate (power, n, m, levels, period, level, u_length and the
gap positions, each an int), rebuilds that certificate with the decider's
own builder, and accepts only a certificate equal to it, compared by the
repr of their JSON dicts: an added key, a tuple for a list, or True or 2.0
for 1 or 2 differs.  The builders keep their exact checks, so a rebuilt
certificate proves what it states: `_certify_repetition` needs equal
descriptors and computes tau's positivity power, as `primitive` computes
sigma's, `_tail_certificate` rechecks each link of its chain, and a period
search's q must pass the exact period test with x[:q] primitive, which
makes q the least period of x, and lie in that search's range (above
UPFRONT_QMAX for `constants-unavailable`, which runs only where the upfront
search found nothing and the count-free sheet raises, which the verifier
checks); its evidence, the multiples of q up to qmax, is then a function of
q.  Nothing is replayed on the u-chain or the full sheet: |u_1|, |u_2|, ...
come from the chain rule alone (`_u_lengths`), which reads x only, so they
are read once per certificate, whatever the power.

A `repetition` is rebuilt only at a power in LOW_POWERS (a `repetition-1x1`
`periodic` names none, so each is tried) and with m at most PRACTICAL_CAP,
the last level the decider drives, from the closures at levels n and m
alone, anchored and with no exit that K sets.  No sheet is needed: the
argument above needs only closed, anchored tables at two prefixes u_n and
u_m of y with |u_n| < |u_m|, plus the checks on tau; and K enters
`build_sigma_U` only through exits and E1's scan window, so a run that
produced a descriptor reproduces it letter for letter with those exits off.

An E1 or a gap is rebuilt by `_level_exit` at the stated level, with K
from the count-free sheet, on x[:max((K+1)|u|, q+|u|)], q the stated second
gap position, within the SCAN_LETTERS letters and the SCAN_WORK charges of
the exit scan; as the scan stops at the first E1, no earlier level may miss
its E1 window, read off consecutive lengths.  The rebuilt gap is the first
of x at that level, so a certificate that names a later one differs.  A
`letter` exit is rebuilt on the first stage with a witness, a
`periodic_mismatch` or pumping-branch `periodic` from the last stage's own
witness and pumping word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

from .constants import (
    ConstantSheet,
    compute_constant_sheet,
    compute_count_free_sheet,
)
from .errors import (
    BudgetExhausted,
    InternalConsistencyError,
    NoPrimitiveSubmorphism,
    NotPrimitive,
    PreconditionViolated,
    WitnessSearchExhausted,
)
from .growth import Matrix, block_decomposition, horn_exponent, letter_bits, power_is_positive
from .morphism import Morphism, power
from .returns import (
    PRACTICAL_CAP,
    SCAN_LETTERS,
    WORK_BUDGET,
    DerivedDescriptor,
    DriverExit,
    build_sigma_U,
    first_two_occurrences,
)
from .stream import FixedPointStream, factor_language
from .system import ProlongableSystem, normalize_to_coding, restrict_to_reachable
from .words import Alphabet, occurrences_until

UNIFORMLY_RECURRENT = "uniformly_recurrent"
NOT_UNIFORMLY_RECURRENT = "not_uniformly_recurrent"
INCONCLUSIVE = "inconclusive"

# bounded-block encodings may chain when coding normalization reintroduces
# bounded letters; give up (soundly) after this many rounds
MAX_ENCODE_HOPS = 8

# largest cell alphabet a bounded-block encoding may build
_MAX_CELL_TOKENS = 512

# powers tried, below the sheet's full power, before the other checks
LOW_POWERS = (1, 2, 3)

# largest period tried before the constant sheet: the exact check needs the
# (q+1)-factors of x, whose count grows with q, and short periods are common
UPFRONT_QMAX = 64

# the period searches of a growing stage, by the source their certificate
# names: (qmax, scan), the largest period tried and the length of the prefix
# of x whose periods are the candidates; `upfront` runs before the sheet
_PERIOD_SEARCH = {
    "upfront": (UPFRONT_QMAX, 8 * UPFRONT_QMAX),
    "constants-unavailable": (1024, 1 << 14),
}

# the exit scan walks the u-chain on prefixes of x that double from
# SCAN_FIRST letters up to SCAN_LETTERS (returns.py), checking a level on a
# prefix only while that level's E1 window (K+1)|v| fits in it; each level
# checked charges the prefix length, and the scan gives up once the charges
# pass SCAN_WORK letters
SCAN_FIRST = 1 << 12
SCAN_WORK = 1 << 23

# the errors of a constant sheet that the `constants-unavailable` search settles
_SHEET_UNAVAILABLE = (PreconditionViolated, NoPrimitiveSubmorphism, BudgetExhausted)

# a low-power try that exits this way ends the low pass: the u-chain and the
# x-side return words do not depend on the power, so a higher power walks to
# the same exit
_POWER_INDEPENDENT_EXITS = ("short-return", "E1")

# the primitive-tail search tries at most TAIL_STEPS letters in all, for
# words v_i of at most TAIL_WORD letters along chains of at most TAIL_CHAIN
# steps, and no cycle whose sigma^p(v_j) has more than TAIL_IMAGE letters
TAIL_WORD = 16
TAIL_CHAIN = 32
TAIL_STEPS = 4096
TAIL_IMAGE = 1 << 16


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence: kind plus a JSON-ready payload."""

    kind: str  # repetition | periodic | primitive | primitive_tail | exit | periodic_mismatch
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

    @cached_property
    def pumping_witness(self) -> dict | None:
        """The stage's pumping witness, searched over #A * r_sigma powers of
        sigma (r_sigma is at least 1); computed once per stage and shared by
        the stage walk, the decider and the verifier."""
        return _pumping_witness(self.staged, len(self.staged.alphabet) * self.r_sigma)


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


def pure_period_check(sys: ProlongableSystem, q: int) -> bool:
    """Exact test: the outer sequence has period q.

    Equivalent formulation used here: every (q+1)-factor has equal first and
    last letter, which propagates to x[i] = x[i+q] for all i.
    """
    if q < 1:
        return False
    lang = factor_language(sys, q + 1, "x")
    return all(w[0] == w[q] for w in lang)


def _prefix_period_candidates(word: str, qmax: int) -> list[int]:
    """All q <= qmax that are periods of the given finite word, ascending:
    the q <= |word| with word[q:] a prefix of word.

    A period q <= top = min(qmax, |word|) puts head = word[:|word| - top]
    at q, so str.find jumps from one candidate to the next, and a candidate
    compares only its last top - q letters.  When |word| >= 2 top, two
    periods p, q <= top have gcd(p, q) as a period (Fine and Wilf), so the
    periods up to top are the multiples of the least one.
    """
    n = len(word)
    top = min(qmax, n)
    h = n - top
    head = word[:h]
    out = []
    q = word.find(head, 1)
    while 0 < q <= top:
        if word.startswith(word[q + h :], h):
            if 2 * top <= n:
                return list(range(q, top + 1, q))
            out.append(q)
        q = word.find(head, q + 1)
    return out


def resolve_periodicity(sys: ProlongableSystem, qmax: int, scan: int) -> int | None:
    """The least period of x, if it is at most qmax, exactly confirmed.

    Candidates are the periods up to qmax of x[:scan], ascending; each is
    confirmed or rejected by the exact factor condition, so a returned
    period is proven.  With scan >= 2 qmax the candidates are the multiples
    of the prefix's least period, and x has a period k q only if it has
    period q, so the one candidate that can pass is the least period of x.
    """
    prefix = FixedPointStream(sys, "x").prefix_chars(scan)
    for q in _prefix_period_candidates(prefix, qmax):
        if pure_period_check(sys, q):
            return q
    return None


def _periodic_certificate(
    sys: ProlongableSystem, q: int, source: str, **fields
) -> Certificate | None:
    """The `periodic` certificate for a period q of x that an exact test
    confirmed: the word x[:q], q and the source that found it, then the
    source's own fields (levels, or pumping and checklist).  A period search
    of _PERIOD_SEARCH finds the least period of x, whose prefix x[:q] is
    primitive (a smaller period p would make gcd(p, q) one too, by Fine and
    Wilf), so a q with another prefix gets no certificate.  Its evidence
    follows from q: the candidates were the multiples of q up to qmax (see
    resolve_periodicity)."""
    prefix = FixedPointStream(sys, "x").prefix_chars(q)
    if source in _PERIOD_SEARCH:
        if _primitive_root(prefix) != prefix:
            return None
        qmax, scan = _PERIOD_SEARCH[source]
        fields["evidence"] = {
            "qmax": qmax, "scan_length": scan, "candidates": list(range(q, qmax + 1, q))
        }
    data = {"word": sys.target_alphabet.decode(prefix), "period": q, "source": source, **fields}
    return Certificate(kind="periodic", data=data)


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
    inc = sys.incidence
    from_tail = inc.reach_of(sys.sigma.image(sys.start)[1:])
    infinite = 0
    for i in letter_bits(from_tail):
        if not inc.scc_trivial[inc.scc_of[i]]:
            infinite |= inc.letter_reach[i]
    heads = [img[0] for img in sys.effective_phi.images]
    infinite_images = {heads[i] for i in letter_bits(infinite)}
    for i, img in enumerate(heads):
        if not infinite >> i & 1 and img not in infinite_images:
            return sys.target_alphabet.token_of_char(img)
    return None


def _letter_certificate(stage: PreparedSystem) -> Certificate | None:
    """The `letter` exit of a stage that has a finite_letter_witness, or None."""
    letter = finite_letter_witness(stage.staged)
    if letter is None:
        return None
    data = {
        "exit": "letter",
        "unconditional": True,
        "level": 0,
        "letter": letter,
        "message": f"letter {letter} occurs in x but only finitely often",
        "evidence": {"graph": "no cycle reaches a preimage"},
    }
    return Certificate(kind="exit", data=data)


# ---------------------------------------------------------------------------
# growing pipeline


def _connecting_morphism(
    desc_low: DerivedDescriptor, desc_high: DerivedDescriptor
) -> tuple[tuple[int, ...], ...]:
    """tau with Theta_low(tau(j)) = Theta_high(j), as 1-based index images:
    factor each high-level return word over the low-level table by cutting
    at occurrences of the low-level prefix."""
    v_low = desc_low.v
    low_words = desc_low.x_returns
    index_of = {w: i for i, w in enumerate(low_words, start=1)}
    tau = []
    for f in desc_high.x_returns:
        cuts, _ = occurrences_until(f + v_low, v_low, len(f))
        if not cuts or cuts[0] != 0:
            raise InternalConsistencyError("high-level return word misses the anchor")
        cuts.append(len(f))
        img = tuple(index_of.get(f[a:b]) for a, b in zip(cuts, cuts[1:]))
        if None in img:
            raise InternalConsistencyError(
                "high-level return word does not factor over the low-level table"
            )
        # re-check the defining equation letter by letter
        if "".join(low_words[k - 1] for k in img) != f:
            raise InternalConsistencyError("connecting morphism fails its defining equation")
        tau.append(img)
    return tuple(tau)


def _index_incidence(tau: tuple[tuple[int, ...], ...], size: int) -> Matrix:
    """Incidence matrix of index images over 1..size: entry (i, j) counts
    the occurrences of i in tau(j)."""
    return tuple(tuple(img.count(i) for img in tau) for i in range(1, size + 1))


def _certify_repetition(
    sys: ProlongableSystem,
    power: int,
    n_low: int,
    n_high: int,
    desc_low: DerivedDescriptor,
    desc_high: DerivedDescriptor,
) -> Certificate | None:
    """Build the UR certificate from two levels n_low < n_high of the
    u-chain on sys = sigma^power.

    Returns None unless the two descriptors are equal and the connecting
    morphism is primitive with tau(1) starting with 1 (the caller then
    keeps iterating).  A 1x1 repetition is certified as exact pure
    periodicity instead; it reads x only, which every power of sigma fixes.
    """
    if (desc_low.sigma_u_images, desc_low.psi) != (desc_high.sigma_u_images, desc_high.psi):
        return None
    tau = _connecting_morphism(desc_low, desc_high)
    if len(desc_low.x_returns) == 1:
        q = len(desc_low.x_returns[0])
        if not pure_period_check(sys, q):
            raise InternalConsistencyError(
                "singleton return table without pure periodicity"
            )
        return _periodic_certificate(sys, q, "repetition-1x1", levels=[n_low, n_high])
    mat = _index_incidence(tau, len(desc_low.x_returns))
    try:
        k = horn_exponent(mat)
    except NotPrimitive:
        return None
    if not power_is_positive(mat, k):
        raise InternalConsistencyError("horn exponent failed to produce positivity")
    if tau[0][0] != 1:
        return None
    return Certificate(
        kind="repetition",
        data={
            "n": n_low,
            "m": n_high,
            "power": power,
            "table_size": len(desc_high.x_returns),
            "pair_count": len(desc_high.pairs),
            "tau": [list(img) for img in tau],
            "positivity_power": k,
            "canonical": desc_low.canonical_text(),
        },
    )


def _level_exit(
    staged: ProlongableSystem, text: str, level: int, size: int, K: int
) -> Certificate | None:
    """The E1 or gap certificate of the u-chain's level with |u| = size, read
    on text, a prefix of x that holds the E1 window (K+1)|v|, or None.

    First E1, the test build_sigma_U makes first: v = x[:size] has no second
    start within K|v|, that is no second occurrence ending within the window.
    Then a gap: the first successive starts p < q of v in text more than K|v|
    apart, a return word that E2 bounds.  Each step of that search jumps to
    the last start within K|v| letters, one str.rfind that covers about K|v|
    letters."""
    v, window, bound = text[:size], (K + 1) * size, K * size
    data = {"exit": "E1", "unconditional": True, "level": level, "u_length": size}
    if text.find(v, 1, window) == -1:
        # v starts x, so its one occurrence in the window is at 0
        u = FixedPointStream(staged, "y").prefix_chars(size)
        data["message"] = f"prefix of length {size} does not recur in the first {window} letters"
        data["evidence"] = {"u": staged.alphabet.decode(u), "window": window, "occurrences": 1}
        return Certificate(kind="exit", data=data)
    p = 0
    while (last := text.rfind(v, p + 1, p + bound + size)) != -1:
        p = last
    q = text.find(v, p + 1)
    if q == -1:
        return None
    data["exit"] = "gap"
    data["message"] = (
        f"the prefix of length {size} recurs after {q - p} letters, more than K|u| = {bound}"
    )
    data["evidence"] = {
        "level": level, "u_length": size, "positions": [p, q], "gap": q - p, "bound": bound
    }
    return Certificate(kind="exit", data=data)


def _exit_scan(staged: ProlongableSystem, K: int) -> Certificate | None:
    """The first E1 or gap certificate along the u-chain (_level_exit).

    The walk runs on x[:SCAN_FIRST], then on prefixes twice as long up to
    x[:SCAN_LETTERS], each time from level 1 up to the first level whose E1
    window does not fit, stepping |u| by the chain rule of _u_lengths on the
    prefix itself.  It stops at the first hit, and gives None once the
    levels it checked have charged SCAN_WORK letters, one prefix length
    each, or when no prefix has a hit."""
    xstream = FixedPointStream(staged, "x")
    spent = 0
    length = SCAN_FIRST
    while length <= SCAN_LETTERS and spent + length <= SCAN_WORK:
        text = xstream.prefix_chars(length)
        level, size = 1, 1
        while (K + 1) * size <= length:
            spent += length
            if spent > SCAN_WORK:
                return None
            cert = _level_exit(staged, text, level, size, K)
            if cert is not None:
                return cert
            # no E1, so v recurs within its window: u grows by its second start
            level, size = level + 1, size + text.find(text[:size], 1)
        length *= 2
    return None


def _levels(
    sys_pow: ProlongableSystem,
    power: int,
    sheet: ConstantSheet,
    last: int,
    work_budget: int,
):
    """The u-chain on sys_pow = sigma^power: yields (n, descriptor or exit)
    for the levels 1..last and stops after the first exit.  Below the full
    power every pair image must be anchored."""
    u = sys_pow.alphabet.char(sys_pow.start)
    for n in range(1, last + 1):
        res = build_sigma_U(
            sys_pow,
            u,
            sheet.K,
            K1=sheet.K1,
            work_budget=work_budget,
            anchored=power < sheet.power_exponent,
        )
        yield n, res
        if isinstance(res, DriverExit):
            return
        # next prefix: y up to and including the second occurrence of v,
        # which is the first pair's w followed by its closing u'
        u = res.pairs[0][0] + res.pairs[0][1]


def _chain(
    sys_pow: ProlongableSystem,
    power: int,
    sheet: ConstantSheet,
    work_budget: int,
):
    """Drive the u-chain up to PRACTICAL_CAP levels, watching for repetitions.

    Returns the certificate of the first certified repetition, the driver
    exit that ended the try, or None when the cap is reached.
    """
    seen: dict[tuple, tuple[int, DerivedDescriptor]] = {}
    for n, res in _levels(sys_pow, power, sheet, PRACTICAL_CAP, work_budget):
        if isinstance(res, DriverExit):
            return res
        key = (res.sigma_u_images, res.psi)
        if key in seen:
            n_low, desc_low = seen[key]
            cert = _certify_repetition(sys_pow, power, n_low, n, desc_low, res)
            if cert is not None:
                return cert
        else:
            seen[key] = (n, res)
    return None


def _primitive_certificate(staged: ProlongableSystem) -> Certificate | None:
    """The `primitive` certificate of a growing stage whose sigma is
    primitive and whose phi is letter-to-letter, else None (see the module
    docstring for why it implies uniform recurrence)."""
    k = staged.incidence.primitive_exponent
    if k is None or staged.effective_phi.max_image_len != 1:
        return None
    return Certificate(kind="primitive", data={"positivity_power": k})


@dataclass(frozen=True)
class _Tail:
    """A transient start letter s of a stage: sigma(s) = s w, and B, the
    letters reachable from w, does not hold s."""

    w: str  # over the staged alphabet
    letters: str  # B, over the staged alphabet, in alphabet order
    sub: Morphism  # sigma restricted to B, over its own alphabet


def _transient_tail(staged: ProlongableSystem) -> _Tail | None:
    """The stage's transient tail, or None when the start letter is reachable
    from its own tail."""
    alpha = staged.alphabet
    w = staged.sigma.image(staged.start)[1:]
    reach = staged.incidence.reach_of(w)
    if reach >> alpha.index(staged.start) & 1:
        return None
    kept = letter_bits(reach)
    letters = "".join(alpha.chars[i] for i in kept)
    return _Tail(w, letters, staged.sigma.restricted_to([alpha.tokens[i] for i in kept]))


def _in_tail_language(tail: _Tail, word: str, k: int) -> bool:
    """Whether word, over B, is a factor of L_B, the language of sigma
    restricted to B, by the exact `factor_language` of its positive power
    k: every image of that power holds every letter, so its iterates grow
    from any letter, and a primitive sigma and its powers share one
    language, generated by any letter."""
    sub = power(tail.sub, k)
    lang = factor_language(ProlongableSystem(sub, sub.src.tokens[0]), len(word))
    return word.translate(str.maketrans(tail.letters, sub.src.chars)) in lang


def _tail_prefix(staged: ProlongableSystem, v: str, p: int) -> int | None:
    """For t = v z, z = w sigma(z) the tail of y: the least m with
    |sigma^p(t[:m])| > |s'| + m, when sigma^p(v) = s' v W_p with
    W_p = w sigma(w) ... sigma^(p-1)(w), that is sigma^p(s) without the
    start letter s, checked letter for letter; None when sigma^p(v) is not
    of that form or either image has more than TAIL_IMAGE letters.
    m <= |v| always, as W_p is not empty."""
    sigma = staged.sigma
    img, head = v, staged.alphabet.char(staged.start)
    for _ in range(p):
        img, head = sigma.apply(img), sigma.apply(head)
        if max(len(img), len(head)) > TAIL_IMAGE:
            return None
    if not img.endswith(v + head[1:]):
        return None
    lead = len(img) - len(v) - len(head) + 1  # |s'|
    lengths = dict(zip(staged.alphabet.chars, staged.incidence.lengths_after(p)))
    size = 0
    for m, c in enumerate(v, start=1):
        size += lengths[c]
        if size > lead + m:
            return m
    raise InternalConsistencyError("sigma^p(v) ends with v W_p but does not outgrow v")


def _minimal_preimages(images: dict[str, str], target: str, budget: list[int]) -> list[str]:
    """The words v' of at most TAIL_WORD letters over the letters of images
    (letter -> sigma image) with sigma(v') ending with target and no proper
    suffix of v' doing so, shortest first; each letter tried spends one unit
    of budget[0].  Read right to left, each image must end what is left of
    the target until one image covers the rest."""
    out = []
    stack = [(len(target), "")]  # (length of the target left, suffix of v')
    while stack and budget[0] > 0:
        end, suffix = stack.pop()
        for c, img in images.items():
            budget[0] -= 1
            if len(img) >= end:
                if img.endswith(target[:end]):
                    out.append(c + suffix)
            elif len(suffix) + 1 < TAIL_WORD and target.endswith(img, 0, end):
                stack.append((end - len(img), c + suffix))
    return sorted(out, key=lambda v: (len(v), v))


def _tail_chain(staged: ProlongableSystem, tail: _Tail, e: str, k: int, budget: list[int]):
    """(v_0 = e, ..., v_n; j; m): a path of distinct words, each v_(i+1) a
    minimal preimage of v_i w, that closes with v_n = v_j, and whose cycle
    meets the prefix condition at m; found by a depth-first search, or
    None."""
    images = {c: staged.sigma.apply(c) for c in tail.letters}
    path, index, done = [e], {e: 0}, set()

    def visit(v: str):
        for nxt in _minimal_preimages(images, v + tail.w, budget):
            if nxt in index:
                j = index[nxt]
                m = _tail_prefix(staged, nxt, len(path) - j)
                if m is not None and (m == 1 or _in_tail_language(tail, nxt[:m], k)):
                    return path + [nxt], j, m
            elif nxt not in done and len(path) < TAIL_CHAIN and budget[0] > 0:
                index[nxt] = len(path)
                path.append(nxt)
                found = visit(nxt)
                if found is not None:
                    return found
                del index[path.pop()]
                done.add(nxt)
        return None

    return visit(e)


def _tail_certificate(staged: ProlongableSystem) -> Certificate | None:
    """The `primitive_tail` certificate of a stage with a transient start
    letter and a primitive sigma on B, or None (see the module docstring
    for why it implies uniform recurrence)."""
    tail = _transient_tail(staged)
    if tail is None:
        return None
    k = tail.sub.incidence.primitive_exponent
    # a preimage v' of v w has |sigma(v')| > |w| letters, within TAIL_WORD images
    if k is None or len(tail.w) >= TAIL_WORD * tail.sub.max_image_len:
        return None
    alpha = staged.alphabet
    phi = staged.effective_phi
    lead = phi.apply(alpha.char(staged.start))
    budget = [TAIL_STEPS]
    for e in tail.letters:
        if phi.apply(e) != lead:
            continue
        found = _tail_chain(staged, tail, e, k, budget)
        if found is not None:
            chain, j, m = found
            # re-check each link letter for letter: sigma(v_(i+1)) ends with v_i w
            for v, v_next in zip(chain, chain[1:]):
                if not staged.sigma.apply(v_next).endswith(v + tail.w):
                    raise InternalConsistencyError("a tail chain link fails its suffix condition")
            data = {
                "w": alpha.decode(tail.w),
                "B": list(tail.sub.src.tokens),
                "positivity_power": k,
                "e": alpha.token_of_char(e),
                "v": [alpha.decode(v) for v in chain],
                "j": j,
                "m": m,
            }
            return Certificate(kind="primitive_tail", data=data)
    return None


def _sheet_free_verdict(
    staged: ProlongableSystem, sheet: ConstantSheet | None, trace: list[dict]
) -> Verdict | None:
    """The `primitive` or else the `primitive_tail` verdict of a growing
    stage, or None.  Neither check reads a constant of the sheet, so a stage
    whose sheet cannot be built gets them too, with sheet None."""
    cert = _primitive_certificate(staged)
    if cert is not None:
        trace.append({"step": "primitive", **cert.data})
        return Verdict(UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))
    cert = _tail_certificate(staged)
    if cert is not None:
        d = cert.data
        n = len(d["v"]) - 1
        trace.append({"step": "tail", "letters": len(d["B"]), "n": n, "p": n - d["j"]})
        return Verdict(UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))
    return None


def _growing_verdict(stage: PreparedSystem, work_budget: int, trace: list[dict]) -> Verdict:
    staged = stage.staged
    # a periodic x is uniformly recurrent; a check that finds no period or
    # runs out of budget leaves the decision to the sheet and the chain
    try:
        q = resolve_periodicity(staged, *_PERIOD_SEARCH["upfront"])
    except BudgetExhausted:
        q = None
    if q is not None:
        trace.append({"step": "upfront-periodic", "period": q})
        cert = _periodic_certificate(staged, q, "upfront")
        return Verdict(UNIFORMLY_RECURRENT, cert, None, tuple(trace))
    try:
        sheet = compute_count_free_sheet(staged)
    except _SHEET_UNAVAILABLE as e:
        q = resolve_periodicity(staged, *_PERIOD_SEARCH["constants-unavailable"])
        if q is not None:
            cert = _periodic_certificate(staged, q, "constants-unavailable")
            return Verdict(UNIFORMLY_RECURRENT, cert, None, tuple(trace))
        trace.append({"step": "constants", "status": "unavailable", "reason": str(e)})
        settled = _sheet_free_verdict(staged, None, trace)
        return settled or Verdict(INCONCLUSIVE, None, None, tuple(trace))

    for p in LOW_POWERS:
        if p >= sheet.power_exponent:
            break
        try:
            found = _chain(staged.with_sigma_power(p), p, sheet, work_budget)
        except BudgetExhausted:
            found = None
        certified = isinstance(found, Certificate)
        trace.append({"step": "low-power", "power": p, "certified": certified})
        if certified:
            return Verdict(UNIFORMLY_RECURRENT, found, sheet, tuple(trace))
        if isinstance(found, DriverExit) and found.kind in _POWER_INDEPENDENT_EXITS:
            break

    settled = _sheet_free_verdict(staged, sheet, trace)
    if settled is not None:
        return settled

    cert = _exit_scan(staged, sheet.K)
    if cert is not None:
        d = cert.data
        trace.append({"step": "scan", "K": sheet.K, "level": d["level"], "exit": d["exit"]})
        return Verdict(NOT_UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))

    trace.append({"step": "unsettled", "reason": "no check settles the stage"})
    return Verdict(INCONCLUSIVE, None, sheet, tuple(trace))


# ---------------------------------------------------------------------------
# non-growing branch


def _pumping_witness(sys: ProlongableSystem, kmax: int) -> dict | None:
    """Search powers sigma^k for a growing letter g with sigma^k(g) = v g u,
    u a nonempty word of bounded letters (side "right"), or with
    sigma^k(g) = u g v (side "left").

    Never materializes sigma^k.  An occurrence of g with an all-bounded right
    part must be the last growing letter of sigma^k(g), and the last-growing
    letter of sigma^k(g) is the k-th iterate of the one-step map L; the
    bounded trail is nonempty iff some letter along the L-orbit contributes
    one.  The left form is the right form of the mirror morphism, whose
    images are sigma's read backwards, so its u and v are read backwards
    (step -1) at the end.  Letters go in token order, the right side before
    the left at each (k, g).  u and v are internal strings over
    sys.alphabet; v is given only while sigma^k(g) stays short.
    """
    alpha = sys.alphabet
    growing = [t for t in sorted(alpha.tokens) if sys.incidence.is_growing(t)]
    grow = set(map(alpha.char, growing))
    mirror = Morphism(alpha, alpha, tuple(img[::-1] for img in sys.sigma.images))
    sides = []
    for side, m, step in (("right", sys.sigma, 1), ("left", mirror, -1)):
        # L(c), the last growing letter of m(c), and the bounded trail after it
        last, trail = {}, {}
        for c, img in zip(alpha.chars, m.images):
            if c in grow:
                pos = max(img.rfind(d) for d in grow)
                last[c], trail[c] = img[pos], img[pos + 1 :]
        sides.append((side, m, step, last, trail))

    for k in range(1, kmax + 1):
        for g in growing:
            c = alpha.char(g)
            for side, m, step, last, trail in sides:
                h, flag = c, False
                for _ in range(k):
                    flag = flag or bool(trail[h])
                    h = last[h]
                if h != c or not flag:
                    continue
                # T_j(g) = trail(L^(j-1)(g)) + m(T_(j-1)(g))
                u, h = "", c
                for _ in range(k):
                    u = trail[h] + m.apply(u)
                    h = last[h]
                out = {"letter": g, "power": k, "u": u[::step], "side": side}
                img = c
                for _ in range(k):
                    img = m.apply(img)
                    if len(img) > 4096:
                        break
                else:
                    out["v"] = img[: len(img) - len(u) - 1][::step]
                return out
    return None


def _pumping_word(sys: ProlongableSystem, witness: dict) -> str:
    """One period of the eventually periodic tail u, tau(u), tau^2(u), ...
    (read outward from the pumped letter), for tau = sigma^power, as an
    internal string over sys.alphabet."""
    cur = witness["u"]
    seen: dict[str, int] = {}
    words = []
    while cur not in seen:
        seen[cur] = len(words)
        words.append(cur)
        for _ in range(witness["power"]):
            cur = sys.sigma.apply(cur)
        if len(cur) > 1 << 16:
            raise InternalConsistencyError("bounded letters produced an unbounded image")
    t0 = seen[cur]
    cycle = words[t0:]
    if witness["side"] == "left":
        cycle = list(reversed(cycle))
    return "".join(cycle)


def _head_cells(sigma: Morphism, start: str, cell: re.Pattern) -> tuple[int, list[str]]:
    """(p, head): the least p >= 1 for which sigma^p(start) holds two cells,
    and its first two.  With start a growing letter, y begins with
    sigma^p(start), which holds y's second growing letter: head[0] is y's
    first cell, and head[1] begins with the growing letter after it (in y,
    head[1] may run on past sigma^p(start)).  Until the power is reached the
    image holds one growing letter and stays short."""
    word, p = start, 0
    while True:
        word = sigma.apply(word)
        p += 1
        if p > 64:
            raise WitnessSearchExhausted("images refuse to accumulate growing letters")
        head = [c[0] for c in islice(cell.finditer(word), 2)]
        if len(head) == 2:
            return p, head


def _encode_bounded_blocks(sys: ProlongableSystem):
    """Rewrite y over cells (growing letter + following bounded block) so the
    new substitution is growing and the image sequence is unchanged.

    Tokens are pairs (cell, next growing letter); sigma is first raised to
    tau so the start letter's image holds at least two growing letters, which
    makes the token images self-contained.  y = tau^inf(start) begins with
    tau(start), so its first two cells are read off tau(start), and no
    prefix of y is grown; a first cell of 4,096 letters or more raises
    WitnessSearchExhausted.
    """
    inc = sys.incidence
    alpha = sys.alphabet
    growing = "".join(c for c, t in zip(alpha.chars, alpha.tokens) if inc.is_growing(t))
    if alpha.char(sys.start) not in growing:
        raise WitnessSearchExhausted("the axiom letter does not grow")
    # a cell: one growing letter and the bounded block after it
    cell = re.compile(f"[{re.escape(growing)}][^{re.escape(growing)}]*")

    p1, head = _head_cells(sys.sigma, alpha.char(sys.start), cell)
    tau = power(sys.sigma, p1) if p1 > 1 else sys.sigma
    if tau.max_image_len > 1 << 20:
        raise WitnessSearchExhausted("cell images exceeded their budget")

    # the bounded lead of tau(g) and its first growing letter, per growing g
    lead, first = {}, {}
    for g in growing:
        img = tau.apply(g)
        i = cell.search(img).start()
        lead[g], first[g] = img[:i], img[i]

    if len(head[0]) >= 4096:
        raise WitnessSearchExhausted("could not read two cells from the fixed point")

    order = [(head[0], head[1][0])]
    token_index = {order[0]: 0}
    images = []
    for c, nxt in order:  # grows while it is read
        # the lead of tau(c) belongs to the previous token, and the lead of
        # the next token's image completes the last cell
        cells = cell.findall(tau.apply(c) + lead[nxt])
        if not cells:
            raise WitnessSearchExhausted("a cell image contains no growing letter")
        ids = []
        for t in zip(cells, [d[0] for d in cells[1:]] + [first[nxt]]):
            if t not in token_index:
                token_index[t] = len(order)
                order.append(t)
                if len(order) > _MAX_CELL_TOKENS:
                    raise WitnessSearchExhausted("cell alphabet exceeded its budget")
            ids.append(token_index[t])
        images.append(ids)

    idx = Alphabet.indexed(len(order))
    new_sigma = Morphism(idx, idx, tuple("".join(idx.chars[i] for i in ids) for ids in images))
    phi = sys.effective_phi
    new_phi = Morphism(idx, phi.dst, tuple(phi.apply(c) for c, _ in order))
    encoded = ProlongableSystem(new_sigma, "1", new_phi)
    if not encoded.is_prolongable():
        raise InternalConsistencyError("block encoding lost prolongability")

    # the encoding must reproduce the image sequence letter for letter
    want = FixedPointStream(sys, "x").prefix_chars(512)
    got = FixedPointStream(encoded, "x").prefix_chars(512)
    if want != got:
        raise InternalConsistencyError("block encoding changed the image sequence")
    return encoded, {"tokens": len(order), "power": p1}


def _nongrowing_verdict(stage: PreparedSystem, trace: list[dict]) -> Verdict:
    """The pumping-word verdict of a non-growing stage with a witness."""
    staged = stage.staged
    witness = stage.pumping_witness
    trace.append(
        {
            "step": "nongrowing",
            "witness_letter": witness["letter"],
            "witness_power": witness["power"],
            "witness_side": witness["side"],
        }
    )
    alpha = staged.alphabet
    w = alpha.decode(_pumping_word(staged, witness))
    report = periodic_checklist(staged, w)
    pumping = {
        "letter": witness["letter"],
        "power": witness["power"],
        "side": witness["side"],
        "u": alpha.decode(witness["u"]),
        "w": w,
    }
    if "v" in witness:
        pumping["v"] = alpha.decode(witness["v"])
    if report["periodic"]:
        q = report["period"]
        if not pure_period_check(staged, q):
            raise InternalConsistencyError("checklist passed but direct period test failed")
        cert = _periodic_certificate(staged, q, "nongrowing", pumping=pumping, checklist=report)
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
# the stage walk


def _stages(sys: ProlongableSystem, trace: list[dict]):
    """The one stage walk of the decider and the verifier.

    Yields the prepared input; then, while a stage is non-growing and has no
    pumping witness, block-encodes it and yields the prepared encoding, at
    most MAX_ENCODE_HOPS times.  A walk that ends on such a stage records why
    in an unresolved `nongrowing` trace step.
    """
    stage = prepare(sys, trace)
    yield stage
    hops = 0
    while not stage.growing and stage.pumping_witness is None:
        try:
            if hops == MAX_ENCODE_HOPS:
                raise WitnessSearchExhausted("encode depth limit")
            encoded, info = _encode_bounded_blocks(stage.staged)
        except WitnessSearchExhausted as e:
            trace.append({"step": "nongrowing", "status": "unresolved", "reason": str(e)})
            return
        trace.append({"step": "block-encode", **info})
        stage = prepare(encoded, trace)
        hops += 1
        yield stage


def _growing_stage(sys: ProlongableSystem) -> PreparedSystem | None:
    """The growing-branch input the decider would have used, if any."""
    *_, last = _stages(sys, [])
    return last if last.growing else None


# ---------------------------------------------------------------------------
# entry points


def _preimage_system(sys: ProlongableSystem) -> ProlongableSystem | None:
    """The identity-coded fixed point, when deciding it first can settle x.

    Applies only when phi is non-erasing and not a coding: then x is a
    non-erasing morphic image of y, so y uniformly recurrent forces x
    uniformly recurrent.  Returns None when the shortcut does not apply.
    The restriction it reads is the one kept on sys, the very object that
    prepare stages from.
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


def _image_shortcut(sys: ProlongableSystem, work_budget: int, trace: list[dict]) -> Verdict | None:
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
        sub = _decide(inner, work_budget, trace)
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


def _decide(sys: ProlongableSystem, work_budget: int, trace: list[dict]) -> Verdict:
    for stage in _stages(sys, trace):
        cert = _letter_certificate(stage)
        if cert is not None:
            return Verdict(NOT_UNIFORMLY_RECURRENT, cert, None, tuple(trace))
        if stage.growing:
            return _growing_verdict(stage, work_budget, trace)
        if stage.pumping_witness is not None:
            return _nongrowing_verdict(stage, trace)
    return Verdict(INCONCLUSIVE, None, None, tuple(trace))


def decide_uniform_recurrence(
    sys: ProlongableSystem, work_budget: int = WORK_BUDGET
) -> Verdict:
    """Full decision pipeline; see the module docstring for the stages.
    Raises PreconditionViolated for a work budget below 1."""
    if work_budget < 1:
        raise PreconditionViolated(f"work budget must be at least 1 letter, got {work_budget}")
    trace: list[dict] = []
    try:
        shortcut = _image_shortcut(sys, work_budget, trace)
        if shortcut is not None:
            return shortcut
        return _decide(sys, work_budget, trace)
    except BudgetExhausted as e:
        trace.append({"step": "budget", "reason": str(e)})
        return Verdict(INCONCLUSIVE, None, None, tuple(trace))


# ---------------------------------------------------------------------------
# certificate verification


def _drive_to_level(
    prepared: PreparedSystem,
    sheet: ConstantSheet,
    level: int,
    work_budget: int,
):
    """Reproduce the u-chain on sigma^P, P the sheet's full power; returns
    (powered system, descriptors by level, exit or None).  A closure that
    runs out of budget ends the chain with a `budget` exit at its level,
    after the levels already built."""
    power = sheet.power_exponent
    sys_pow = prepared.staged.with_sigma_power(power)
    out = {}
    try:
        for n, res in _levels(sys_pow, power, sheet, level, work_budget):
            if isinstance(res, DriverExit):
                return sys_pow, out, (n, res)
            out[n] = res
    except BudgetExhausted as e:
        return sys_pow, out, (len(out) + 1, DriverExit("budget", False, str(e)))
    return sys_pow, out, None


def _u_lengths(staged: ProlongableSystem, levels: int) -> list[int]:
    """|u_1|, ..., |u_levels| by the chain rule, fewer where a prefix of x
    does not recur within SCAN_LETTERS letters.

    u_1 is the start letter, and u_(k+1) is y up to the second occurrence of
    v_k = phi(u_k) = x[:|u_k|] in x, plus |u_k| letters.  The lengths read x
    alone, which every power of sigma fixes, so they do not depend on the
    power.  The closures of the driver follow the same rule: their first
    pair is (y[:p], y[p:p + |u|]), p that second start."""
    xstream = FixedPointStream(staged, "x")
    sizes = [1]
    while len(sizes) < levels:
        occ = first_two_occurrences(xstream, xstream.prefix_chars(sizes[-1]), SCAN_LETTERS)
        if len(occ) < 2:
            break
        sizes.append(sizes[-1] + occ[1])
    return sizes


def _anchored_levels(stage: PreparedSystem, power: int, sizes: tuple[int, int]):
    """The descriptors of the u-chain on sigma^power at the prefixes of y of
    the two given lengths, |u_n| and |u_m| from _u_lengths, or None where a
    closure exits.  Only these two closures are built, anchored and with no
    exit that K sets."""
    sys_pow = stage.staged.with_sigma_power(power)
    ystream = FixedPointStream(sys_pow, "y")
    descs = []
    for size in sizes:
        res = build_sigma_U(sys_pow, ystream.prefix_chars(size), None, anchored=True)
        if isinstance(res, DriverExit):
            return None
        descs.append(res)
    return descs


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
    sys: ProlongableSystem, depth: int, work_budget: int = WORK_BUDGET
) -> DeriveChainResult:
    """Drive the descriptor chain u_1, u_2, ... down to the requested depth.

    The input is staged by the decider's own stage walk (restriction, coding
    normalization, the r_sigma power, bounded-block encodings when needed);
    only a growing stage carries a chain, so systems that resolve entirely
    in the non-growing branch are rejected.
    """
    if depth < 1:
        raise PreconditionViolated("chain depth must be at least 1")
    if work_budget < 1:
        raise PreconditionViolated(f"work budget must be at least 1 letter, got {work_budget}")
    stage = _growing_stage(sys)
    if stage is None:
        raise PreconditionViolated(
            "no growing stage: this system resolves in the non-growing branch"
        )
    sheet = compute_constant_sheet(stage.staged)
    powered, levels, exited = _drive_to_level(stage, sheet, depth, work_budget)
    return DeriveChainResult(stage, sheet, powered, levels, exited)


def verify_certificate(sys: ProlongableSystem, verdict: Verdict) -> tuple[bool, dict]:
    """Recheck a verdict's certificate against the system.  Total: never
    raises.

    The stage walk is replayed, the certificate that the selecting fields
    name is rebuilt by the decider's own builder, and the given certificate
    must equal it whole (see the module docstring).  Nothing is replayed
    on the u-chain: a `repetition` at a power not in LOW_POWERS, a
    `periodic` from a source the decider does not issue and an `exit` of
    any other kind than letter, E1 or gap are rejected.
    The check runs on new morphism objects, so no analysis or restriction
    that an earlier decide cached on the caller's system, sigma or phi is
    reused.
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
    "primitive": UNIFORMLY_RECURRENT,
    "primitive_tail": UNIFORMLY_RECURRENT,
    "periodic_mismatch": NOT_UNIFORMLY_RECURRENT,
    "exit": NOT_UNIFORMLY_RECURRENT,
}


class _Rejected(Exception):
    """A certificate's selecting fields name nothing the decider builds."""


def _selector(data: dict, name: str) -> int:
    """The field of a certificate that selects what to rebuild, which must
    be an int (a bool is not one: True == 1 would select level 1)."""
    value = data.get(name)
    if type(value) is not int:
        raise _Rejected(f"{name} must be an int, got {value!r}")
    return value


def _rebuilt_error(rebuilt: Certificate, cert: Certificate) -> dict | None:
    """The rejection of a certificate that differs from the rebuilt one, or
    None.  The repr of the JSON dicts tells True and 2.0 from 1 and 2 and a
    tuple from a list, as == does not; the builders fix the key order."""
    if repr(rebuilt.to_json_dict()) == repr(cert.to_json_dict()):
        return None
    return {"reason": "the certificate differs from the rebuilt one"}


def _scan_exit_certificate(stage: PreparedSystem, data: dict) -> Certificate | None:
    """The certificate _level_exit builds at the level that data states, on
    x[:max((K+1)|u|, q+|u|)], q a gap's second stated position: K from the
    count-free sheet, and |u_1|..|u_level| from _u_lengths, where no earlier
    level's prefix may miss its E1 window, as the exit scan would have
    stopped there."""
    level, u_len = _selector(data, "level"), _selector(data, "u_length")
    K = compute_count_free_sheet(stage.staged).K
    end = (K + 1) * u_len
    if data["exit"] == "gap":
        evidence = data.get("evidence")
        positions = evidence.get("positions") if isinstance(evidence, dict) else None
        if type(positions) is not list or [type(i) for i in positions] != [int, int]:
            raise _Rejected(f"positions must be two ints, got {positions!r}")
        end = max(end, positions[1] + u_len)
    # |u_k| >= k, as the lengths rise from |u_1| = 1, and the exit scan
    # charges each of the levels it checks a prefix of at least
    # max(SCAN_FIRST, end) letters, within SCAN_WORK in all
    if not 1 <= level <= min(u_len, SCAN_WORK // max(SCAN_FIRST, end)) or end > SCAN_LETTERS:
        raise _Rejected(
            "the exit scan needs 1 <= level <= |u|, level max(SCAN_FIRST, q+|u|, (K+1)|u|) "
            f"<= SCAN_WORK and q+|u|, (K+1)|u| <= {SCAN_LETTERS}"
        )
    lengths = _u_lengths(stage.staged, level)
    for k, (size, grown) in enumerate(zip(lengths, lengths[1:]), start=1):
        if grown - size > K * size:
            raise _Rejected(f"E1 fires at level {k}")
    if len(lengths) < level or lengths[-1] != u_len:
        raise _Rejected(f"the chain rule gives no |u_{level}| = {u_len}")
    text = FixedPointStream(stage.staged, "x").prefix_chars(end)
    return _level_exit(stage.staged, text, level, u_len, K)


def _repetition_certificate(
    stage: PreparedSystem, cert: Certificate, n: int, m: int, powers: tuple[int, ...]
) -> Certificate | None:
    """The certificate _certify_repetition gives on the descriptors at
    levels n and m of the u-chain on sigma^p, built locally by
    _anchored_levels, for the powers p in turn until one equals cert; None
    where the chain or a closure exits or the builder gives none.  The
    lengths |u_n| and |u_m| are read once, for every power, and m is at most
    PRACTICAL_CAP, the last level the decider drives."""
    if not 1 <= n < m <= PRACTICAL_CAP:
        raise _Rejected(f"levels must satisfy 1 <= n < m <= PRACTICAL_CAP = {PRACTICAL_CAP}")
    lengths = _u_lengths(stage.staged, m)
    if len(lengths) < m:
        return None
    rebuilt = None
    for p in powers:
        found = _anchored_levels(stage, p, (lengths[n - 1], lengths[m - 1]))
        rebuilt = found and _certify_repetition(stage.staged, p, n, m, *found)
        if rebuilt is not None and _rebuilt_error(rebuilt, cert) is None:
            break
    return rebuilt


def _rebuild(stages: list[PreparedSystem], cert: Certificate) -> Certificate | None:
    """The certificate that the decider's own builder gives on the stages
    for the fields of cert that select one, or None where it gives none.
    Raises _Rejected for a selecting field that is not an int or names no
    certificate the decider issues."""
    data = cert.data
    last = stages[-1]
    source = data.get("source") if cert.kind == "periodic" else None
    if cert.kind == "periodic_mismatch" or source == "nongrowing":
        # the pumping branch, rebuilt from the last stage's own witness
        if last.growing or last.pumping_witness is None:
            raise _Rejected("the last stage has no pumping witness")
        return _nongrowing_verdict(last, []).certificate
    if cert.kind == "exit" and data.get("exit") == "letter":
        # rebuilt on the first stage with a witness, where the decider stops
        return next(filter(None, map(_letter_certificate, stages)), None)
    # every other kind settles a growing stage, block-encoded if need be
    if not last.growing:
        raise _Rejected(f"{cert.kind} certificate on a pumping-branch system")
    if cert.kind == "repetition":
        power = _selector(data, "power")
        if power not in LOW_POWERS:
            raise _Rejected(f"power must be an int in {LOW_POWERS}, got {power!r}")
        n, m = _selector(data, "n"), _selector(data, "m")
        return _repetition_certificate(last, cert, n, m, (power,))
    if cert.kind == "primitive":
        return _primitive_certificate(last.staged)
    if cert.kind == "primitive_tail":
        return _tail_certificate(last.staged)
    if cert.kind == "exit":
        if data.get("exit") not in ("E1", "gap"):
            raise _Rejected(f"{data.get('exit')!r} exits are not issued")
        return _scan_exit_certificate(last, data)
    if source == "repetition-1x1":
        # the certificate names no power: any low power may have found it
        levels = data.get("levels")
        if type(levels) is not list or [type(i) for i in levels] != [int, int]:
            raise _Rejected(f"levels must be two ints, got {levels!r}")
        return _repetition_certificate(last, cert, *levels, LOW_POWERS)
    if source not in _PERIOD_SEARCH:
        raise _Rejected(f"a periodic certificate has no source {source!r}")
    # a period search gives x's least period, within the search's range
    q = _selector(data, "period")
    floor = UPFRONT_QMAX if source == "constants-unavailable" else 0
    if not floor < q <= _PERIOD_SEARCH[source][0] or not pure_period_check(last.staged, q):
        return None
    if source == "constants-unavailable":
        # the decider runs that search only where the sheet raises
        try:
            compute_count_free_sheet(last.staged)
        except _SHEET_UNAVAILABLE:
            return _periodic_certificate(last.staged, q, source)
        raise _Rejected("the constant sheet builds, so the decider runs no such search")
    return _periodic_certificate(last.staged, q, source)


def _checked(cert: Certificate) -> dict:
    """The detail of a verified certificate: what it showed."""
    d = cert.data
    if cert.kind == "exit" and d["exit"] == "letter":
        return {"checked": "letter", "letter": d["letter"]}
    if cert.kind == "exit":
        return {"checked": "exit", "kind": d["exit"], "level": d["level"]}
    if cert.kind == "repetition":
        return {"checked": "repetition", "n": d["n"], "m": d["m"]}
    if cert.kind == "primitive_tail":
        return {"checked": "primitive_tail", "p": len(d["v"]) - 1 - d["j"]}
    if cert.kind == "periodic_mismatch":
        return {"checked": "periodic_mismatch", "condition": d["failing_condition"]}
    field = "period" if cert.kind == "periodic" else "positivity_power"
    return {"checked": cert.kind, field: d[field]}


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
        stripped = {k: x for k, x in cert.data.items() if k != "via"}
        return _verify(inner, verdict, Certificate(cert.kind, stripped))
    try:
        rebuilt = _rebuild(list(_stages(sys, [])), cert)
    except _Rejected as e:
        return False, {"reason": str(e)}
    if rebuilt is None:
        return False, {"reason": f"the decider builds no {cert.kind} certificate on this system"}
    bad = _rebuilt_error(rebuilt, cert)
    return (False, bad) if bad is not None else (True, _checked(cert))
