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
An E1 it finds is the certificate the full-power chain would have issued at
that level; a gap is an unconditional exit that the chain does not name.
Its verdict carries the count-free sheet and one `scan` trace step.

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
    gives sigma^p(v_j) = s' v_j W_p for some word s'; the verifier checks
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
is one, and one `tail` trace step.  The verifier rebuilds w and B from the
stage and checks every stated fact locally, with no sheet, no sigma^P and
no replay.

The verifier checks a `repetition` locally, with no constant sheet, and
only at a power in LOW_POWERS.  It composes the staged sigma to that power,
gets |u_1|..|u_m| from the chain rule alone (u_(k+1) is y up to the second
occurrence of v_k in x, plus |u_k| letters: one scan per level, no
closure), builds only the closures at levels n and m, anchored and with no
exit that K sets, and then checks the descriptors, tau and its positivity
power as for any repetition.  Two facts let it skip the sheet.  The
argument above needs only closed, anchored tables at two prefixes u_n and
u_m of y with |u_n| < |u_m|, plus the checks on tau.  And K enters
`build_sigma_U` only through exits and through E1's scan window, so a run
that produced a descriptor reproduces it letter for letter with those
exits off.  Neither fact involves P, so a low power is not checked against
it, and an anchored check that exits rejects the certificate.

The verifier checks every E1 and every gap certificate locally too: K from
the count-free sheet, |u_1|..|u_level| from the chain rule with each level's
E1 window (an earlier level whose prefix does not recur there is an E1 at
that level, so the stated level is wrong), and one scan of x at the stated
level.  For E1, v must not recur within (K+1)|v|; for a gap, the stated
positions must be successive occurrences of v more than K|v| apart.  Both
must lie within SCAN_LETTERS letters of x, the prefix the exit scan reads,
so the verifier reads no further than the decider.  No factor count, no
sigma^P and no closure are involved.  Every other exit kind but `letter` is
rejected: the decider issues none, and nothing is replayed on the full sheet.

Like an E1 or a gap, a `letter` exit (rebuilt on the first stage with a
witness) and a `periodic_mismatch` or pumping-branch `periodic` (rebuilt
from the last stage's own witness and pumping word) must equal the
certificate that the decider's own builder gives, as key-sorted JSON.  The
other kinds are checked field by field, each stated fact recomputed or
proved by an exact test.
"""

from __future__ import annotations

import json
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
    e1_exit,
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

# the exit scan walks the u-chain on prefixes of x that double from
# SCAN_FIRST letters up to SCAN_LETTERS (returns.py), checking a level on a
# prefix only while that level's E1 window (K+1)|v| fits in it; each level
# checked charges the prefix length, and the scan gives up once the charges
# pass SCAN_WORK letters
SCAN_FIRST = 1 << 12
SCAN_WORK = 1 << 23

# a low-power try that exits this way ends the low pass: the u-chain and the
# x-side return words do not depend on the power, so a higher power walks to
# the same exit
_POWER_INDEPENDENT_EXITS = ("short-return", "E1")

# the primitive-tail search tries at most TAIL_STEPS letters in all, for
# words v_i of at most TAIL_WORD letters along chains of at most TAIL_CHAIN
# steps; the verifier rejects longer words and chains, and a cycle whose
# sigma^p(v_j) has more than TAIL_IMAGE letters
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


def resolve_periodicity(
    sys: ProlongableSystem, qmax: int, scan: int | None = None
) -> tuple[int | None, dict]:
    """Find and exactly confirm a pure period of x, if one exists up to qmax.

    Candidates are the periods of a prefix, ascending; every
    candidate is confirmed or rejected by the exact factor condition, so a
    returned period is proven.  Returns (period, evidence).
    """
    scan_len = scan if scan is not None else max(8 * qmax, 1 << 14)
    prefix = FixedPointStream(sys, "x").prefix_chars(scan_len)
    candidates = _prefix_period_candidates(prefix, qmax)
    evidence = {"qmax": qmax, "scan_length": len(prefix), "candidates": candidates}
    for q in candidates:
        if pure_period_check(sys, q):
            return q, evidence
    return None, evidence


def _periodic_certificate(sys: ProlongableSystem, q: int, source: str, **fields) -> Certificate:
    """The `periodic` certificate for a period q of x that an exact test
    confirmed: the word x[:q], q and the source that found it, then the
    source's own fields (evidence, levels, or pumping and checklist)."""
    word = sys.target_alphabet.decode(FixedPointStream(sys, "x").prefix_chars(q))
    data = {"word": word, "period": q, "source": source, **fields}
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
    """Build the UR certificate from two levels with equal descriptors.

    Returns None when the connecting morphism is not primitive (the caller
    then keeps iterating).  A 1x1 repetition is certified as exact pure
    periodicity instead.
    """
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


def _exit_certificate(exit_: DriverExit, level: int, u_len: int) -> Certificate:
    data = {
        "exit": exit_.kind,
        "unconditional": exit_.unconditional,
        "level": level,
        "u_length": u_len,
        "message": exit_.message,
        "evidence": dict(exit_.evidence),
    }
    return Certificate(kind="exit", data=data)


def _chain_rule(second):
    """The lengths |u_1|, |u_2|, ... of the u-chain, which do not depend on
    the power of sigma: u_1 is the start letter, and u_(k+1) is y up to the
    second occurrence of v_k = phi(u_k) = x[:|u_k|] in x, plus |u_k|
    letters.  Yields (k, |u_k|); only when resumed does it call
    second(|u_k|) for the start of that second occurrence, and it stops
    where second gives None.  The closures of the driver follow the same
    rule: their first pair is (y[:p], y[p:p + |u|]), p that start."""
    level, size = 1, 1
    while True:
        yield level, size
        p = second(size)
        if p is None:
            return
        level, size = level + 1, size + p


def _gap_exit(level: int, size: int, p: int, q: int, bound: int) -> DriverExit:
    """The exit for successive starts p < q of v = x[:size] with q - p above
    bound = K|v|."""
    return DriverExit(
        kind="gap",
        unconditional=True,
        message=f"the prefix of length {size} recurs after {q - p} letters, "
        f"more than K|u| = {bound}",
        evidence={
            "level": level,
            "u_length": size,
            "positions": [p, q],
            "gap": q - p,
            "bound": bound,
        },
    )


def _first_gap(text: str, v: str, bound: int) -> tuple[int, int] | None:
    """The first successive starts p < q of v in text with q - p > bound,
    or None; v starts text.  Each step jumps to the last start within bound
    letters, so a step costs one str.rfind and covers about bound letters."""
    p = 0
    while True:
        last = text.rfind(v, p + 1, p + bound + len(v))
        if last == -1:
            q = text.find(v, p + 1)
            return None if q == -1 else (p, q)
        p = last


def _exit_scan(staged: ProlongableSystem, K: int) -> tuple[int, int, DriverExit] | None:
    """(level, |u|, exit) of the first E1 or gap along the u-chain, or None.

    At each level, first E1, the test build_sigma_U makes first (v = x[:|u|]
    has no second start within Km, m = |v|, that is no second occurrence
    ending within (K+1)m letters); then a gap, two successive starts of v
    more than Km apart anywhere in the prefix, a return word that E2 bounds.
    The walk runs on x[:SCAN_FIRST], then on prefixes twice as long up to
    x[:SCAN_LETTERS], each time from level 1 up to the first level whose E1
    window does not fit; it stops at the first hit, or once the levels it
    checked have charged SCAN_WORK letters, one prefix length each."""
    xstream = FixedPointStream(staged, "x")
    spent = 0
    length = SCAN_FIRST
    while length <= SCAN_LETTERS and spent + length <= SCAN_WORK:
        text = xstream.prefix_chars(length)
        for level, size in _chain_rule(lambda size: text.find(text[:size], 1)):
            window = (K + 1) * size
            if window > length:
                break
            spent += length
            if spent > SCAN_WORK:
                return None
            v = text[:size]
            if text.find(v, 1, window) == -1:
                u = FixedPointStream(staged, "y").prefix_chars(size)
                return level, size, e1_exit(staged.alphabet, u, window, 1)
            gap = _first_gap(text, v, K * size)
            if gap is not None:
                return level, size, _gap_exit(level, size, *gap, K * size)
        length *= 2
    return None


def _levels(
    sys_pow: ProlongableSystem,
    power: int,
    sheet: ConstantSheet,
    last: int,
    work_budget: int,
):
    """The u-chain on sys_pow = sigma^power: yields (n, u, descriptor or
    exit) for the levels 1..last and stops after the first exit.  Below the
    full power every pair image must be anchored."""
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
        yield n, u, res
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

    Returns the certificate of the first certified repetition, the
    (level, |u|, exit) of a driver exit, or None when the cap is reached.
    """
    seen: dict[tuple, tuple[int, DerivedDescriptor]] = {}
    for n, u, res in _levels(sys_pow, power, sheet, PRACTICAL_CAP, work_budget):
        if isinstance(res, DriverExit):
            return n, len(u), res
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
        q, ev = resolve_periodicity(staged, qmax=UPFRONT_QMAX, scan=8 * UPFRONT_QMAX)
    except BudgetExhausted:
        q = None
    if q is not None:
        trace.append({"step": "upfront-periodic", "period": q})
        cert = _periodic_certificate(staged, q, "upfront", evidence=ev)
        return Verdict(UNIFORMLY_RECURRENT, cert, None, tuple(trace))
    try:
        sheet = compute_count_free_sheet(staged)
    except (PreconditionViolated, NoPrimitiveSubmorphism, BudgetExhausted) as e:
        q, ev = resolve_periodicity(staged, qmax=1024)
        if q is not None:
            cert = _periodic_certificate(staged, q, "constants-unavailable", evidence=ev)
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
        if isinstance(found, tuple) and found[2].kind in _POWER_INDEPENDENT_EXITS:
            break

    settled = _sheet_free_verdict(staged, sheet, trace)
    if settled is not None:
        return settled

    hit = _exit_scan(staged, sheet.K)
    if hit is not None:
        n, u_len, res = hit
        trace.append({"step": "scan", "K": sheet.K, "level": n, "exit": res.kind})
        cert = _exit_certificate(res, n, u_len)
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
        for n, _, res in _levels(sys_pow, power, sheet, level, work_budget):
            if isinstance(res, DriverExit):
                return sys_pow, out, (n, res)
            out[n] = res
    except BudgetExhausted as e:
        return sys_pow, out, (len(out) + 1, DriverExit("budget", False, str(e)))
    return sys_pow, out, None


def _anchored_levels(stage: PreparedSystem, power: int, n: int, m: int):
    """The descriptors at levels n and m of the u-chain on sigma^power,
    checked locally: returns (level-n descriptor, level-m descriptor), or
    the level at which the chain or a closure exited.

    |u_1|..|u_m| come from the chain rule alone (`_chain_rule`).  Its scans
    share one WORK_BUDGET of x letters and each reads at most SCAN_LETTERS,
    so a forged level ends in an exit or raises BudgetExhausted.
    Only the closures at n and m are built, anchored and with no exit that
    K sets.
    """
    sys_pow = stage.staged.with_sigma_power(power)
    xstream = FixedPointStream(sys_pow, "x")
    spent = 0

    def second(size: int) -> int | None:
        nonlocal spent
        occ = first_two_occurrences(xstream, xstream.prefix_chars(size), WORK_BUDGET - spent)
        if len(occ) < 2:
            return None
        spent += occ[1] + size
        return occ[1]

    lengths = [size for _, size in islice(_chain_rule(second), m)]
    if len(lengths) < m:
        return len(lengths)
    ystream = FixedPointStream(sys_pow, "y")
    descs = []
    for level in (n, m):
        res = build_sigma_U(sys_pow, ystream.prefix_chars(lengths[level - 1]), None, anchored=True)
        if isinstance(res, DriverExit):
            return level
        descs.append(res)
    return descs[0], descs[1]


def _repetition_levels(stage: PreparedSystem, power, n: int, m: int):
    """The descriptors at levels n and m that a `repetition` certificate
    names, checked locally at its power, which must be in LOW_POWERS; or
    the rejection of that power or of an exit on the way."""
    if type(power) is not int or power not in LOW_POWERS:
        return {"reason": f"power must be an int in {LOW_POWERS}, got {power!r}"}
    found = _anchored_levels(stage, power, n, m)
    if isinstance(found, int):
        return {"reason": f"driver exited at level {found}"}
    return found


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

    The stage walk and every fact the certificate rests on are recomputed.
    A `letter`, E1 or gap `exit`, a `periodic_mismatch` and a `periodic`
    from source `nongrowing` are rebuilt whole and compared; a low-power
    `repetition` is checked locally at its two levels, a `primitive_tail`
    from the stage's tail, the rest field by field (see the module
    docstring).  Nothing is replayed on the u-chain: a `repetition` at
    another power, a `periodic` from a source the decider does not issue
    and an `exit` of any other kind are rejected.
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


def _positivity_power_error(k, d: int) -> dict | None:
    """The rejection of a stated positivity power k of a d x d matrix, or
    None when k is an int (not a bool) in 1..d^2 - 2d + 2.  A primitive
    matrix is positive at that power (Wielandt), and the bound keeps the
    matrix power small against a forged huge k."""
    bound = d * d - 2 * d + 2
    if type(k) is not int or not 1 <= k <= bound:
        return {"reason": f"positivity_power must be an int in 1..{bound}, got {k!r}"}
    return None


def _int_fields_error(data: dict, fields: tuple[str, ...]) -> dict | None:
    """The rejection of a certificate whose named fields are not all ints
    (a bool is not one), or None."""
    for f in fields:
        if type(data.get(f)) is not int:
            return {"reason": f"{f} must be an int, got {data.get(f)!r}"}
    return None


def _rebuilt_error(rebuilt: Certificate, cert: Certificate) -> dict | None:
    """The rejection of a certificate that differs from the one rebuilt from
    the stage, or None.  Both are compared as key-sorted JSON, where True and
    2.0 differ from 1 and 2, as they would not under ==."""
    want, got = (json.dumps(c.to_json_dict(), sort_keys=True) for c in (rebuilt, cert))
    return None if want == got else {"reason": "the certificate differs from the rebuilt one"}


def _scan_exit_error(stage: PreparedSystem, cert: Certificate) -> dict | None:
    """The rejection of an E1 or a gap certificate on a growing stage, or
    None.  Checked locally: K from the count-free sheet, |u_1|..|u_level|
    from the chain rule with each level's E1 window, and one scan of x at
    the stated level; the certificate must equal the one rebuilt from them.
    """
    data = cert.data
    bad = _int_fields_error(data, ("u_length",))
    if bad is not None:
        return bad
    level, u_len = data["level"], data["u_length"]
    K = compute_count_free_sheet(stage.staged).K
    if level < 1 or u_len < 1 or (K + 1) * u_len > SCAN_LETTERS:
        return {"reason": f"level and u_length must be positive, with (K+1)|u| <= {SCAN_LETTERS}"}
    xstream = FixedPointStream(stage.staged, "x")

    def second(size: int) -> int | None:
        occ = first_two_occurrences(xstream, xstream.prefix_chars(size), (K + 1) * size)
        return occ[1] if len(occ) == 2 else None

    for k, size in _chain_rule(second):
        if k == level or size >= u_len:
            break
    else:
        return {"reason": f"E1 fires at level {k}"}
    if (k, size) != (level, u_len):
        return {"reason": f"the chain rule gives |u_{k}| = {size}"}
    if data["exit"] == "E1":
        if second(size) is not None:
            return {"reason": "the prefix recurs within its E1 window"}
        # v = x[:size] starts x, so its one occurrence in the window is at 0
        u = FixedPointStream(stage.staged, "y").prefix_chars(size)
        rebuilt = e1_exit(stage.staged.alphabet, u, (K + 1) * size, 1)
    else:
        evidence = data.get("evidence")
        positions = evidence.get("positions") if isinstance(evidence, dict) else None
        if type(positions) is not list or [type(i) for i in positions] != [int, int]:
            return {"reason": f"positions must be two ints, got {positions!r}"}
        p, q = positions
        if not 0 <= p < q or q + size > SCAN_LETTERS:
            return {"reason": f"positions must satisfy 0 <= p < q <= {SCAN_LETTERS} - |u|"}
        text = xstream.prefix_chars(q + size)
        v = text[:size]
        if not text.startswith(v, p) or text.find(v, p + 1) != q:
            return {"reason": "the positions are not successive occurrences of the prefix"}
        if q - p <= K * size:
            return {"reason": f"a gap of {q - p} is within K|u| = {K * size}"}
        rebuilt = _gap_exit(level, size, p, q, K * size)
    return _rebuilt_error(_exit_certificate(rebuilt, level, size), cert)


def _tail_error(stage: PreparedSystem, data: dict) -> dict | None:
    """The rejection of a `primitive_tail` certificate on a growing stage,
    or None.  Checked locally from the stage's own tail: w and B, the
    positivity power of sigma on B, the chain's suffix conditions, the
    minimality of each v_(i+1), the cycle's image sigma^p(v_j) and the least
    prefix length m, with no sheet, no sigma^P and no replay."""
    staged = stage.staged
    tail = _transient_tail(staged)
    if tail is None:
        return {"reason": "the start letter is not transient"}
    alpha = staged.alphabet
    if data.get("w") != alpha.decode(tail.w):
        return {"reason": "w is not the tail of the start letter's image"}
    tokens = list(tail.sub.src.tokens)
    if data.get("B") != tokens:
        return {"reason": "B is not the set of letters reachable from w"}
    k = data.get("positivity_power")
    bad = _positivity_power_error(k, len(tokens)) or _int_fields_error(data, ("j", "m"))
    if bad is not None:
        return bad
    if not power_is_positive(tail.sub.incidence_matrix(), k):
        return {"reason": "stated power does not make sigma on B positive"}
    e, v = data.get("e"), data.get("v")
    if type(v) is not list or not 2 <= len(v) <= TAIL_CHAIN + 1 or any(
        type(x) is not list or not 1 <= len(x) <= TAIL_WORD or not set(x) <= set(tokens)
        for x in v
    ):
        return {
            "reason": f"v must be 2..{TAIL_CHAIN + 1} words of 1..{TAIL_WORD} letters of B"
        }
    if e not in tokens or v[0] != [e]:
        return {"reason": "e must be a letter of B and v_0 = e"}
    phi = staged.effective_phi
    if phi.image(e) != phi.image(staged.start):
        return {"reason": "phi(e) differs from phi of the start letter"}
    words = [alpha.encode(x) for x in v]
    n, j = len(words) - 1, data["j"]
    if not 0 <= j < n or words[n] != words[j] or len(set(words[:n])) != n:
        return {"reason": "v_0 .. v_(n-1) must be distinct, with v_n = v_j for 0 <= j < n"}
    sigma = staged.sigma
    for i in range(n):
        want = words[i] + tail.w
        if not sigma.apply(words[i + 1]).endswith(want):
            return {"reason": f"sigma(v_{i + 1}) does not end with v_{i} w"}
        if sigma.apply(words[i + 1][1:]).endswith(want):
            return {"reason": f"v_{i + 1} is not a minimal preimage"}
    m = _tail_prefix(staged, words[j], n - j)
    if m is None:
        return {"reason": f"sigma^p(v_j) is not s' v_j W_p within {TAIL_IMAGE} letters"}
    if data["m"] != m:
        return {"reason": f"the least prefix length is {m}"}
    if m > 1 and not _in_tail_language(tail, words[j][:m], k):
        return {"reason": "the prefix of v_j is not a factor of L_B"}
    return None


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
    # every branch reads the stages the decider walked: the first is the
    # prepared input, the last the growing or pumping-branch stage
    stages = list(_stages(sys, []))
    last = stages[-1]
    if cert.kind == "periodic_mismatch" or (
        cert.kind == "periodic" and cert.data.get("source") == "nongrowing"
    ):
        # the pumping branch, rebuilt whole from the last stage's own witness
        if last.growing or last.pumping_witness is None:
            return False, {"reason": "the last stage has no pumping witness"}
        bad = _rebuilt_error(_nongrowing_verdict(last, []).certificate, cert)
        if bad is not None:
            return False, bad
        if cert.kind == "periodic":
            return True, {"checked": "periodic", "period": cert.data["period"]}
        return True, {"checked": "periodic_mismatch", "condition": cert.data["failing_condition"]}

    if cert.kind == "exit" and cert.data.get("exit") == "letter":
        # rebuilt on the first stage with a witness, where the decider stops
        rebuilt = next(filter(None, map(_letter_certificate, stages)), None)
        if rebuilt is None:
            return False, {"reason": "letter witness not reproduced"}
        bad = _rebuilt_error(rebuilt, cert)
        if bad is not None:
            return False, bad
        return True, {"checked": "letter", "letter": cert.data["letter"]}

    # every other kind settles a growing stage, block-encoded if need be
    if not last.growing:
        return False, {"reason": f"{cert.kind} certificate on a pumping-branch system"}

    if cert.kind == "repetition":
        bad = _int_fields_error(cert.data, ("n", "m", "table_size", "pair_count"))
        if bad is not None:
            return False, bad
        n, m = cert.data["n"], cert.data["m"]
        if not (1 <= n < m):
            return False, {"reason": "levels must satisfy 1 <= n < m"}
        found = _repetition_levels(last, cert.data.get("power"), n, m)
        if isinstance(found, dict):
            return False, found
        low, high = found
        if (low.sigma_u_images, low.psi) != (high.sigma_u_images, high.psi):
            return False, {
                "reason": "descriptors differ",
                "diff": {"n": low.canonical_text(), "m": high.canonical_text()},
            }
        tau = _connecting_morphism(low, high)
        if [list(img) for img in tau] != cert.data["tau"]:
            return False, {"reason": "stored tau differs from the rebuilt one"}
        if cert.data["table_size"] != len(high.x_returns):
            return False, {"reason": "stored table size differs from the rebuilt one"}
        if cert.data["pair_count"] != len(high.pairs):
            return False, {"reason": "stored pair count differs from the rebuilt one"}
        if cert.data["canonical"] != low.canonical_text():
            return False, {"reason": "stored canonical form differs from the rebuilt one"}
        # a positive power proves tau primitive
        mat = _index_incidence(tau, len(low.x_returns))
        k = cert.data.get("positivity_power")
        bad = _positivity_power_error(k, len(cert.data["tau"]))
        if bad is not None:
            return False, bad
        if not power_is_positive(mat, k):
            return False, {"reason": "stated power does not make tau positive"}
        if tau[0][0] != 1:
            return False, {"reason": "tau is not prolongable on index 1"}
        return True, {"checked": "repetition", "n": n, "m": m}

    if cert.kind == "primitive":
        staged = last.staged
        k = cert.data.get("positivity_power")
        bad = _positivity_power_error(k, len(staged.alphabet))
        if bad is not None:
            return False, bad
        if staged.effective_phi.max_image_len != 1:
            return False, {"reason": "the staged phi is not letter-to-letter"}
        if not power_is_positive(staged.sigma.incidence_matrix(), k):
            return False, {"reason": "stated power does not make sigma positive"}
        return True, {"checked": "primitive", "positivity_power": k}

    if cert.kind == "primitive_tail":
        bad = _tail_error(last, cert.data)
        if bad is not None:
            return False, bad
        return True, {"checked": "primitive_tail", "p": len(cert.data["v"]) - 1 - cert.data["j"]}

    if cert.kind == "periodic":
        source = cert.data.get("source")
        if source not in ("upfront", "constants-unavailable", "repetition-1x1"):
            return False, {"reason": f"a periodic certificate has no source {source!r}"}
        bad = _int_fields_error(cert.data, ("period",))
        if bad is not None:
            return False, bad
        staged = stages[0].staged
        q = cert.data["period"]
        word = cert.data["word"]
        if q != len(word) or q < 1:
            return False, {"reason": "period does not match the word length"}
        got = staged.target_alphabet.decode(FixedPointStream(staged, "x").prefix_chars(q))
        if got != list(word):
            return False, {"reason": "stored word is not the x-prefix"}
        if not pure_period_check(staged, q):
            return False, {"reason": "exact period test failed"}
        return True, {"checked": "periodic", "period": q}

    if cert.kind == "exit":
        data = cert.data
        bad = _int_fields_error(data, ("level",))
        if bad is not None:
            return False, bad
        level = data["level"]
        if data["exit"] not in ("E1", "gap"):
            return False, {"reason": f"{data['exit']!r} exits are not issued"}
        bad = _scan_exit_error(last, cert)
        if bad is not None:
            return False, bad
        return True, {"checked": "exit", "kind": data["exit"], "level": level}

    return False, {"reason": f"unknown certificate kind {cert.kind!r}"}
