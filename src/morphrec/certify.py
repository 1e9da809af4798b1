"""The certificate builders that the decider and the verifier share.

A builder reads a stage of the stage walk (decider.py): the input after
restriction to the letters the start reaches, coding normalization, the
r_sigma power and any bounded-block encodings, each of which keeps
x = phi(y) letter for letter, with y the fixed point of the staged sigma
and phi a coding (the `primitive` builder also reads the token system of
an encoding, see below).  It returns a certificate or None.  The builders
keep their exact checks, so a certificate they return proves what it
states, for the reasons below.

Why a low-power `repetition` is sound: below the sheet's full power P the
driver demands that every pair image sigma^p(w) is cut exactly into whole
return words (first cut at 0, closing cut at |sigma^p(w)|).  Each pair
(w, u') is then followed in y by its u', and the cuts are all occurrences
of v = phi(u) that start inside sigma^p(w), so Theta sigma_U = sigma^p Theta
holds letter for letter.  As sigma_U(1) starts with 1 and y is fixed by
sigma^p, y = Theta(D) for the fixed point D of sigma_U, and x = phi(y) cuts
at every occurrence of v into the x-side return words psi(D).  Levels
n < m with the same sigma_U and psi have D_n = D_m, and tau factors each
level-m return word at the occurrences of v_n (v_m starts with v_n), so
tau(psi(D_m)) = psi(D_n) = psi(D_m).  With tau primitive, psi(D_n) is the
fixed point of a primitive substitution, hence uniformly recurrent, and so
is its non-erasing image x.  No constant of the sheet enters this argument,
so it holds at any power (Durand 1998, "A characterization of substitutive
sequences using return words").

Why a `primitive` certificate is sound: it states that some power M^k of
the incidence matrix of sigma is positive, for a system x = phi(y) whose
phi erases no letter.  Then sigma is primitive, so every factor of y occurs
in every image sigma^n(b) for n large enough, and y is uniformly recurrent
(Queffelec, "Substitution Dynamical Systems", LNM 1294, 1987).  A factor w
of x lies within phi(u) for a factor u of y of at most |w| letters, u
recurs in y within some G letters, so w recurs in x within G max|phi(t)|
letters: x is uniformly recurrent.  No constant of the sheet enters.  On a
stage phi is a coding, the case max|phi(t)| = 1.  The decider also reads
the certificate on the token system of a bounded-block encoding
(decider._encode_bounded_blocks), before that system is prepared, and marks
it "via": "token-stage".  The encoding presents x as phi'(y'), with y' the
fixed point of the token sigma' from token 1 and phi' sending each token (a
cell and the growing letter after it) to phi of its cell; it keeps x letter
for letter by construction, and checks so on a prefix.  A cell holds a
growing letter, so phi' erases none, and the argument needs no blow-up that
would make phi' a coding.

The exit scan walks the u-chain's prefixes by the chain rule, on prefixes
of x that double from SCAN_FIRST to SCAN_LETTERS letters (the bound on
every E1 scan, stated in returns.py) and within SCAN_WORK letters searched,
and ends at the first level where v = x[:|u|] either has no second
occurrence ending within (K+1)|v| letters (E1, the test the driver makes
first at each level) or has two successive occurrences more than K|v|
apart (a `gap`, the return word that E2 bounds).  Why either refutes
uniform recurrence at any level and any power: a uniformly recurrent
morphic x is linearly recurrent, and K bounds its constant, so every return
word of x to any factor v has length at most K|v| (Durand, "Linearly
recurrent subshifts have a finite number of non-periodic subshift
factors", ETDS 2000).  Both facts are about x alone: v is a prefix of x
whatever level named it, and sigma^p has the same fixed point for every p,
so neither needs P, the factor count or a closure.  An E1 the scan finds is
the exit the full-power chain would have taken at that level, with the same
message; a gap is an unconditional exit that the chain does not name.
`_level_exit` builds both certificates, for the scan and the verifier
alike.

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
power of sigma restricted to B).  The builder searches depth first
from e over minimal preimages v' (no proper suffix of v' ends its image
with v w), along a path of distinct words, within TAIL_WORD letters,
TAIL_CHAIN steps and TAIL_STEPS letters tried.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExhausted, InternalConsistencyError, NoPrimitiveSubmorphism, NotPrimitive,
    PreconditionViolated,
)
from .growth import Matrix, horn_exponent, letter_bits, power_is_positive
from .morphism import Morphism, power
from .returns import SCAN_LETTERS, DerivedDescriptor
from .stream import FixedPointStream, factor_language
from .system import ProlongableSystem
from .words import occurrences_until

# the outcomes that certificates imply
UNIFORMLY_RECURRENT = "uniformly_recurrent"
NOT_UNIFORMLY_RECURRENT = "not_uniformly_recurrent"

# powers tried, below the sheet's full power, before the other checks; a
# `repetition` is issued, and rebuilt, only at one of them
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


def _letter_certificate(staged: ProlongableSystem) -> Certificate | None:
    """The `letter` exit of a stage that has a finite_letter_witness, or None."""
    letter = finite_letter_witness(staged)
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
# growing stages: repetition, exits, primitive and primitive tail


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
    window does not fit, stepping |u| by the chain rule of verify._u_lengths
    on the prefix itself.  It stops at the first hit, and gives None once
    the levels it checked have charged SCAN_WORK letters, one prefix length
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

def _primitive_certificate(sys: ProlongableSystem) -> Certificate | None:
    """The `primitive` certificate of a system whose sigma is primitive and
    whose phi erases no letter, else None (see the module docstring for why
    it implies uniform recurrence)."""
    k = sys.incidence.primitive_exponent
    if k is None or sys.effective_phi.is_erasing:
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


def _pumping_certificate(staged: ProlongableSystem, witness: dict) -> Certificate:
    """The certificate of a non-growing stage with a pumping witness: the
    pumping word w and the periodicity checklist on it give a `periodic`
    certificate when x is periodic, else a `periodic_mismatch` naming the
    condition that fails."""
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
        return _periodic_certificate(staged, q, "nongrowing", pumping=pumping, checklist=report)
    failing = 1 if not report["condition1"]["holds"] else 2
    return Certificate(
        kind="periodic_mismatch",
        data={
            "failing_condition": failing,
            "pumping": pumping,
            "checklist": report,
        },
    )
