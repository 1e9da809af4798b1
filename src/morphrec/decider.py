"""Decision pipeline for uniform recurrence of the generated sequence.

The flow: restrict to reachable letters, normalize the outer morphism to a
coding, raise sigma so cyclicity classes are stable, then split on whether
every letter grows.  Growing systems first get an exact periodicity check
(periods up to UPFRONT_QMAX, proposed by a prefix scan and confirmed on the
(q+1)-factors of x): a purely periodic x is uniformly recurrent and needs no
constant sheet.  The rest get the `primitive` check first, then the
derived-descriptor iteration with repetition detection at low powers, the
`primitive_tail` check and the exit scan; systems with bounded letters go
through the pumping-word branch.  Verdicts carry machine-checkable
certificates, built by the builders of certify.py and checked by verify.py.

One stage walk, `_walk`, serves the decider and the verifier alike.  It
yields the prepared input and then, while a stage has bounded letters and
no pumping witness, that stage's bounded-block encoding, at most
MAX_ENCODE_HOPS times.  The decider settles the first stage it can (a
letter that occurs finitely often, the growing branch or a pumping
verdict); the verifier, `derive_chain` and the CLI replay the same walk, so
a certificate is checked on the very stage it was issued for.

The decider's walk also checks each encoding on its token system, before
`prepare` blows its outer morphism up into a coding (k + 1 letters for
a -> a b^k a, b -> b): when `_primitive_certificate` settles the token
system, x is settled `primitive` there, with "via": "token-stage" and no
sheet.  The verifier walks the same way for every `primitive` certificate,
so it rebuilds one where the decider issued it, and walks the prepared
stages (`_stages`) for every other kind, as `_growing_stage` and
`derive_chain` do.  A preimage of the image shortcut settled so gets
"via": ["preimage", "token-stage"].

The growing branch first builds the constant sheet without the factor count
p(K+1).  When the sheet raises, a stage that no period of up to 1024 letters
settles gets only the `primitive` and `primitive_tail` checks, which read
none of its constants, and its verdict carries no sheet.  Otherwise the
`primitive` check comes first: a primitive stage is uniformly recurrent
outright and never runs the chain.  Any other stage drives the u-chain on
sigma^p for the small powers in LOW_POWERS below the sheet's full power P
and accepts only a certified repetition there; the `primitive_tail` search
and the exit scan come after it.  A stage that all of these leave open ends
inconclusive, with one `unsettled` trace step.  The paper drives the chain
at P, after counting p(K+1); the decider never does, and `derive_chain`
keeps that chain for inspection.  Why the low pass needs no p(K+1): the
count enters the driver only through K1, the threshold of the guarded exit
E3, and below P any exit only ends that power's try, never a decision.  So
the low pass runs with no K1.  For K >= 3, K1 >= 4 K^3 (K+1)^4 >= 27,648
exceeds PAIR_BUDGET, so the pair budget stops a table before E3 could fire
and the pass is the same as with K1; only K <= 2 can certify where E3 would
have ended the try.

As the `primitive` check runs before the low pass, the paper's chain
certifies only stages that are not primitive; `derive_chain` still drives
it on any growing stage, and a `repetition` issued on a primitive stage
still verifies (the verifier rebuilds it from the chain whatever the
stage).  The exit scan runs after the low pass so that every system a low
power settles keeps its `repetition` certificate, and after the `primitive`
and `primitive_tail` checks because each of them proves uniform recurrence,
so the scan could find nothing where they succeed, and a stage they settle
never pays for it.  A `primitive`, low-power `repetition` or scan verdict
carries the count-free sheet, with its count fields null, and no
`constants` trace step; a `primitive_tail` verdict carries that sheet if
there is one.  A `tail` or `scan` verdict has one trace step of that name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

# the bench's traced run looks up decide_uniform_recurrence, prepare,
# resolve_periodicity, pure_period_check, periodic_checklist and
# verify_certificate on this module; callers read the last three here too
from .certify import (
    _PERIOD_SEARCH, _SHEET_UNAVAILABLE, LOW_POWERS, NOT_UNIFORMLY_RECURRENT,
    UNIFORMLY_RECURRENT, Certificate, _certify_repetition, _exit_scan, _letter_certificate,
    _periodic_certificate, _primitive_certificate, _pumping_certificate, _pumping_witness,
    _tail_certificate, periodic_checklist, pure_period_check, resolve_periodicity,
)
from .constants import ConstantSheet, compute_constant_sheet, compute_count_free_sheet
from .errors import (
    BudgetExhausted, InternalConsistencyError, PreconditionViolated, WitnessSearchExhausted,
)
from .growth import block_decomposition
from .morphism import Morphism, power
from .returns import PRACTICAL_CAP, WORK_BUDGET, DerivedDescriptor, DriverExit, build_sigma_U
from .stream import FixedPointStream
from .system import ProlongableSystem, normalize_to_coding, restrict_to_reachable
from .verify import verify_certificate
from .words import Alphabet

INCONCLUSIVE = "inconclusive"

# bounded-block encodings may chain when coding normalization reintroduces
# bounded letters; give up (soundly) after this many rounds
MAX_ENCODE_HOPS = 8

# largest cell alphabet a bounded-block encoding may build
_MAX_CELL_TOKENS = 512

# a low-power try that exits this way ends the low pass: the u-chain and the
# x-side return words do not depend on the power, so a higher power walks to
# the same exit
_POWER_INDEPENDENT_EXITS = ("short-return", "E1")


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
# growing pipeline


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
        sheet = None

    # neither `primitive` nor `primitive_tail` reads a constant of the
    # sheet, so a stage whose sheet raises gets them too, with sheet None;
    # a primitive stage is settled before the chain
    cert = _primitive_certificate(staged)
    if cert is not None:
        trace.append({"step": "primitive", **cert.data})
        return Verdict(UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))

    for p in LOW_POWERS if sheet is not None else ():
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

    cert = _tail_certificate(staged)
    if cert is not None:
        d = cert.data
        n = len(d["v"]) - 1
        trace.append({"step": "tail", "letters": len(d["B"]), "n": n, "p": n - d["j"]})
        return Verdict(UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))
    if sheet is None:
        return Verdict(INCONCLUSIVE, None, None, tuple(trace))

    cert = _exit_scan(staged, sheet.K)
    if cert is not None:
        d = cert.data
        trace.append({"step": "scan", "K": sheet.K, "level": d["level"], "exit": d["exit"]})
        return Verdict(NOT_UNIFORMLY_RECURRENT, cert, sheet, tuple(trace))

    trace.append({"step": "unsettled", "reason": "no check settles the stage"})
    return Verdict(INCONCLUSIVE, None, sheet, tuple(trace))


# ---------------------------------------------------------------------------
# bounded-block encoding and the non-growing branch


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
    witness = stage.pumping_witness
    trace.append(
        {
            "step": "nongrowing",
            "witness_letter": witness["letter"],
            "witness_power": witness["power"],
            "witness_side": witness["side"],
        }
    )
    cert = _pumping_certificate(stage.staged, witness)
    outcome = UNIFORMLY_RECURRENT if cert.kind == "periodic" else NOT_UNIFORMLY_RECURRENT
    return Verdict(outcome, cert, None, tuple(trace))


# ---------------------------------------------------------------------------
# the stage walk


def _walk(sys: ProlongableSystem, trace: list[dict], token_stage: bool):
    """The one stage walk of the decider and the verifier.

    Yields the prepared input; then, while a stage is non-growing and has no
    pumping witness, block-encodes it and yields the prepared encoding, at
    most MAX_ENCODE_HOPS times.  A walk that ends on such a stage records why
    in an unresolved `nongrowing` trace step.  With token_stage set, an
    encoding whose token system `_primitive_certificate` settles ends the
    walk before it is prepared: the walk yields that certificate, marked
    "via": "token-stage", in place of the stage, so the coding blow-up of
    the token system is never built.
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
        cert = _primitive_certificate(encoded) if token_stage else None
        if cert is not None:
            yield Certificate(cert.kind, {**cert.data, "via": "token-stage"})
            return
        stage = prepare(encoded, trace)
        hops += 1
        yield stage


def _stages(sys: ProlongableSystem, trace: list[dict]):
    """The prepared stages of the walk with no token stage."""
    return _walk(sys, trace, False)


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
    # a preimage settled on its token stage names both steps, in order
    data["via"] = ["preimage", data["via"]] if "via" in data else "preimage"
    trace.append({"step": "image-shortcut", "status": "resolved"})
    return Verdict(
        UNIFORMLY_RECURRENT, Certificate(sub.certificate.kind, data), sub.sheet, tuple(trace)
    )


def _decide(sys: ProlongableSystem, work_budget: int, trace: list[dict]) -> Verdict:
    for stage in _walk(sys, trace, True):
        if isinstance(stage, Certificate):  # a token system that settles x
            trace.append({"step": "primitive", **stage.data})
            return Verdict(UNIFORMLY_RECURRENT, stage, None, tuple(trace))
        cert = _letter_certificate(stage.staged)
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
# the full-power chain, for inspection


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
