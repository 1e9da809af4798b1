"""End-to-end decision pipeline: verdicts, certificates, verification, and the
inspection helpers around them."""

import json
import random
import re
import time
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphrec import certify, constants, decider, returns, stream, verify
from morphrec.catalog import entries, get
from morphrec.constants import compute_constant_sheet
from morphrec.certify import (
    LOW_POWERS,
    UPFRONT_QMAX,
    _connecting_morphism,
    _prefix_period_candidates,
    periodic_checklist,
)
from morphrec.decider import (
    INCONCLUSIVE,
    NOT_UNIFORMLY_RECURRENT,
    UNIFORMLY_RECURRENT,
    Certificate,
    Verdict,
    _drive_to_level,
    _growing_stage,
    decide_uniform_recurrence,
    derive_chain,
    prepare,
)
from morphrec.verify import verify_certificate
from morphrec.errors import (
    BudgetExhausted,
    MorphrecError,
    PreconditionViolated,
    WitnessSearchExhausted,
)
from morphrec.morphism import Morphism, power
from morphrec.returns import PRACTICAL_CAP, WORK_BUDGET, DriverExit, build_sigma_U
from morphrec.system import ProlongableSystem, parse_system
from morphrec.words import Alphabet, occurrences_in_word

import test_fuzz
import test_stage_rewrite_golden


def load(name):
    return parse_system(get(name).text)


def chain_verdict(sys_, work_budget=WORK_BUDGET):
    """The verdict of the low-power chain on the growing stage of sys_, or
    None where no power in LOW_POWERS below the sheet's full power
    certifies a repetition.  It is the decider's low pass, driven on a
    primitive stage too, which the decider settles `primitive` before the
    chain; its trace holds the pass's `low-power` steps.  A system that the
    image shortcut applies to is driven on its preimage, and the
    certificate is marked the way the shortcut marks it."""
    inner = decider._preimage_system(sys_)
    staged = _growing_stage(inner or sys_).staged
    sheet = constants.compute_count_free_sheet(staged)
    trace = []
    for p in LOW_POWERS:
        if p >= sheet.power_exponent:
            break
        try:
            found = decider._chain(staged.with_sigma_power(p), p, sheet, work_budget)
        except BudgetExhausted:
            found = None
        certified = isinstance(found, Certificate)
        trace.append({"step": "low-power", "power": p, "certified": certified})
        if certified:
            data = {**found.data, "via": "preimage"} if inner is not None else found.data
            return Verdict(UNIFORMLY_RECURRENT, Certificate(found.kind, data), sheet, tuple(trace))
        if isinstance(found, DriverExit) and found.kind in decider._POWER_INDEPENDENT_EXITS:
            break
    return None


# the two census draws whose stages are not primitive, so the decider
# settles them with the chain: a repetition at sigma, n = 2, m = 3
CHAIN_DRAWS = {
    f"b_{img.replace(' ', '')}": (
        f"alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> {img}\nc -> c b\n"
        "phi:\na -> 0\nb -> 1\nc -> 0\n"
    )
    for img in ("b c", "b c b")
}


# -- verdicts on the named corpus ------------------------------------------------------


@pytest.mark.parametrize(
    "name,outcome,kind",
    [
        ("fibonacci", UNIFORMLY_RECURRENT, "repetition"),
        ("thue_morse", UNIFORMLY_RECURRENT, "repetition"),
        ("rudin_shapiro_coded", UNIFORMLY_RECURRENT, "repetition"),
        ("nonur_block", NOT_UNIFORMLY_RECURRENT, "periodic_mismatch"),
        ("tail_fin", NOT_UNIFORMLY_RECURRENT, "exit"),
        ("tail_fin_const", UNIFORMLY_RECURRENT, "periodic"),
        ("cycle_tail_const", UNIFORMLY_RECURRENT, "periodic"),
        ("periodic_coded", UNIFORMLY_RECURRENT, "periodic"),
        ("nonprim_growing", NOT_UNIFORMLY_RECURRENT, "exit"),
        ("blown_fib", UNIFORMLY_RECURRENT, "repetition"),
        ("unreachable_extra", UNIFORMLY_RECURRENT, "repetition"),
    ],
)
def test_catalog_verdicts(name, outcome, kind):
    sys_ = load(name)
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == outcome
    if kind == "repetition":
        # the stage is primitive, so it is settled before the chain, which
        # still certifies the repetition
        assert v.certificate.kind == "primitive"
        ok, detail = verify_certificate(sys_, v)
        assert ok, detail
        v = chain_verdict(sys_)
    assert v.certificate.kind == kind
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


@pytest.mark.parametrize("name", sorted(CHAIN_DRAWS))
def test_a_non_primitive_stage_gets_the_chains_repetition(name):
    sys_ = parse_system(CHAIN_DRAWS[name])
    v = decide_uniform_recurrence(sys_)
    d = v.certificate.data
    assert (v.certificate.kind, d["power"], d["n"], d["m"]) == ("repetition", 1, 2, 3)
    assert v.trace[-1] == {"step": "low-power", "power": 1, "certified": True}
    assert v == replace(chain_verdict(sys_), trace=v.trace)
    ok, detail = verify_certificate(sys_, v)
    assert ok and detail == {"checked": "repetition", "n": 2, "m": 3}, detail


@pytest.mark.parametrize("budget", [0, -5])
def test_a_work_budget_below_one_is_rejected(budget):
    # at budget 0, chacon3 once came back primitive instead of repetition
    for name in ("fibonacci", "chacon3"):
        with pytest.raises(PreconditionViolated, match=f"got {budget}$"):
            decide_uniform_recurrence(load(name), work_budget=budget)
    assert decide_uniform_recurrence(load("fibonacci"), work_budget=1).outcome in (
        UNIFORMLY_RECURRENT, INCONCLUSIVE
    )


def test_erasing_sigma_is_rejected():
    with pytest.raises(MorphrecError):
        decide_uniform_recurrence(load("erasing_sigma"))


def test_fibonacci_repetition_certificate_fields():
    v = chain_verdict(load("fibonacci"))
    d = v.certificate.to_json_dict()
    assert d["kind"] == "repetition"
    assert d["n"] == 1 and d["m"] == 2
    assert d["table_size"] == 2 and d["pair_count"] == 2
    assert d["tau"] == [[1, 2], [1]]
    assert d["positivity_power"] == 2
    assert d["power"] == 1
    assert d["canonical"].startswith("pairs: 2\n")


def test_letter_finiteness_exit_shape():
    v = decide_uniform_recurrence(load("tail_fin"))
    d = v.certificate.to_json_dict()
    assert d["exit"] == "letter"
    assert d["unconditional"] is True
    assert d["level"] == 0
    assert d["letter"] == "a"


def test_nonur_pumping_witness_shape():
    v = decide_uniform_recurrence(load("nonur_block"))
    d = v.certificate.to_json_dict()
    assert d["failing_condition"] == 1
    assert d["pumping"]["letter"] == "0"
    assert d["checklist"]["condition1"]["holds"] is False
    assert d["checklist"]["condition1"]["witness"] == ["0", "0"]


def test_periodic_certificate_sources():
    v1 = decide_uniform_recurrence(load("tail_fin_const"))
    assert v1.certificate.data["source"] == "nongrowing"
    assert v1.certificate.data["word"] == ["z"]
    assert v1.certificate.data["period"] == 1
    v2 = decide_uniform_recurrence(load("periodic_coded"))
    assert v2.certificate.data["source"] == "upfront"


def test_preimage_shortcut_marks_certificate():
    v = decide_uniform_recurrence(load("blown_fib"))
    assert v.certificate.data.get("via") == "preimage"
    ok, _ = verify_certificate(load("blown_fib"), v)
    assert ok


def test_verdict_json_shape_and_determinism():
    for name in ("fibonacci", "nonur_block", "tail_fin_const"):
        sys_ = load(name)
        a = decide_uniform_recurrence(sys_).to_json_dict()
        b = decide_uniform_recurrence(sys_).to_json_dict()
        assert a == b
        assert set(a.keys()) == {"verdict", "certificate", "constants", "trace"}
        # verdict payloads serialize cleanly and round-trip
        blob = json.dumps(a, sort_keys=True)
        assert json.loads(blob) == a


# growing but not primitive (b and c never reach a)
NONPRIMITIVE_GROWING = "alphabet: a b c\nstart: a\nsigma:\na -> a a c\nb -> b c b\nc -> b b\n"
# growing, not primitive, and uniformly recurrent: no low power certifies
# it and the exit scan finds nothing.  The start letter is transient with a
# Thue-Morse tail, so it gets a primitive_tail certificate (e = b,
# v_1 = v_2 = cb) before the full-power chain, which would certify a
# repetition at sigma^9
FULL_POWER_UR = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b c\nb -> b c\nc -> c b\n"
    "phi:\na -> 1\nb -> 1\nc -> 0\n"
)
# transient start letter with a primitive tail but no chain (no image ends
# in c = w), and the exit scan finds nothing: no check settles it, so it
# ends inconclusive
CHAIN_ONLY = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c\nb -> b c b\nc -> b\n"
    "phi:\na -> 1\nb -> 1\nc -> 0\n"
)


UNSETTLED = {"step": "unsettled", "reason": "no check settles the stage"}


def test_inconclusive_on_tiny_pair_budget(monkeypatch):
    # the pair budget bounds only the low-power pass; a stage that no check
    # settles ends in one named step, with the count-free sheet and no
    # certificate to verify
    text = CHAIN_ONLY
    monkeypatch.setattr(returns, "PAIR_BUDGET", 2)
    v = decide_uniform_recurrence(parse_system(text), work_budget=1 << 16)
    assert v.outcome == INCONCLUSIVE
    assert v.certificate is None
    assert v.trace[-1] == UNSETTLED
    assert [t["certified"] for t in v.trace if t["step"] == "low-power"] == [False] * 3
    assert v.sheet.K1 is None and "budget" not in [t["step"] for t in v.trace]
    ok, detail = verify_certificate(parse_system(text), v)
    assert not ok
    assert "certificate" in detail["reason"]


def test_small_practical_cap_still_finds_fibonacci(monkeypatch):
    monkeypatch.setattr(decider, "PRACTICAL_CAP", 2)
    v = chain_verdict(load("fibonacci"))
    assert v.outcome == UNIFORMLY_RECURRENT
    assert (v.certificate.data["n"], v.certificate.data["m"]) == (1, 2)


# -- certificate verification rejects tampering ----------------------------------------


def _tampered(verdict, **changes):
    cert = verdict.certificate
    return Verdict(
        verdict.outcome,
        Certificate(changes.pop("kind", cert.kind), {**cert.data, **changes}),
        verdict.sheet,
        verdict.trace,
    )


def test_verify_accepts_alternative_valid_levels():
    # in a period-1 chain every (n, n+1) pair is an honest certificate
    sys_ = load("fibonacci")
    v = chain_verdict(sys_)
    ok, _ = verify_certificate(sys_, _tampered(v, n=2, m=3))
    assert ok


def test_verify_rejects_tampered_repetition(monkeypatch):
    sys_ = load("fibonacci")
    v = chain_verdict(sys_)
    no_power = {k: x for k, x in v.certificate.data.items() if k != "power"}
    for bad in (
        _tampered(v, tau=[[2, 1], [1]]),
        _tampered(v, pair_count=99),
        _tampered(v, table_size=9),
        _tampered(v, canonical="pairs: 2\nforged"),
        _tampered(v, power=0),
        _tampered(v, power=v.sheet.power_exponent + 1),
        _tampered(v, power="1"),
        Verdict(v.outcome, Certificate("repetition", no_power), v.sheet, v.trace),
        # keys the certificate does not have
        _tampered(v, extra=5),
        _tampered(v, via="forged"),
    ):
        ok, detail = verify_certificate(sys_, bad)
        assert not ok, detail
    # True == 1 and 2.0 == 2: the type check rejects a level that selects
    # the rebuilt certificate, and the whole comparison any other field
    for field, value in (("n", True), ("n", 1.0), ("m", 2.0), ("table_size", 2.0),
                         ("pair_count", 2.0)):
        assert v.certificate.data[field] == value
        ok, detail = verify_certificate(sys_, _tampered(v, **{field: value}))
        assert not ok, (field, value, detail)
        want = f"{field} must be an int" if field in ("n", "m") else "the certificate differs"
        assert detail["reason"].startswith(want), detail
    # a power in range replays honestly but builds another table at level n
    ok, detail = verify_certificate(sys_, _tampered(v, power=2))
    assert not ok
    assert detail["reason"] == "the certificate differs from the rebuilt one"
    # tau is primitive, so every power from its Wielandt bound on is positive:
    # a forged positivity power never reaches a matrix power, as only the
    # rebuilt one, Horn's least k, is checked
    t = len(v.certificate.data["tau"])
    bound = t * t - 2 * t + 2
    k = v.certificate.data["positivity_power"]
    powers = []
    real_check = certify.power_is_positive
    monkeypatch.setattr(
        certify, "power_is_positive", lambda mat, k: powers.append(k) or real_check(mat, k)
    )
    forged = (10**6, bound + 1, True, 2.0, "2")
    for bad in forged:
        ok, detail = verify_certificate(sys_, _tampered(v, positivity_power=bad))
        assert not ok, (bad, detail)
        assert detail["reason"] == "the certificate differs from the rebuilt one", (bad, detail)
    assert [(type(p), p) for p in powers] == [(int, k)] * len(forged)
    powers.clear()
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail
    assert powers == [k]


def test_verify_rejects_letter_exit_off_level_zero():
    sys_ = load("tail_fin")
    v = decide_uniform_recurrence(sys_)
    for level in (True, False, 0.0, 1, "0", None):
        ok, detail = verify_certificate(sys_, _tampered(v, level=level))
        assert not ok, (level, detail)
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


# x = 0^w: a growing sigma under a constant coding
CONSTANT_CODING = (
    "alphabet: a b\nstart: a\ntarget: 0\nsigma:\na -> a a b\nb -> a\nphi:\na -> 0\nb -> 0\n"
)


def test_verify_rejects_tampered_periodic():
    for name in ("tail_fin_const", "periodic_coded"):
        sys_ = load(name)
        v = decide_uniform_recurrence(sys_)
        for bad in (
            _tampered(v, word=["b"]),
            _tampered(v, period=3),
            # a source the decider does not issue skips no check
            _tampered(v, source="forged"),
        ):
            ok, detail = verify_certificate(sys_, bad)
            assert not ok, (name, detail)
    # x = 0^w has period 1, and True == 1.0 == 1: only the type check
    # tells these apart
    sys_ = parse_system(CONSTANT_CODING)
    v = decide_uniform_recurrence(sys_)
    assert v.certificate.data["period"] == 1
    for value in (True, 1.0):
        ok, detail = verify_certificate(sys_, _tampered(v, period=value))
        assert not ok, (value, detail)
        assert detail["reason"].startswith("period must be an int"), detail


def test_verify_rejects_swapped_outcome():
    sys_ = load("fibonacci")
    v = decide_uniform_recurrence(sys_)
    flipped = Verdict(NOT_UNIFORMLY_RECURRENT, v.certificate, v.sheet, v.trace)
    ok, _ = verify_certificate(sys_, flipped)
    assert not ok


def test_verify_rejects_certificate_for_wrong_system():
    v = decide_uniform_recurrence(load("fibonacci"))
    ok, _ = verify_certificate(load("thue_morse"), v)
    assert not ok


# -- pumping-branch and letter certificates are compared whole -------------------------

# a -> a b b, b -> c, c -> b under a, c -> 1, b -> 0: x = 1 (0 0 1 1)^w has
# period 4, and the stage's own pumping word is b b c c
PERIOD_4 = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b b\nb -> c\nc -> b\n"
    "phi:\na -> 1\nb -> 0\nc -> 1\n"
)


def test_verify_rejects_a_mismatch_on_a_forged_pumping_word():
    sys_ = parse_system(PERIOD_4)
    v = decide_uniform_recurrence(sys_)
    d = v.certificate.data
    assert (v.outcome, v.certificate.kind, d["source"], d["period"]) == (
        UNIFORMLY_RECURRENT, "periodic", "nongrowing", 4
    )
    assert d["pumping"]["w"] == ["b", "b", "c", "c"]
    assert verify_certificate(sys_, v)[0]
    # the checklist on w = a honestly fails condition 1, but a is not the
    # pumping word of the stage's witness
    report = periodic_checklist(sys_, ["a"])
    assert report["condition1"]["holds"] is False
    forged = Certificate(
        "periodic_mismatch",
        {"failing_condition": 1, "pumping": {**d["pumping"], "w": ["a"]}, "checklist": report},
    )
    ok, detail = verify_certificate(sys_, Verdict(NOT_UNIFORMLY_RECURRENT, forged, None, ()))
    assert not ok
    assert detail["reason"] == "the certificate differs from the rebuilt one"


def _pumping_tampers(data):
    """One change per field of a pumping-branch certificate's `pumping`, and
    one to its checklist."""
    pumping, checklist = data["pumping"], data["checklist"]
    for field, value in (
        ("letter", pumping["letter"] + "'"),
        ("power", pumping["power"] + 1),
        ("power", float(pumping["power"])),
        ("side", "left" if pumping["side"] == "right" else "right"),
        ("u", pumping["u"] * 2),
        ("v", pumping["v"] + pumping["u"]),
        ("w", pumping["w"] * 2),
    ):
        yield {"pumping": {**pumping, field: value}}
    yield {"checklist": {**checklist, "anchored": not checklist["anchored"]}}
    yield {"checklist": {**checklist, "w": checklist["w"] * 2}}


@pytest.mark.parametrize("name", ["nonur_block", "blown_nonur"])
def test_verify_rejects_tampered_periodic_mismatch(name):
    sys_ = load(name)
    v = decide_uniform_recurrence(sys_)
    assert v.certificate.kind == "periodic_mismatch"
    changes = list(_pumping_tampers(v.certificate.data)) + [
        {"failing_condition": 2},
        {"failing_condition": True},
    ]
    for change in changes:
        ok, detail = verify_certificate(sys_, _tampered(v, **change))
        assert not ok, (name, change, detail)
    assert verify_certificate(sys_, v)[0]


@pytest.mark.parametrize("name", ["tail_fin_const", "cycle_tail_const"])
def test_verify_rejects_tampered_nongrowing_periodic(name):
    sys_ = load(name)
    v = decide_uniform_recurrence(sys_)
    assert v.certificate.data["source"] == "nongrowing"
    changes = list(_pumping_tampers(v.certificate.data)) + [
        {"source": source}
        for source in ("forged", None, "upfront", "constants-unavailable", "repetition-1x1")
    ]
    for change in changes:
        ok, detail = verify_certificate(sys_, _tampered(v, **change))
        assert not ok, (name, change, detail)
    assert verify_certificate(sys_, v)[0]


@pytest.mark.parametrize("name", ["tail_fin", "cycle_tail", "mixed_growth", "nonprim_growing"])
def test_verify_rejects_tampered_letter_exit(name):
    sys_ = load(name)
    v = decide_uniform_recurrence(sys_)
    data = v.certificate.data
    assert data["exit"] == "letter"
    for change in (
        {"message": "forged"},
        {"message": data["message"] + " "},
        {"unconditional": False},
        {"unconditional": 1},
        {"evidence": {}},
        {"evidence": {"graph": "forged"}},
        {"letter": "forged"},
    ):
        ok, detail = verify_certificate(sys_, _tampered(v, **change))
        assert not ok, (name, change, detail)
    ok, detail = verify_certificate(sys_, v)
    assert ok and detail == {"checked": "letter", "letter": data["letter"]}, detail


# -- growing-stage periodic certificates are rebuilt whole -----------------------------

# a -> a b^64 a b^64 d, b -> b, d -> d b^64 d under a, d -> 1, b -> 0: x =
# (1 0^64)^w has period 65, above UPFRONT_QMAX, and the 260-letter
# block-encoded stage has no constant sheet, so the 1024-letter period
# search settles it
CONSTANTS_UNAVAILABLE = (
    "alphabet: a b d\nstart: a\ntarget: 0 1\nsigma:\n"
    f"a -> a{' b' * 64} a{' b' * 64} d\nb -> b\nd -> d{' b' * 64} d\n"
    "phi:\na -> 1\nb -> 0\nd -> 1\n"
)
# x = (a b^65)^w: a 1x1 descriptor repeats at levels 1 and 2
SINGLETON = f"alphabet: a b\nstart: a\nsigma:\na -> a{' b' * 65} a\nb -> b\n"


def test_constants_unavailable_certificate_is_pinned():
    sys_ = parse_system(CONSTANTS_UNAVAILABLE)
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT and v.sheet is None
    assert v.certificate.to_json_dict() == {
        "kind": "periodic",
        "word": ["1"] + ["0"] * 64,
        "period": 65,
        "source": "constants-unavailable",
        "evidence": {
            "qmax": 1024, "scan_length": 16384, "candidates": list(range(65, 1024, 65)),
        },
    }
    ok, detail = verify_certificate(sys_, v)
    assert ok and detail == {"checked": "periodic", "period": 65}, detail


def _x_word(sys_, n):
    """x[:n] in target tokens."""
    return sys_.target_alphabet.decode(stream.FixedPointStream(sys_, "x").prefix_chars(n))


@pytest.mark.parametrize(
    "text,source",
    [
        (get("periodic_coded").text, "upfront"),
        (CONSTANTS_UNAVAILABLE, "constants-unavailable"),
        (SINGLETON, "repetition-1x1"),
    ],
    ids=["periodic_coded", "constants_unavailable", "singleton"],
)
def test_verify_rejects_forged_growing_periodic(text, source):
    sys_ = parse_system(text)
    # the 1x1 stage is primitive, so only the chain issues its periodic
    v = (chain_verdict if source == "repetition-1x1" else decide_uniform_recurrence)(sys_)
    d = v.certificate.data
    q = d["period"]
    assert d["source"] == source
    others = {"upfront", "constants-unavailable", "repetition-1x1", "nongrowing"} - {source}
    changes = [
        {"extra": 5},
        {"via": "forged"},
        {"evidence": {"forged": 1}},
        # a period of x, but not the least one
        {"period": 2 * q, "word": _x_word(sys_, 2 * q)},
        {"period": float(q)},
    ] + [{"source": other} for other in sorted(others)]
    if source == "repetition-1x1":
        # the chain repeats from level 1 on, so [1, 3] is honest too
        assert verify_certificate(sys_, _tampered(v, levels=[1, 3]))[0]
        changes += [
            {"levels": levels} for levels in ([1, 1], [2, 1], [0, 1], [1.0, 2], [True, 2], [1])
        ]
    else:
        ev = d["evidence"]
        changes += [
            {"evidence": {**ev, "candidates": ev["candidates"][:1]}},
            {"evidence": {**ev, "qmax": 4096}},
        ]
    for change in changes:
        ok, detail = verify_certificate(sys_, _tampered(v, **change))
        assert not ok, (change, detail)
    # another source with no levels, or with the evidence that a period
    # search would state for q: the upfront search tries q <= 64 only, and
    # the 1024-letter search only q above that, and only where the constant
    # sheet raises, which it does not on the 1x1 stage
    staged = _growing_stage(sys_).staged
    for relabelled in sorted(others - {"nongrowing"}):
        data = {k: x for k, x in d.items() if k not in ("levels", "evidence")}
        data["source"] = relabelled
        if relabelled in certify._PERIOD_SEARCH:
            data = certify._periodic_certificate(staged, q, relabelled).data
        forged = Verdict(v.outcome, Certificate("periodic", data), None, ())
        ok, detail = verify_certificate(sys_, forged)
        assert not ok, (relabelled, detail)
    # the period 2q with the evidence a search would state for it
    if source != "repetition-1x1":
        qmax, scan = certify._PERIOD_SEARCH[source]
        candidates = list(range(2 * q, qmax + 1, 2 * q))
        evidence = {"qmax": qmax, "scan_length": scan, "candidates": candidates}
        double = _tampered(v, period=2 * q, word=_x_word(sys_, 2 * q), evidence=evidence)
        ok, detail = verify_certificate(sys_, double)
        assert not ok, detail
    ok, detail = verify_certificate(sys_, v)
    assert ok and detail == {"checked": "periodic", "period": q}, detail


# -- the up-front periodicity check ----------------------------------------------------


def test_constant_coding_settles_upfront():
    # x = 0^w is periodic, so it is settled before the constant sheet
    sys_ = parse_system(CONSTANT_CODING)
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.kind == "periodic"
    assert v.certificate.data["period"] == 1
    assert v.certificate.data["source"] == "upfront"
    assert v.sheet is None
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def test_period_above_upfront_qmax_falls_through():
    # x = (a b^64)^w has period 65, just above UPFRONT_QMAX: the upfront
    # search misses it, sigma is primitive, and the chain certifies it
    assert UPFRONT_QMAX == 64
    image = "a" + " b" * 64
    sys_ = parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> {image}\nb -> {image}\n")
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert [t["step"] for t in v.trace] == ["prepare", "primitive"]
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail
    v = chain_verdict(sys_)
    assert v.certificate.kind == "periodic"
    assert v.certificate.data["period"] == 65
    assert v.certificate.data["source"] != "upfront"
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def test_verify_bounds_a_forged_chain():
    # the decider drives at most PRACTICAL_CAP levels, so a repetition
    # beyond them is rejected before any chain is walked
    sys_ = parse_system(SINGLETON)
    v = chain_verdict(sys_)
    t0 = time.perf_counter()
    ok, detail = verify_certificate(sys_, _tampered(v, levels=[1, 10**9]))
    assert time.perf_counter() - t0 < 0.5
    assert not ok and f"PRACTICAL_CAP = {PRACTICAL_CAP}" in detail["reason"], detail
    # an E1 or gap lies within the exit scan's letters: x = (a b^65)^w
    # recurs at every level, so a level walk to |u| = 7,767 would take
    # seconds, but the scan charges no 7,767 levels a (K+1)|u| prefix each
    stage = _growing_stage(sys_)
    K = constants.compute_count_free_sheet(stage.staged).K
    size = returns.SCAN_LETTERS // (K + 1)
    forged = Verdict(NOT_UNIFORMLY_RECURRENT, Certificate("exit", _e1_data(stage, size, size, K)),
                     None, ())
    t0 = time.perf_counter()
    ok, detail = verify_certificate(sys_, forged)
    assert time.perf_counter() - t0 < 0.5
    assert not ok and "SCAN_WORK" in detail["reason"], detail


def test_verify_reads_the_u_lengths_once_for_every_power(monkeypatch):
    # |u_1|..|u_m| do not depend on the power: the honest [1, 3] is rebuilt
    # at power 1, and with an added key every low power is tried, on one walk
    sys_ = parse_system(SINGLETON)
    v = chain_verdict(sys_)
    calls = []
    for name in ("_u_lengths", "_anchored_levels"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, real=real, name=name: calls.append(name)
                            or real(*a))
    for change, accepted, powers in (({}, True, 1), ({"extra": 5}, False, len(LOW_POWERS))):
        calls.clear()
        ok, detail = verify_certificate(sys_, _tampered(v, levels=[1, 3], **change))
        assert ok == accepted, detail
        assert calls == ["_u_lengths"] + ["_anchored_levels"] * powers, calls


def test_singleton_return_table_is_certified_periodic():
    # x = (a b^65)^w: the block-encoded stage repeats a 1x1 descriptor at
    # levels 1 and 2, which is certified as exact pure periodicity.  That
    # stage has one letter, so the decider settles it `primitive` first
    image = "a" + " b" * 65 + " a"
    sys_ = parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> {image}\nb -> b\n")
    assert decide_uniform_recurrence(sys_).certificate.kind == "primitive"
    v = chain_verdict(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.to_json_dict() == {
        "kind": "periodic",
        "word": ["a"] + ["b"] * 65,
        "period": 66,
        "source": "repetition-1x1",
        "levels": [1, 2],
    }
    ok, detail = verify_certificate(sys_, v)
    assert ok and detail == {"checked": "periodic", "period": 66}, detail


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="ab", max_size=40), st.integers(0, 45))
def test_prefix_period_candidates_are_every_period_ascending(word, qmax):
    want = [
        q
        for q in range(1, min(qmax, len(word)) + 1)
        if all(word[i] == word[i + q] for i in range(len(word) - q))
    ]
    assert _prefix_period_candidates(word, qmax) == want


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="abc", min_size=1, max_size=6),
    st.integers(0, 30),
    st.text(alphabet="abc", max_size=8),
    st.integers(0, 120),
)
def test_prefix_period_candidates_on_nearly_periodic_words(root, reps, tail, qmax):
    # words periodic up to a short tail have many periods, and some
    # candidates that fail only in their last letters
    word = root * reps + tail
    want = [q for q in range(1, min(qmax, len(word)) + 1) if word.startswith(word[q:])]
    assert _prefix_period_candidates(word, qmax) == want


# -- low-power certificates ------------------------------------------------------------


def _first_exit(sys_pow, sheet, levels, anchored):
    """Drive the u-chain by hand; (level, exit) of the first exit, or None."""
    u = sys_pow.alphabet.encode([sys_pow.start])
    for n in range(1, levels + 1):
        res = build_sigma_U(sys_pow, u, sheet.K, K1=sheet.K1, anchored=anchored)
        if isinstance(res, DriverExit):
            return n, res
        u = res.pairs[0][0] + res.pairs[0][1]
    return None


def test_anchoring_guard_on_rudin_shapiro_coded():
    sys_ = load("rudin_shapiro_coded")
    stage = _growing_stage(sys_)
    sheet = compute_constant_sheet(stage.staged)
    # below the full power the exit thresholds prove nothing: the plain
    # driver reports a guarded exit on a uniformly recurrent sequence ...
    level, exit_ = _first_exit(stage.staged.with_sigma_power(1), sheet, 7, anchored=False)
    assert (level, exit_.kind, exit_.unconditional) == (2, "empty-image", False)
    # ... or runs on over images that are not cut into whole return words
    sys2 = stage.staged.with_sigma_power(2)
    assert _first_exit(sys2, sheet, 7, anchored=False) is None
    level, exit_ = _first_exit(sys2, sheet, 7, anchored=True)
    assert (level, exit_.kind, exit_.unconditional) == (3, "unanchored", False)

    assert decide_uniform_recurrence(sys_).certificate.kind == "primitive"
    v = chain_verdict(sys_)
    d = v.certificate.data
    assert v.certificate.kind == "repetition"
    assert (d["power"], d["n"], d["m"]) == (3, 4, 5)
    assert [t for t in v.trace if t["step"] == "low-power"] == [
        {"step": "low-power", "power": 1, "certified": False},
        {"step": "low-power", "power": 2, "certified": False},
        {"step": "low-power", "power": 3, "certified": True},
    ]
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail
    for p in (1, 2):
        ok, detail = verify_certificate(sys_, _tampered(v, power=p))
        assert not ok, detail


@pytest.mark.parametrize(
    "name",
    [
        "fibonacci",
        "thue_morse",
        "period_doubling",
        "sturmian_ab",
        "pell",
        "fib_cubed",
        "twisted_tm",
        "paperfold4",
    ],
)
def test_low_power_repetition_matches_full_power(name):
    sys_ = load(name)
    d = chain_verdict(sys_).certificate.data
    stage = _growing_stage(sys_)
    sheet = compute_constant_sheet(stage.staged)
    assert d["power"] < sheet.power_exponent
    _, levels, exited = _drive_to_level(stage, sheet, d["m"], 1 << 26)
    assert exited is None
    low, high = levels[d["n"]], levels[d["m"]]
    assert low.canonical_text() == high.canonical_text()
    assert [list(img) for img in _connecting_morphism(low, high)] == d["tau"]
    assert len(high.x_returns) == d["table_size"]
    assert len(high.pairs) == d["pair_count"]


# -- the primitive certificate ---------------------------------------------------------

# primitive sigma under a 0/1 coding that no low power certifies; the
# full-power chain runs over 6 s here and ends inconclusive, its work budget
# being reset at each level.  The primitive check runs before the low pass
PRIMITIVE_CODED = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c c\nb -> a\nc -> c b c\n"
    "phi:\na -> 1\nb -> 0\nc -> 1\n"
)
# b does not grow, so the certified stage is the bounded-block encoding
BLOCK_ENCODED = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b c\nb -> b\nc -> c a a\n"
    "phi:\na -> 0\nb -> 0\nc -> 1\n"
)


def _primitive_verdict(verdict, data):
    return Verdict(
        UNIFORMLY_RECURRENT, Certificate("primitive", data), verdict.sheet, verdict.trace
    )


def test_primitive_certificate_before_the_full_power():
    sys_ = parse_system(PRIMITIVE_CODED)
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.to_json_dict() == {"kind": "primitive", "positivity_power": 3}
    assert v.sheet is not None
    assert [t["step"] for t in v.trace] == ["prepare", "primitive"]
    assert chain_verdict(sys_) is None
    assert v.trace[-1] == {"step": "primitive", "positivity_power": 3}
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def test_primitive_certificate_on_a_block_encoded_stage():
    sys_ = parse_system(BLOCK_ENCODED)
    assert not prepare(sys_).growing
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.kind == "primitive"
    assert any(t["step"] == "block-encode" for t in v.trace)
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def _block_encoded_stages(texts):
    """Every stage of the decider's stage walk that it block-encodes."""
    out = []
    for text in texts:
        try:
            for stage in decider._stages(parse_system(text), []):
                if not stage.growing and stage.pumping_witness is None:
                    out.append(stage.staged)
        except MorphrecError:
            continue
    return out


def test_head_cells_are_the_first_two_cells_of_y():
    # the reference reader cuts a 4,096-letter prefix of y = tau^inf(start)
    # into cells; the encoding reads only tau(start), so the second cell may
    # be cut short on either side, but never its growing letter
    texts = [e.text for e in entries()] + test_stage_rewrite_golden.SYSTEMS
    stages = _block_encoded_stages(texts)
    assert len(stages) == 27  # 2 catalog entries and 25 draws
    for staged in stages:
        alpha = staged.alphabet
        growing = "".join(
            c for c, t in zip(alpha.chars, alpha.tokens) if staged.incidence.is_growing(t)
        )
        cell = re.compile(f"[{re.escape(growing)}][^{re.escape(growing)}]*")
        p, head = decider._head_cells(staged.sigma, alpha.char(staged.start), cell)
        tau = ProlongableSystem(power(staged.sigma, p), staged.start)
        want = cell.findall(stream.FixedPointStream(tau, "y").prefix_chars(4096))[:2]
        assert len(want) == 2 and len(head[0]) < 4096
        assert head[0] == want[0]
        assert head[1][0] == want[1][0]
        assert want[1].startswith(head[1]) or head[1].startswith(want[1])


def _comb(k: int) -> str:
    """a -> a b^k a, b -> b: x = (a b^k)^omega, whose blown-up stage has
    k + 1 letters, and whose token system is T -> T T."""
    return f"alphabet: a b\nstart: a\nsigma:\na -> a {' '.join('b' * k)} a\nb -> b\n"


@pytest.mark.parametrize(
    "k,info",
    [(4094, {"tokens": 1, "power": 1}), (4095, None), (4100, None)],
)
def test_block_encoding_reads_a_first_cell_of_up_to_4095_letters(k, info):
    # x = (a b^k)^omega has its period above UPFRONT_QMAX; the one token
    # T -> T T is primitive, so a system the encoding takes is settled on
    # its token stage
    sys_ = parse_system(_comb(k))
    staged = prepare(sys_).staged
    if info is not None:
        assert decider._encode_bounded_blocks(staged)[1] == info
        v = decide_uniform_recurrence(sys_)
        assert v.certificate.data == {"positivity_power": 1, "via": "token-stage"}
        ok, detail = verify_certificate(sys_, v)
        assert ok, detail
    else:
        with pytest.raises(
            WitnessSearchExhausted, match="^could not read two cells from the fixed point$"
        ):
            decider._encode_bounded_blocks(staged)


# wide-sweep and random-workload draws whose sheets have K in the thousands:
# each stage is primitive, and the low-power pass certifies each too, so
# neither the decider, the chain nor the verifier counts the (K+1)-factors
COUNT_FREE = {
    # K = 18,794 and p(K+1) = 157,112
    "sweep2_draw15": (
        "alphabet: a b c d\nstart: a\ntarget: 0 1\nsigma:\na -> a d d c\nb -> b b d d\n"
        "c -> a\nd -> b a d c\nphi:\na -> 0\nb -> 1\nc -> 1\nd -> 1\n"
    ),
    "primitive_coded": (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a a c\nb -> c a a\nc -> b\n"
        "phi:\na -> 1\nb -> 1\nc -> 0\n"
    ),
    "block_encoded": "alphabet: a b c\nstart: a\nsigma:\na -> a c b\nb -> c c a\nc -> c\n",
}


@pytest.mark.parametrize("name", sorted(COUNT_FREE))
def test_low_power_verdict_needs_no_factor_count(monkeypatch, name):
    monkeypatch.setattr(constants, "with_factor_count", lambda *_: pytest.fail("counted"))
    sys_ = parse_system(COUNT_FREE[name])
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.kind == "primitive"
    assert "constants" not in [t["step"] for t in v.trace]
    verified = [v]
    if v.certificate.data.get("via") == "token-stage":
        # settled on its token system with no sheet: the sheet is read off
        # the growing branch on the block stage itself
        assert v.sheet is None
        ok, detail = verify_certificate(sys_, v)
        assert ok, detail
        # the block stage's own `primitive` is not what the decider issues
        v = decider._growing_verdict(_growing_stage(sys_), WORK_BUDGET, [])
        assert v.certificate.kind == "primitive"
        ok, detail = verify_certificate(sys_, v)
        assert not ok and "differs from the rebuilt one" in detail["reason"], detail
        verified = []
    chain = chain_verdict(sys_)
    assert chain.certificate.kind == "repetition"
    for verdict in (v, chain):
        sheet = verdict.sheet
        assert sheet.p_factor_count is None and sheet.K1 is None and sheet.cap is None
    for verdict in (*verified, chain):
        ok, detail = verify_certificate(sys_, verdict)
        assert ok, detail


def _thue_morse_block(j: int) -> str:
    """tau^j(b) for the Thue-Morse substitution tau: b -> bc, c -> cb."""
    word = "b"
    for _ in range(j):
        word = "".join({"b": "bc", "c": "cb"}[ch] for ch in word)
    return word


# a -> a X X with X = tau^5(b), and {b, c} closed under Thue-Morse: y is
# a X X tau(X X) tau^2(X X) ..., with a cube of tau^(5+k)(b) at the k-th
# junction.  Under the coding, the prefix of length 160 does not recur
# within (K + 1) 160 = 2,720 letters (K = 16), an E1 at level 5, which the
# exit scan finds on its first prefix.
LATE_E1 = (
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\n"
    f"a -> a {' '.join(_thue_morse_block(5) * 2)}\nb -> b c\nc -> c b\n"
    "phi:\na -> 0\nb -> 0\nc -> 1\n"
)


def test_full_power_exit_counts_factors():
    # the paper's chain, driven at the full power on the counted sheet
    # through derive_chain, exits where the scan does, with the same
    # certificate; the decider's verdict carries the count-free sheet
    sys_ = parse_system(LATE_E1)
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == NOT_UNIFORMLY_RECURRENT
    d = v.certificate.data
    assert (d["exit"], d["level"], d["u_length"]) == ("E1", 5, 160)
    assert v.sheet.K1 is None
    assert v.trace[-1] == {"step": "scan", "K": 16, "level": 5, "exit": "E1"}
    chain = derive_chain(sys_, 5)
    assert chain.sheet.K1 is not None
    assert chain.sheet == compute_constant_sheet(_growing_stage(sys_).staged)
    assert replace(chain.sheet, p_factor_count=None, preimage_bound=None, K1=None,
                   cap=None) == v.sheet
    assert sorted(chain.levels) == [1, 2, 3, 4]
    # the chain's E1 message states |u| and the window, as the certificate's does
    n, exit_ = chain.driver_exit
    assert (exit_.kind, n, exit_.message) == ("E1", d["level"], d["message"])
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


# -- the exit scan ---------------------------------------------------------------------

# wide-sweep seed-3 draw 101: transient, B = {b, c, d} primitive, and no
# tail chain; an E1 at level 5 with |u| = 129 and a window of 316,824 letters
SWEEP3_DRAW101 = (
    "alphabet: a b c d\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> c d\nc -> b b\n"
    "d -> b b c b\nphi:\na -> 1\nb -> 1\nc -> 0\nd -> 1\n"
)


def _aab_ca_ccc(coding: str) -> str:
    """a -> aab, b -> ca, c -> ccc under the coding of a, b, c given as digits."""
    return (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a a b\nb -> c a\nc -> c c c\n"
        "phi:\n" + "".join(f"{c} -> {d}\n" for c, d in zip("abc", coding))
    )


# systems whose full-power chain was slow, settled by the exit scan; the
# notes give the exit and the cost of the full-power chain
SCAN_SETTLED = {
    # gap at level 1 (K 391); the chain needed p(K+1) and sigma^P for an E2
    "gap_level1": ("alphabet: a b c\nstart: a\nsigma:\na -> a a c\nb -> c b c\nc -> b b\n", "gap", 1),
    # E1 at level 3 (K 1,095); the chain ran past 20 s with no verdict
    "ad_db": (
        "alphabet: a b c d\nstart: a\ntarget: 0 1\nsigma:\na -> a d\nb -> d b\nc -> b b b\n"
        "d -> c\nphi:\na -> 0\nb -> 0\nc -> 1\nd -> 1\n",
        "E1",
        3,
    ),
    # wide-sweep seed-2 draw 183: gap at level 3; the chain took 9.3 s to an E2
    "sweep2_draw183": (
        "alphabet: a b c d\nstart: a\ntarget: 0 1\nsigma:\na -> a a b\nb -> b c d\n"
        "c -> d b b d\nd -> c b d d\nphi:\na -> 0\nb -> 1\nc -> 1\nd -> 0\n",
        "gap",
        3,
    ),
    # E1 at level 7 (K 1,782); the chain ended inconclusive after 21 s
    "s_sa": (
        "alphabet: s a b c d\nstart: s\ntarget: 0 1\nsigma:\ns -> s a\na -> a d\nb -> c d\n"
        "c -> b\nd -> a b\nphi:\ns -> 0\na -> 0\nb -> 1\nc -> 1\nd -> 0\n",
        "E1",
        7,
    ),
    # E1 at level 4; its replay took 1.17 s to verify
    "ab_ccb": (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> c c b\nc -> b c\n"
        "phi:\na -> 0\nb -> 1\nc -> 0\n",
        "E1",
        4,
    ),
    # census draws whose chain ended in an E2 after 3 ms
    "aab_ca_ccc_010": (_aab_ca_ccc("010"), "gap", 3),
    "aab_ca_ccc_101": (_aab_ca_ccc("101"), "gap", 3),
    # the chain took 46 ms to this E1
    "late_e1": (LATE_E1, "E1", 5),
    # the chain timed out
    "sweep3_draw101": (SWEEP3_DRAW101, "E1", 5),
}


@pytest.mark.parametrize("name", sorted(SCAN_SETTLED))
def test_exit_scan_settles_slow_full_power_draws(name):
    text, kind, level = SCAN_SETTLED[name]
    sys_ = parse_system(text)
    t0 = time.perf_counter()
    v = decide_uniform_recurrence(sys_)
    ok, detail = verify_certificate(sys_, v)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 1.0, elapsed
    assert v.outcome == NOT_UNIFORMLY_RECURRENT
    d = v.certificate.data
    assert (d["exit"], d["level"], d["unconditional"]) == (kind, level, True)
    assert v.trace[-1] == {"step": "scan", "K": v.sheet.K, "level": level, "exit": kind}
    assert not {"constants", "power", "level"} & {t["step"] for t in v.trace}
    assert v.sheet.p_factor_count is None and v.sheet.K1 is None and v.sheet.cap is None


def test_gap_exit_needs_no_count_and_no_full_power(monkeypatch):
    sys_ = parse_system(SCAN_SETTLED["gap_level1"][0])
    full = constants.compute_count_free_sheet(_growing_stage(sys_).staged).power_exponent
    real = ProlongableSystem.with_sigma_power

    def low_powers_only(self, k):
        if k >= full:
            pytest.fail(f"sigma^{k} composed")
        return real(self, k)

    monkeypatch.setattr(ProlongableSystem, "with_sigma_power", low_powers_only)
    monkeypatch.setattr(constants, "with_factor_count", lambda *_: pytest.fail("counted"))
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == NOT_UNIFORMLY_RECURRENT
    d = v.certificate.to_json_dict()
    ev = d["evidence"]
    assert (d["exit"], d["level"], d["u_length"]) == ("gap", 1, 1)
    assert ev["bound"] == v.sheet.K == 391
    assert ev["gap"] == ev["positions"][1] - ev["positions"][0] > 391
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def test_scan_e1_is_the_chains_e1():
    # the scan walks the chain rule, which is the full-power chain's own
    sys_ = parse_system(SCAN_SETTLED["ab_ccb"][0])
    v = decide_uniform_recurrence(sys_)
    stage = _growing_stage(sys_)
    sheet = compute_constant_sheet(stage.staged)
    level = v.certificate.data["level"]
    _, _, (n, exit_) = _drive_to_level(stage, sheet, level, WORK_BUDGET)
    d = v.certificate.data
    assert (exit_.kind, n, exit_.message) == (d["exit"], d["level"], d["message"])


def test_verify_checks_exit_certificates_locally(monkeypatch):
    found = []
    for text in (LATE_E1, SCAN_SETTLED["gap_level1"][0], SCAN_SETTLED["ab_ccb"][0]):
        sys_ = parse_system(text)
        found.append((sys_, decide_uniform_recurrence(sys_)))
    assert [v.certificate.data["exit"] for _, v in found] == ["E1", "gap", "E1"]
    _refuse(monkeypatch, decider, "compute_constant_sheet", "_drive_to_level")
    _refuse(monkeypatch, verify, "build_sigma_U")
    _refuse(monkeypatch, constants, "with_factor_count")
    for sys_, v in found:
        ok, detail = verify_certificate(sys_, v)
        assert ok, detail


def _refuse(monkeypatch, module, *names):
    """Make each named function of the module fail the test when called."""
    for name in names:
        monkeypatch.setattr(module, name, lambda *_, name=name, **__: pytest.fail(f"{name} ran"))


def _with_evidence(verdict, **changes):
    return _tampered(verdict, evidence={**verdict.certificate.data["evidence"], **changes})


@pytest.mark.parametrize("text", [LATE_E1, SCAN_SETTLED["ab_ccb"][0]])
def test_verify_rejects_tampered_e1(text):
    sys_ = parse_system(text)
    v = decide_uniform_recurrence(sys_)
    d = v.certificate.data
    level, u_len, window = d["level"], d["u_length"], d["evidence"]["window"]
    K = window // u_len - 1
    for bad in (
        _tampered(v, level=level + 1),
        _tampered(v, level=level - 1),
        _tampered(v, level=10**6),
        _tampered(v, level=0),
        _tampered(v, level=float(level)),
        _tampered(v, u_length=u_len + 1),
        _tampered(v, u_length=u_len - 1),
        _tampered(v, u_length=True),
        _tampered(v, u_length=str(u_len)),
        _with_evidence(v, window=window + 1),
        _with_evidence(v, window=window - 1),
        _with_evidence(v, window=K * u_len),
        _with_evidence(v, window=float(window)),
        _with_evidence(v, occurrences=2),
        _with_evidence(v, u=["a"]),
        _tampered(v, unconditional=False),
        _tampered(v, message="forged"),
    ):
        ok, detail = verify_certificate(sys_, bad)
        assert not ok, (bad.certificate.data, detail)
    stage = _growing_stage(sys_)
    assert _e1_data(stage, level, u_len, K) == d
    # a self-consistent E1 one level early: its prefix recurs in its window,
    # and x has no gap at that level, so no certificate is rebuilt there
    sizes = [1]
    for _ in range(level - 2):
        sizes.append(sizes[-1] + _second(stage, K, sizes[-1]))
    early = _e1_data(stage, level - 1, sizes[-1], K)
    ok, detail = verify_certificate(sys_, _as_exit(v, early))
    assert not ok and detail == _NONE_BUILT, detail
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


_DIFFERS = {"reason": "the certificate differs from the rebuilt one"}
_NONE_BUILT = {"reason": "the decider builds no exit certificate on this system"}


def _second(stage, K, size):
    """The second start of x[:size] within its E1 window, or None."""
    xs = stream.FixedPointStream(stage.staged, "x")
    occ = returns.first_two_occurrences(xs, xs.prefix_chars(size), (K + 1) * size)
    return occ[1] if len(occ) == 2 else None


def _e1_data(stage, level, size, K):
    """The data of an E1 certificate at the level with |u| = size, by
    definition: x[:size] does not recur within (K+1) size letters."""
    window = (K + 1) * size
    u = stream.FixedPointStream(stage.staged, "y").prefix_chars(size)
    return {
        "exit": "E1",
        "unconditional": True,
        "level": level,
        "u_length": size,
        "message": f"prefix of length {size} does not recur in the first {window} letters",
        "evidence": {"u": stage.staged.alphabet.decode(u), "window": window, "occurrences": 1},
    }


def _gap_data(level, size, p, q, bound):
    """The data of a gap certificate for the starts p < q of x[:size]."""
    return {
        "exit": "gap",
        "unconditional": True,
        "level": level,
        "u_length": size,
        "message": f"the prefix of length {size} recurs after {q - p} letters, "
        f"more than K|u| = {bound}",
        "evidence": {
            "level": level, "u_length": size, "positions": [p, q], "gap": q - p, "bound": bound
        },
    }


def _as_exit(verdict, data):
    return Verdict(verdict.outcome, Certificate("exit", data), verdict.sheet, verdict.trace)


# draw 113 of the wide-alphabet set (seed 12, 6-8 letters, images of up to 6
# letters): x[:18] has no second start within its E1 window at level 5,
# (K+1) 18 = 1,198,386 letters, which passes SCAN_LETTERS
DRAW_113 = (
    "alphabet: a b c d e f g\nstart: a\ntarget: 0 1\nsigma:\na -> a c\nb -> f e e\n"
    "c -> d b\nd -> d d f g\ne -> c\nf -> b c e\ng -> c g\n"
    "phi:\na -> 0\nb -> 1\nc -> 0\nd -> 0\ne -> 1\nf -> 0\ng -> 1\n"
)


def test_verify_rejects_e1_past_scan_letters():
    # a self-consistent E1 that no decide issues, since the exit scan reads
    # at most SCAN_LETTERS letters of x: the verifier reads no further
    sys_ = parse_system(DRAW_113)
    stage = _growing_stage(sys_)
    K = constants.compute_count_free_sheet(stage.staged).K
    x = stream.FixedPointStream(stage.staged, "x").prefix_chars(2 * returns.SCAN_LETTERS)

    # the chain rule, up to the first prefix that does not recur in its window
    level, size = 1, 1
    while (q := x.find(x[:size], 1, (K + 1) * size)) != -1:
        level, size = level + 1, size + q
    assert (level, size, (K + 1) * size) == (5, 18, 1_198_386)
    v = Verdict(NOT_UNIFORMLY_RECURRENT, Certificate("exit", _e1_data(stage, level, size, K)),
                None, ())
    ok, detail = verify_certificate(sys_, v)
    assert not ok
    assert detail["reason"].endswith(f"(K+1)|u| <= {returns.SCAN_LETTERS}"), detail


def test_verify_rejects_tampered_gap():
    sys_ = parse_system(SCAN_SETTLED["gap_level1"][0])
    v = decide_uniform_recurrence(sys_)
    ev = v.certificate.data["evidence"]
    (p, q), gap, bound = ev["positions"], ev["gap"], ev["bound"]
    for bad in (
        _with_evidence(v, positions=[p + 1, q]),
        _with_evidence(v, positions=[p - 1, q]),
        _with_evidence(v, positions=[p, q + 1]),
        _with_evidence(v, positions=[p, q - 1]),
        _with_evidence(v, positions=[q, p]),
        _with_evidence(v, positions=[p, q + gap]),
        _with_evidence(v, gap=gap + 1),
        _with_evidence(v, gap=gap - 1),
        _with_evidence(v, bound=bound + 1),
        _with_evidence(v, bound=bound - 1),
        _with_evidence(v, level=2),
        _with_evidence(v, u_length=2),
        _tampered(v, level=2),
        _tampered(v, u_length=2),
        # fields that are not ints
        _with_evidence(v, positions=[float(p), q]),
        _with_evidence(v, positions=[p, str(q)]),
        _with_evidence(v, positions=(p, q)),
        _with_evidence(v, positions=[p, q, q]),
        _with_evidence(v, gap=float(gap)),
        _with_evidence(v, bound=float(bound)),
        _with_evidence(v, level=True),
        _with_evidence(v, u_length=1.0),
        _tampered(v, level=True),
        _tampered(v, u_length=True),
        _tampered(v, evidence=None),
        _tampered(v, unconditional=False),
    ):
        ok, detail = verify_certificate(sys_, bad)
        assert not ok, (bad.certificate.data, detail)
    assert _gap_data(1, 1, p, q, bound) == v.certificate.data
    # self-consistent forgeries: occurrences that are not successive, and
    # successive occurrences within the bound.  The first is rebuilt with
    # the first gap of x; the second on x[:(K+1)|u|], where x has none
    x = stream.FixedPointStream(_growing_stage(sys_).staged, "x").prefix_chars(2 * q)
    v_ = x[:1]
    later = x.find(v_, q + 1)
    ok, detail = verify_certificate(sys_, _as_exit(v, _gap_data(1, 1, p, later, bound)))
    assert not ok and detail == _DIFFERS, detail
    near = x.find(v_, 1)
    ok, detail = verify_certificate(sys_, _as_exit(v, _gap_data(1, 1, 0, near, bound)))
    assert not ok and detail == _NONE_BUILT, detail
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


@pytest.mark.parametrize(
    "name,first,second",
    [("gap_level1", (648, 1050), (1698, 2722)), ("sweep2_draw183", (1704, 4428), (6132, 16113))],
)
def test_verify_rejects_a_later_gap(name, first, second):
    # the exit scan reports the first gap of x at its level: a certificate
    # that names the next successive gap, though a true one, is rebuilt
    # with the first
    sys_ = parse_system(SCAN_SETTLED[name][0])
    v = decide_uniform_recurrence(sys_)
    d = v.certificate.data
    level, size, bound = d["level"], d["u_length"], d["evidence"]["bound"]
    x = stream.FixedPointStream(_growing_stage(sys_).staged, "x").prefix_chars(second[1] + size)
    occ = occurrences_in_word(x, x[:size])
    assert [(a, b) for a, b in zip(occ, occ[1:]) if b - a > bound] == [first, second]
    assert _gap_data(level, size, *first, bound) == d
    ok, detail = verify_certificate(sys_, _as_exit(v, _gap_data(level, size, *second, bound)))
    assert not ok and detail == _DIFFERS, detail


def _brute_exit_scan(staged, K):
    """The exit scan by definition, from every occurrence of each prefix,
    on each prefix length of the doubling schedule in turn; (hit or None,
    whether the letters charged ran out)."""
    spent, length = 0, certify.SCAN_FIRST
    while length <= certify.SCAN_LETTERS:
        x = stream.FixedPointStream(staged, "x").prefix_chars(length)
        size, level = 1, 1
        while (K + 1) * size <= length:
            spent += length
            if spent > certify.SCAN_WORK:
                return None, True
            occ = occurrences_in_word(x, x[:size])
            if len(occ) < 2 or occ[1] > K * size:
                return (level, size, "E1"), False
            gaps = [(a, b) for a, b in zip(occ, occ[1:]) if b - a > K * size]
            if gaps:
                return (level, size, "gap", gaps[0]), False
            size, level = size + occ[1], level + 1
        length *= 2
    return None, False


@pytest.mark.parametrize("K", [1, 2, 3, 5, 8, 13])
def test_exit_scan_matches_its_definition(monkeypatch, K):
    # small K puts E1 windows and gap bounds right at the returns of x; small
    # bounds keep the brute reference fast and make every bound bind
    monkeypatch.setattr(certify, "SCAN_FIRST", 1 << 4)
    monkeypatch.setattr(certify, "SCAN_LETTERS", 1 << 10)
    monkeypatch.setattr(certify, "SCAN_WORK", 1 << 15)
    texts = list(test_fuzz.SYSTEMS) + [t for t, _, _ in SCAN_SETTLED.values()] + [FULL_POWER_UR]
    hits = late = spent = 0
    for text in texts:
        stage = _growing_stage(parse_system(text))
        if stage is None:
            continue
        got = certify._exit_scan(stage.staged, K)
        if got is not None:
            d = got.data
            level, size = d["level"], d["u_length"]
            got = (level, size, d["exit"]) + (
                (tuple(d["evidence"]["positions"]),) if d["exit"] == "gap" else ()
            )
            hits += 1
            late += (K + 1) * size > certify.SCAN_FIRST
        want, ran_out = _brute_exit_scan(stage.staged, K)
        assert got == want, text
        spent += ran_out
    # some walks run out of letters to charge; from K = 3 on, some hits
    # need a prefix longer than the first
    assert hits >= 5 and spent >= 1 and late >= (K >= 3), (hits, late, spent)


def test_exit_scan_is_silent_on_uniformly_recurrent_inputs(monkeypatch):
    # a scan with no hit runs to its bounds; smaller ones keep this test fast
    monkeypatch.setattr(certify, "SCAN_LETTERS", 1 << 16)
    monkeypatch.setattr(certify, "SCAN_WORK", 1 << 20)
    systems = [e.build() for e in entries() if e.expected == "ur"]
    for text in test_fuzz.SYSTEMS:
        sys_ = parse_system(text)
        try:
            if decide_uniform_recurrence(sys_, work_budget=1 << 20).outcome == UNIFORMLY_RECURRENT:
                systems.append(sys_)
        except MorphrecError:
            pass
    scanned = 0
    for sys_ in systems:
        stage = _growing_stage(sys_)
        if stage is None:
            continue
        try:
            sheet = constants.compute_count_free_sheet(stage.staged)
        except MorphrecError:
            continue
        assert certify._exit_scan(stage.staged, sheet.K) is None, sys_
        scanned += 1
    assert scanned >= 40, scanned


# -- the primitive-tail certificate ----------------------------------------------------

# random-workload draws with a transient start letter that reached the
# full-power chain; the notes give what the chain made of them
TAIL_SETTLED = {
    # a full-power repetition
    "ac_c_cb": (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c\nb -> c\nc -> c b\n"
        "phi:\na -> 1\nb -> 1\nc -> 0\n"
    ),
    # inconclusive on the work budget; the chain is e -> v_1 = v_0 (n = 1)
    "ab_cbb_bb": (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> c b b\nc -> b b\n"
        "phi:\na -> 1\nb -> 1\nc -> 0\n"
    ),
    # inconclusive; the chain enters a 2-cycle after 3 steps
    "abb_cb_b": (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b b\nb -> c b\nc -> b\n"
        "phi:\na -> 0\nb -> 1\nc -> 0\n"
    ),
    # P = 17: inconclusive at the default work budget, and a repetition at
    # levels 9 and 10 with 2^28
    "ac_c_bc": (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c\nb -> c\nc -> b c\n"
        "phi:\na -> 1\nb -> 1\nc -> 0\n"
    ),
    "full_power_ur": FULL_POWER_UR,
}

@pytest.mark.parametrize("name", sorted(TAIL_SETTLED))
def test_primitive_tail_settles_chain_draws(name):
    sys_ = parse_system(TAIL_SETTLED[name])
    t0 = time.perf_counter()
    v = decide_uniform_recurrence(sys_)
    ok, detail = verify_certificate(sys_, v)
    elapsed = time.perf_counter() - t0
    assert ok, detail
    assert elapsed < 1.0, elapsed
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.kind == "primitive_tail"
    d = v.certificate.data
    n = len(d["v"]) - 1
    assert v.trace[-1] == {"step": "tail", "letters": len(d["B"]), "n": n, "p": n - d["j"]}
    assert not {"constants", "power", "level"} & {t["step"] for t in v.trace}
    assert v.sheet.p_factor_count is None and v.sheet.K1 is None and v.sheet.cap is None


def test_full_power_ur_settles_without_the_chain(monkeypatch):
    sys_ = parse_system(FULL_POWER_UR)
    full = constants.compute_count_free_sheet(_growing_stage(sys_).staged).power_exponent
    real = ProlongableSystem.with_sigma_power

    def low_powers_only(self, k):
        if k >= full:
            pytest.fail(f"sigma^{k} composed")
        return real(self, k)

    monkeypatch.setattr(ProlongableSystem, "with_sigma_power", low_powers_only)
    _refuse(monkeypatch, constants, "with_factor_count")
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert v.certificate.to_json_dict() == {
        "kind": "primitive_tail",
        "w": ["b", "c"],
        "B": ["b", "c"],
        "positivity_power": 1,
        "e": "b",
        "v": [["b"], ["c", "b"], ["c", "b"]],
        "j": 1,
        "m": 1,
    }
    _refuse(monkeypatch, decider, "compute_constant_sheet", "_drive_to_level")
    _refuse(monkeypatch, verify, "compute_count_free_sheet", "build_sigma_U")
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def _tail_language_images(staged, tokens, n):
    """phi of the n-factors of L_B, B the given tokens of the stage, from
    the exact closure on a positive power of sigma restricted to B (its
    iterates grow from every letter)."""
    sub = staged.sigma.restricted_to(tokens)
    sub = power(sub, sub.incidence.primitive_exponent)
    to_stage = str.maketrans(sub.src.chars, staged.alphabet.encode(tokens))
    lang = stream.factor_language(ProlongableSystem(sub, tokens[0]), n)
    return {staged.effective_phi.apply(f.translate(to_stage)) for f in lang}


@pytest.mark.parametrize("name", sorted(TAIL_SETTLED))
def test_primitive_tail_x_lies_in_phi_of_l_b(name):
    # an oracle that does not read the chain: x = phi(e z) with e z in X_B
    # makes every factor of x a factor of phi(L_B)
    sys_ = parse_system(TAIL_SETTLED[name])
    v = decide_uniform_recurrence(sys_)
    staged = _growing_stage(sys_).staged
    x = stream.FixedPointStream(staged, "x").prefix_chars(4096)
    for n in range(1, 9):
        seen = {x[i : i + n] for i in range(len(x) - n + 1)}
        assert seen <= _tail_language_images(staged, v.certificate.data["B"], n), n


@pytest.mark.parametrize("name", ["full_power_ur", "ac_c_bc", "abb_cb_b"])
def test_verify_rejects_tampered_primitive_tail(name):
    sys_ = parse_system(TAIL_SETTLED[name])
    v = decide_uniform_recurrence(sys_)
    d = v.certificate.data
    B, e, j, m, k = d["B"], d["e"], d["j"], d["m"], d["positivity_power"]
    other = next(t for t in B if t != e)
    bad = [
        _tampered(v, e=other),
        _tampered(v, j=j + 1),
        _tampered(v, j=j - 1),
        _tampered(v, j=len(d["v"]) - 1),
        _tampered(v, m=m + 1),
        _tampered(v, m=m - 1),
        _tampered(v, w=d["w"] + [B[0]]),
        _tampered(v, w=d["w"][1:]),
        _tampered(v, B=B[1:]),
        _tampered(v, B=B + ["a"]),
        _tampered(v, B=B[::-1]),
        _tampered(v, positivity_power=k - 1),
        _tampered(v, v=d["v"][:-1]),
        _tampered(v, v=d["v"] + [d["v"][-1]]),
        _tampered(v, extra=5),
        _tampered(v, via="forged"),
    ]
    for i, word in enumerate(d["v"]):
        swapped = word[:-1] + [next(t for t in B if t != word[-1])]
        for changed in ([B[0]] + word, word[1:] or [other if word == [e] else e], swapped):
            bad.append(_tampered(v, v=d["v"][:i] + [changed] + d["v"][i + 1 :]))
            if i == j:  # v_j and v_n together, so the cycle still closes
                bad.append(_tampered(v, v=d["v"][:i] + [changed] + d["v"][i + 1 : -1] + [changed]))
    for field in ("e", "v", "j", "m", "w", "B", "positivity_power"):
        for value in ("1", True, None):
            bad.append(_tampered(v, **{field: value}))
    for forged in bad:
        ok, detail = verify_certificate(sys_, forged)
        assert not ok, (forged.certificate.data, detail)
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail


def test_verify_rejects_huge_primitive_tail_quickly():
    sys_ = parse_system(FULL_POWER_UR)
    v = decide_uniform_recurrence(sys_)
    d = v.certificate.data
    t0 = time.perf_counter()
    for forged in (
        _tampered(v, v=d["v"] * 10**5),
        _tampered(v, v=[d["v"][0], ["c", "b"] * 10**6, ["c", "b"] * 10**6]),
        _tampered(v, j=10**9),
        _tampered(v, m=10**9),
        _tampered(v, positivity_power=10**9),
    ):
        ok, detail = verify_certificate(sys_, forged)
        assert not ok, detail
    assert time.perf_counter() - t0 < 1.0


def test_verify_rejects_primitive_tail_on_a_recurrent_start():
    # fibonacci's start letter a is reachable from its tail b
    v = decide_uniform_recurrence(parse_system(FULL_POWER_UR))
    ok, detail = verify_certificate(load("fibonacci"), v)
    assert not ok, detail
    assert detail["reason"] == "the decider builds no primitive_tail certificate on this system"
    ok, detail = verify_certificate(load("nonur_block"), v)
    assert not ok and "pumping-branch" in detail["reason"], detail


def test_tail_search_finds_no_chain_on_non_ur_inputs():
    texts = [t for t, _, _ in SCAN_SETTLED.values()]
    for text in test_fuzz.SYSTEMS:
        try:
            outcome = decide_uniform_recurrence(parse_system(text), work_budget=1 << 20).outcome
        except MorphrecError:
            continue
        if outcome == NOT_UNIFORMLY_RECURRENT:
            texts.append(text)
    searched = 0
    for text in texts:
        stage = _growing_stage(parse_system(text))
        if stage is None:
            continue
        tail = certify._transient_tail(stage.staged)
        if tail is not None and tail.sub.incidence.primitive_exponent is not None:
            searched += 1
        assert certify._tail_certificate(stage.staged) is None, text
    assert searched >= 6, searched


@pytest.mark.parametrize("text", [CHAIN_ONLY, SWEEP3_DRAW101])
def test_tail_search_without_a_chain(text):
    staged = _growing_stage(parse_system(text)).staged
    tail = certify._transient_tail(staged)
    assert tail is not None and tail.sub.incidence.primitive_exponent is not None
    assert certify._tail_certificate(staged) is None


def test_decide_and_verify_never_drive_the_full_power(monkeypatch):
    # the decider counts no factors and composes no sigma^P, the power of
    # the paper's chain; the verifier replays no chain and builds no
    # counted sheet
    systems = [e.build() for e in entries() if e.expected != "error"]
    systems += [parse_system(t) for t, _, _ in SCAN_SETTLED.values()]
    systems += [parse_system(t) for t in TAIL_SETTLED.values()]
    systems += [parse_system(t) for t in (CHAIN_ONLY, PRIMITIVE_CODED, *CHAIN_DRAWS.values())]
    full = []  # P of each growing stage being decided, innermost last
    real_verdict = decider._growing_verdict

    def growing_verdict(stage, *args):
        try:
            full.append(constants.compute_count_free_sheet(stage.staged).power_exponent)
        except MorphrecError:
            full.append(None)
        try:
            return real_verdict(stage, *args)
        finally:
            full.pop()

    real_power = ProlongableSystem.with_sigma_power

    def with_sigma_power(self, k):
        if full and full[-1] is not None and k >= full[-1]:
            pytest.fail(f"sigma^{k} composed, P = {full[-1]}")
        return real_power(self, k)

    monkeypatch.setattr(decider, "_growing_verdict", growing_verdict)
    monkeypatch.setattr(ProlongableSystem, "with_sigma_power", with_sigma_power)
    _refuse(monkeypatch, constants, "with_factor_count", "compute_constant_sheet")
    _refuse(monkeypatch, decider, "compute_constant_sheet", "_drive_to_level")
    kinds = set()
    for sys_ in systems:
        v = decide_uniform_recurrence(sys_)
        if v.certificate is None:
            assert v.trace[-1] == UNSETTLED, v.trace
            continue
        kinds.add(v.certificate.kind)
        ok, detail = verify_certificate(sys_, v)
        assert ok, (v.certificate.data, detail)
    assert kinds == set(verify._CERT_OUTCOME), kinds


def test_verify_rejects_exit_kinds_it_does_not_check():
    # only letter, E1 and gap exits are issued; a driver exit of any other
    # kind, even one the driver can produce, is not replayed
    sys_ = parse_system(SCAN_SETTLED["gap_level1"][0])
    v = decide_uniform_recurrence(sys_)
    for kind in ("E2", "E3", "E4", "empty-image", "no-occurrence", "short-return",
                 "unanchored", "cap", None, ["gap"]):
        ok, detail = verify_certificate(sys_, _tampered(v, exit=kind))
        assert not ok and "not issued" in detail["reason"], (kind, detail)


def test_tail_prefix_can_need_more_than_one_letter():
    # sigma(b c) = c . b c . c b = s' v w with s' = c, and |sigma(b)| = 2 is
    # not above |s'| + 1, so the least prefix length of t = b c z is 2
    staged = _growing_stage(
        parse_system("alphabet: a b c\nstart: a\nsigma:\na -> a c b\nb -> c b\nc -> c c b\n")
    ).staged
    tail = certify._transient_tail(staged)
    enc = staged.alphabet.encode
    assert certify._tail_prefix(staged, enc(["b", "c"]), 1) == 2
    assert certify._tail_prefix(staged, enc(["c", "b"]), 1) == 1
    # sigma(b) = c b does not end with b w
    assert certify._tail_prefix(staged, enc(["b"]), 1) is None
    k = tail.sub.incidence.primitive_exponent
    assert certify._in_tail_language(tail, enc(["b", "c"]), k)
    assert not certify._in_tail_language(tail, enc(["b", "b"]), k)


def _low_power_repetitions(systems, work_budget=WORK_BUDGET):
    """(system, system the certificate speaks of, verdict) for every
    low-power `repetition` of the given systems: the decider's, or on a
    stage it settles `primitive`, the chain's."""
    out = []
    for sys_ in systems:
        try:
            v = decide_uniform_recurrence(sys_, work_budget=work_budget)
            if v.certificate is not None and v.certificate.kind == "primitive":
                v = chain_verdict(sys_, work_budget)
        except MorphrecError:
            continue
        cert = v and v.certificate
        if cert is None or cert.kind != "repetition":
            continue
        if cert.data["power"] < v.sheet.power_exponent:
            inner = decider._preimage_system(sys_) if cert.data.get("via") else sys_
            out.append((sys_, inner, v))
    return out


def test_low_power_repetition_verifies_locally(monkeypatch):
    systems = [e.build() for e in entries()] + [parse_system(t) for t in COUNT_FREE.values()]
    found = _low_power_repetitions(systems)
    assert len(found) == 23
    _refuse(monkeypatch, decider, "compute_constant_sheet")
    _refuse(monkeypatch, verify, "compute_count_free_sheet")
    _refuse(monkeypatch, constants, "with_factor_count")
    calls = []
    real = verify.build_sigma_U
    monkeypatch.setattr(verify, "build_sigma_U", lambda *a, **k: calls.append(1) or real(*a, **k))
    for sys_, _, v in found:
        calls.clear()
        ok, detail = verify_certificate(sys_, v)
        assert ok, (v.certificate.data, detail)
        assert len(calls) == 2, v.certificate.data


# the certificates accepted at 1 <= n < m <= 6 and power 1..3, recorded on
# the full replay that checked every level 1..m on the constant sheet
REPLAY_ACCEPTS = {
    "fibonacci": {(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)},
    "rudin_shapiro_coded": {(4, 5, 3), (5, 6, 3)},
    "chacon_padded": {(2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1)},
}


@pytest.mark.parametrize("name", sorted(REPLAY_ACCEPTS))
def test_local_check_accepts_what_the_replay_accepted(name):
    sys_ = load(name)
    v = chain_verdict(sys_)
    accepted = set()
    for n in range(1, 7):
        for m in range(n + 1, 7):
            for power in (1, 2, 3):
                ok, _ = verify_certificate(sys_, _tampered(v, n=n, m=m, power=power))
                if ok:
                    accepted.add((n, m, power))
    assert accepted == REPLAY_ACCEPTS[name]


def test_local_check_builds_the_replayed_descriptors():
    found = _low_power_repetitions([e.build() for e in entries()])
    found += _low_power_repetitions(
        [parse_system(t) for t in test_fuzz.SYSTEMS], work_budget=1 << 20
    )
    assert len(found) == 46
    for _, inner, v in found:
        d = v.certificate.data
        stage = _growing_stage(inner)
        sheet = constants.compute_count_free_sheet(stage.staged)
        sys_pow = stage.staged.with_sigma_power(d["power"])
        levels = dict(decider._levels(sys_pow, d["power"], sheet, d["m"], WORK_BUDGET))
        assert not any(isinstance(res, DriverExit) for res in levels.values())
        lengths = verify._u_lengths(stage.staged, d["m"])
        assert lengths == [len(levels[k].u) for k in range(1, d["m"] + 1)], d
        sizes = (lengths[d["n"] - 1], lengths[d["m"] - 1])
        low, high = verify._anchored_levels(stage, d["power"], sizes)
        assert (low, high) == (levels[d["n"]], levels[d["m"]]), d


def test_the_chain_path_converts_no_word(monkeypatch):
    # the u-chain runs on internal strings: with every token conversion
    # refused, the decider's levels, the local check's two closures, tau and
    # the certificate are rebuilt for each low-power repetition of the catalog
    found = _low_power_repetitions([e.build() for e in entries()])
    assert len(found) == 20
    cases = []
    for _, inner, v in found:
        stage = _growing_stage(inner)
        sheet = constants.compute_count_free_sheet(stage.staged)
        cases.append((stage, sheet, v.certificate.data))

    def refuse(*_):
        raise AssertionError("a word was converted between tokens and internal strings")

    for cls, name in ((Alphabet, "encode"), (Alphabet, "decode"), (Morphism, "image_tokens")):
        monkeypatch.setattr(cls, name, refuse)
    for stage, sheet, d in cases:
        n, m, power = d["n"], d["m"], d["power"]
        sys_pow = stage.staged.with_sigma_power(power)
        levels = dict(decider._levels(sys_pow, power, sheet, m, WORK_BUDGET))
        lengths = verify._u_lengths(stage.staged, m)
        low, high = verify._anchored_levels(stage, power, (lengths[n - 1], lengths[m - 1]))
        assert (low, high) == (levels[n], levels[m]), d
        assert [list(img) for img in _connecting_morphism(low, high)] == d["tau"]
        cert = certify._certify_repetition(sys_pow, power, n, m, low, high)
        assert cert.data == {k: x for k, x in d.items() if k != "via"}


def test_the_decide_path_converts_no_word_outside_the_checklist(monkeypatch):
    # words stay internal strings from parse to certificate: with image
    # tokens, from_tokens and encode refused (encode only outside
    # periodic_checklist, which takes its candidate word in tokens), every
    # catalog entry gets the envelope it gets unpatched
    def outcome(sys_):
        try:
            return decide_uniform_recurrence(sys_).to_json_dict()
        except MorphrecError as e:
            return type(e).__name__, str(e)

    texts = [e.text for e in entries()]
    want = [outcome(parse_system(text)) for text in texts]
    systems = [parse_system(text) for text in texts]

    def refuse(*_):
        raise AssertionError("a word was converted between tokens and internal strings")

    inside = []
    checklist = certify.periodic_checklist
    encode = Alphabet.encode

    def counted_checklist(*args):
        inside.append(True)
        try:
            return checklist(*args)
        finally:
            inside.pop()

    def guarded_encode(self, word):
        if not inside:
            refuse()
        return encode(self, word)

    monkeypatch.setattr(Morphism, "image_tokens", refuse)
    monkeypatch.setattr(Morphism, "from_tokens", refuse)
    monkeypatch.setattr(Alphabet, "encode", guarded_encode)
    monkeypatch.setattr(certify, "periodic_checklist", counted_checklist)
    assert [outcome(sys_) for sys_ in systems] == want


def test_verify_rejects_tampered_primitive():
    sys_ = parse_system(PRIMITIVE_CODED)
    v = decide_uniform_recurrence(sys_)
    k = v.certificate.data["positivity_power"]
    for bad in (k - 1, 0, -1, "2", 2.0, str(k), float(k), True, None, 10**9):
        ok, detail = verify_certificate(sys_, _primitive_verdict(v, {"positivity_power": bad}))
        assert not ok, (bad, detail)
    for added in ({"extra": 5}, {"via": "forged"}):
        forged = _primitive_verdict(v, {"positivity_power": k, **added})
        ok, detail = verify_certificate(sys_, forged)
        assert not ok, detail
    ok, detail = verify_certificate(sys_, _primitive_verdict(v, {}))
    assert not ok, detail


def test_verify_takes_power_one_but_not_true():
    # thue_morse's incidence matrix is positive: power 1 is an honest
    # certificate, and True, which equals 1, is still rejected
    sys_ = load("thue_morse")
    v = decide_uniform_recurrence(sys_)
    ok, detail = verify_certificate(sys_, _primitive_verdict(v, {"positivity_power": 1}))
    assert ok, detail
    ok, detail = verify_certificate(sys_, _primitive_verdict(v, {"positivity_power": True}))
    assert not ok, detail


@pytest.mark.parametrize("text", [NONPRIMITIVE_GROWING, get("nonprim_growing").text])
def test_verify_rejects_primitive_on_a_nonprimitive_system(text):
    sys_ = parse_system(text)
    v = decide_uniform_recurrence(sys_)
    d = len(_growing_stage(sys_).staged.alphabet)
    for k in range(1, d * d - 2 * d + 3):
        ok, detail = verify_certificate(sys_, _primitive_verdict(v, {"positivity_power": k}))
        assert not ok, (k, detail)


def test_verify_rejects_primitive_on_a_pumping_branch_system():
    sys_ = load("tail_fin_const")
    v = decide_uniform_recurrence(sys_)
    ok, detail = verify_certificate(sys_, _primitive_verdict(v, {"positivity_power": 1}))
    assert not ok
    assert "pumping-branch" in detail["reason"]


# -- the token stage -------------------------------------------------------------------


@pytest.mark.parametrize("k", [64, 65, 200, 1000, 4094])
def test_the_comb_family_settles_on_its_token_stage(monkeypatch, k):
    # neither deciding nor verifying prepares the (k+1)-letter blow-up: the
    # input is the one system either prepares
    sys_ = parse_system(_comb(k))
    prepared = []
    real = decider.prepare
    monkeypatch.setattr(
        decider, "prepare", lambda s, trace=None: prepared.append(s) or real(s, trace)
    )
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT and v.sheet is None
    assert v.certificate.to_json_dict() == {
        "kind": "primitive", "positivity_power": 1, "via": "token-stage",
    }
    assert v.trace == (
        {"step": "prepare", "letters": 2, "r_sigma": 1, "normalized": False},
        {"step": "block-encode", "tokens": 1, "power": 1},
        {"step": "primitive", "positivity_power": 1, "via": "token-stage"},
    )
    ok, detail = verify_certificate(sys_, v)
    assert ok and detail == {"checked": "primitive", "positivity_power": 1}, detail
    assert prepared == [sys_, sys_]


@pytest.mark.parametrize("k", [200, 1000])
def test_verify_refuses_a_primitive_without_via_on_a_settled_token_stage(monkeypatch, k):
    # the verifier rebuilds a `primitive` where the decider issues it, on the
    # token system, so it refuses one without "via" before the blow-up
    sys_ = parse_system(_comb(k))
    v = decide_uniform_recurrence(sys_)
    prepared = []
    real = decider.prepare
    monkeypatch.setattr(
        decider, "prepare", lambda s, trace=None: prepared.append(s) or real(s, trace)
    )
    for power in (1, 2):
        ok, detail = verify_certificate(sys_, _primitive_verdict(v, {"positivity_power": power}))
        assert not ok, (power, detail)
    assert prepared == [sys_, sys_]


def test_verify_rejects_a_token_stage_that_does_not_settle():
    # fibonacci has no block encoding, so its own `primitive` is rebuilt on
    # its one stage, without "via"; CONSTANTS_UNAVAILABLE's token sigma is
    # not primitive, so it keeps its period-65 verdict from the blown-up stage
    unavailable = parse_system(CONSTANTS_UNAVAILABLE)
    for sys_, kind, reason in (
        (load("fibonacci"), "primitive", "differs from the rebuilt one"),
        (unavailable, "periodic", "builds no primitive"),
    ):
        v = decide_uniform_recurrence(sys_)
        assert v.certificate.kind == kind and "via" not in v.certificate.data
        for k in (1, 2, 3):
            forged = _primitive_verdict(v, {"positivity_power": k, "via": "token-stage"})
            ok, detail = verify_certificate(sys_, forged)
            assert not ok and reason in detail["reason"], detail
    d = decide_uniform_recurrence(unavailable).certificate.data
    assert (d["source"], d["period"]) == ("constants-unavailable", 65)


def test_verify_rejects_a_tampered_token_stage():
    sys_ = parse_system(_comb(200))
    v = decide_uniform_recurrence(sys_)
    honest = v.certificate.data
    for bad in (
        {**honest, "positivity_power": 2},
        {**honest, "positivity_power": True},
        {**honest, "positivity_power": 1.0},
        {**honest, "extra": 5},
        {"via": "token-stage", "positivity_power": 1},
        {"positivity_power": 1},
        {**honest, "via": ["preimage", "token-stage"]},
    ):
        ok, detail = verify_certificate(sys_, _primitive_verdict(v, bad))
        assert not ok, (bad, detail)
    forged = Verdict(NOT_UNIFORMLY_RECURRENT, v.certificate, None, ())
    assert not verify_certificate(sys_, forged)[0]


def test_a_preimage_settled_on_its_token_stage_names_both_steps():
    # phi is neither erasing nor a coding, so the image shortcut decides y,
    # which settles on its token stage
    sys_ = parse_system(
        _comb(300).replace("sigma:", "target: 0 1\nsigma:") + "phi:\na -> 0 1\nb -> 1\n"
    )
    v = decide_uniform_recurrence(sys_)
    assert v.certificate.data == {"positivity_power": 1, "via": ["preimage", "token-stage"]}
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail
    for via in ("preimage", ["token-stage", "preimage"], ["preimage"], ["preimage", "forged"]):
        ok, detail = verify_certificate(sys_, _tampered(v, via=via))
        assert not ok, (via, detail)
    # x's own walk, through the blow-up of phi, settles on a token stage too
    ok, detail = verify_certificate(sys_, _tampered(v, via="token-stage"))
    assert ok, detail


# -- the periodicity checklist ---------------------------------------------------------


def test_checklist_anchored_for_eventually_periodic():
    cl = periodic_checklist(load("tail_fin_const"), ["b"])
    assert cl["periodic"] is True
    assert cl["anchored"] is True
    assert cl["period"] == 1
    assert cl["condition1"]["holds"] and cl["condition2"]["holds"] and cl["condition3"]["holds"]


def test_checklist_fails_on_nonrecurrent_block():
    cl = periodic_checklist(load("nonur_block"), ["1"])
    assert cl["periodic"] is False
    assert cl["condition1"]["holds"] is False
    assert cl["condition1"]["witness"] == ["0", "0"]
    assert cl["condition2"]["skipped"] == "condition1 failed"


# -- staging and the u-chain helper ----------------------------------------------------


def test_prepare_restricts_and_normalizes():
    st = prepare(load("unreachable_extra"))
    assert st.r_sigma >= 1
    # unreachable letters are gone from the staged system
    v = decide_uniform_recurrence(load("unreachable_extra"))
    assert v.outcome == UNIFORMLY_RECURRENT


def test_the_shortcut_and_the_walk_share_one_restriction(monkeypatch):
    """The restriction is read off image bitmasks, so the dropped letter z
    never costs an analysis of the full sigma, and it is built once: the
    image shortcut's check and prepare get the same object, and prepare
    normalizes exactly that object."""
    sys_ = load("unreachable_extra")
    restrictions, normalized = [], []
    real_restrict, real_normalize = decider.restrict_to_reachable, decider.normalize_to_coding

    def restrict(s):
        out = real_restrict(s)
        if s is sys_:
            restrictions.append(out)
        return out

    def normalize(s):
        normalized.append(s)
        return real_normalize(s)

    monkeypatch.setattr(decider, "restrict_to_reachable", restrict)
    monkeypatch.setattr(decider, "normalize_to_coding", normalize)
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == UNIFORMLY_RECURRENT
    assert "incidence" not in vars(sys_.sigma)
    assert len(restrictions) == 2  # the shortcut's check, then prepare
    assert restrictions[0] is restrictions[1] and restrictions[0].alphabet.tokens == ("a", "b")
    assert normalized[0] is restrictions[0]
    # with phi non-erasing and not a coding the shortcut decides the same
    # restricted sigma: its inner system is built on that very morphism
    coded = parse_system(
        "alphabet: a b z\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> a\nz -> z z\n"
        "phi:\na -> 0 1\nb -> 0\nz -> 1\n"
    )
    inner = decider._preimage_system(coded)
    assert inner.sigma is real_restrict(coded).sigma
    assert "incidence" not in vars(coded.sigma)


@pytest.mark.parametrize("name", ["case1_comb", "chacon_padded"])
@pytest.mark.parametrize(
    "limit,value,reason",
    [
        ("MAX_ENCODE_HOPS", 0, "encode depth limit"),
        ("_MAX_CELL_TOKENS", 1, "cell alphabet exceeded its budget"),
    ],
)
def test_stage_walk_stop_reasons(monkeypatch, name, limit, value, reason):
    # both need a bounded-block encoding, so a walk that may not encode ends
    # on its non-growing, witness-free input
    monkeypatch.setattr(decider, limit, value)
    v = decide_uniform_recurrence(load(name))
    assert v.outcome == INCONCLUSIVE
    assert v.certificate is None
    assert v.trace[-1] == {"step": "nongrowing", "status": "unresolved", "reason": reason}
    assert _growing_stage(load(name)) is None


def _token_pumping_witness(sys: ProlongableSystem, kmax: int):
    """The pumping search as it was before it moved onto internal words: a
    token-level right-side search and its left copy, u and v in tokens."""
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

    def trail_word(g, k):
        t, h = "", g
        for _ in range(k):
            t = trail1[h] + sigma.apply(t)
            h = last[h]
        return t

    def lead_word(g, k):
        t, h = "", g
        for _ in range(k):
            t = sigma.apply(t) + lead1[h]
            h = first[h]
        return t

    def small_image(g, k):
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


def test_pumping_witness_matches_the_token_search():
    # every non-growing stage of the stage walk, on the catalog, the
    # stage-rewrite draws and wide-sweep seeds 2 and 3
    texts = [e.text for e in entries()] + list(test_stage_rewrite_golden.SYSTEMS)
    for seed in (2, 3):
        rng = random.Random(seed)
        texts += [test_fuzz._draw(rng, "abcd", 2, 4) for _ in range(200)]
    sides = Counter()
    for text in texts:
        try:
            stages = list(decider._stages(parse_system(text), []))
        except MorphrecError:
            continue
        for stage in stages:
            if stage.growing:
                continue
            staged = stage.staged
            kmax = len(staged.alphabet) * stage.r_sigma
            got = stage.pumping_witness
            if got is not None:
                decode = staged.alphabet.decode
                got = {**got, **{k: decode(got[k]) for k in ("u", "v") if k in got}}
                sides[got["side"]] += 1
            assert got == _token_pumping_witness(staged, kmax), text
    assert sides["right"] >= 60 and sides["left"] >= 5, sides


def test_pumping_witness_computed_once_per_stage(monkeypatch):
    calls = []
    real = decider._pumping_witness
    monkeypatch.setattr(
        decider, "_pumping_witness", lambda sys_, kmax: calls.append(kmax) or real(sys_, kmax)
    )
    sys_ = load("nonur_block")
    v = decide_uniform_recurrence(sys_)
    assert v.certificate.kind == "periodic_mismatch"
    assert len(calls) == 1
    calls.clear()
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail
    assert len(calls) == 1


def test_derive_chain_fibonacci_two_levels():
    dc = derive_chain(load("fibonacci"), 2)
    assert sorted(dc.levels.keys()) == [1, 2]
    alpha = dc.powered.alphabet
    assert "".join(alpha.decode(dc.levels[1].u)) == "a"
    assert "".join(alpha.decode(dc.levels[2].u)) == "aba"
    assert len(dc.levels[1].pairs) == 2
    assert dc.driver_exit is None


def test_derive_chain_reports_driver_exit():
    dc = derive_chain(load("nonprim_growing"), 3)
    assert dc.levels == {}
    assert dc.driver_exit is not None
    level, exit_ = dc.driver_exit
    assert level == 1
    assert exit_.kind == "E1"
    assert exit_.unconditional


def test_derive_chain_validates_input():
    with pytest.raises(PreconditionViolated):
        derive_chain(load("fibonacci"), 0)
    for budget in (0, -5):
        with pytest.raises(PreconditionViolated, match=f"at least 1 letter, got {budget}$"):
            derive_chain(load("fibonacci"), 2, work_budget=budget)
    with pytest.raises(PreconditionViolated):
        derive_chain(load("tail_fin_const"), 1)  # resolves in the non-growing branch
