"""Verification of a verdict's certificate: rebuild it, and compare.

The verifier has one path.  It walks the stages, reads the fields that
select a certificate (power, n, m, levels, period, level, u_length and the
gap positions, each an int), rebuilds that certificate with the decider's
own builder (certify.py), and accepts only a certificate equal to it, compared by the
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
argument in certify.py needs only closed, anchored tables at two prefixes u_n and
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
witness and pumping word.  A `primitive` is rebuilt where the decider
issues it: the stage walk runs with its token stage, so it ends where the
decider's walk ended, at the first token system that
`_primitive_certificate` settles, and that certificate, with "via":
"token-stage", is the rebuilt one; otherwise the builder runs on the last
prepared stage.  A token system that settles is never prepared, so its
coding blow-up is not built here either, and a `primitive` without that
`via` is refused there before any blow-up.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from .certify import (
    _PERIOD_SEARCH, _SHEET_UNAVAILABLE, LOW_POWERS, NOT_UNIFORMLY_RECURRENT, SCAN_FIRST,
    SCAN_WORK, UNIFORMLY_RECURRENT, UPFRONT_QMAX, Certificate, _certify_repetition,
    _letter_certificate, _level_exit, _periodic_certificate, _primitive_certificate,
    _pumping_certificate, _tail_certificate, pure_period_check,
)
from .constants import compute_count_free_sheet
from .returns import PRACTICAL_CAP, SCAN_LETTERS, DriverExit, build_sigma_U, first_two_occurrences
from .stream import FixedPointStream
from .system import ProlongableSystem

if TYPE_CHECKING:
    from .decider import PreparedSystem, Verdict


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
        return _pumping_certificate(last.staged, last.pumping_witness)
    if cert.kind == "exit" and data.get("exit") == "letter":
        # rebuilt on the first stage with a witness, where the decider stops
        return next(filter(None, (_letter_certificate(s.staged) for s in stages)), None)
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
    # a runtime import: the decider imports this module to bind verify_certificate
    from .decider import _preimage_system, _walk

    expected = _CERT_OUTCOME.get(cert.kind)
    if expected is None:
        return False, {"reason": f"unknown certificate kind {cert.kind!r}"}
    if verdict.outcome != expected:
        return False, {
            "reason": f"a {cert.kind} certificate implies {expected}, "
            f"but the verdict claims {verdict.outcome}"
        }
    via = cert.data.get("via")
    if via in ("preimage", ["preimage", "token-stage"]):
        inner = _preimage_system(sys)
        if inner is None:
            return False, {"reason": "preimage shortcut does not apply to this system"}
        stripped = {k: x for k, x in cert.data.items() if k != "via"}
        if via != "preimage":  # the preimage settled on its token stage
            stripped["via"] = via[1]
        return _verify(inner, verdict, Certificate(cert.kind, stripped))
    try:
        # a `primitive` is rebuilt where the decider issues it: its walk ends,
        # as the decider's does, at the first token system that settles,
        # before that system is prepared; any other kind is rebuilt on the
        # prepared stages
        stages = list(_walk(sys, [], cert.kind == "primitive"))
        settled = stages[-1]
        rebuilt = settled if isinstance(settled, Certificate) else _rebuild(stages, cert)
    except _Rejected as e:
        return False, {"reason": str(e)}
    if rebuilt is None:
        return False, {"reason": f"the decider builds no {cert.kind} certificate on this system"}
    bad = _rebuilt_error(rebuilt, cert)
    return (False, bad) if bad is not None else (True, _checked(cert))

