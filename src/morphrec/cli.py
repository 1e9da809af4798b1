"""Batch command-line frontend.

One subcommand per library operation: parse system files, run the operation,
print a human-readable text report or a JSON envelope.  Every envelope starts
with {"format": FORMAT_VERSION, "command": ..., "input": ...} and records the
flags that influence the result, so a verdict can be reproduced from its own
output.

Exit codes: 0 when the run produced its result (any verdict counts), 1 for
input or usage errors, 2 for internal consistency failures (including a
certificate that fails --verify).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .certify import periodic_checklist
from .decider import _growing_stage, decide_uniform_recurrence, derive_chain
from .errors import InternalConsistencyError, MorphrecError
from .growth import block_decomposition, growth_type, is_primitive
from .morphism import classify
from .oracle import window_ur_check
from .returns import PRACTICAL_CAP, WORK_BUDGET, return_words_to_word
from .system import ProlongableSystem, parse_system
from .verify import verify_certificate

FORMAT_VERSION = 8


# ---------------------------------------------------------------------------
# small rendering helpers


def _load(path: str) -> ProlongableSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def _wstr(tokens) -> str:
    """Join a token word for display: tight for single-char tokens."""
    toks = list(tokens)
    if all(len(t) == 1 for t in toks):
        return "".join(toks)
    return " ".join(toks)


def _parse_word(arg: str, alphabet) -> list[str]:
    """Accept either whitespace-separated tokens or a tight single-char string."""
    chunks = arg.split()
    if not chunks:
        raise MorphrecError("the word must be nonempty")
    if len(chunks) == 1 and chunks[0] not in alphabet:
        chars = list(chunks[0])
        if all(c in alphabet for c in chars):
            return chars
    for c in chunks:
        if c not in alphabet:
            raise MorphrecError(f"letter {c!r} is not in the alphabet")
    return chunks


def _plain(obj):
    """Recursively reduce to JSON-native types with deterministic rendering."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _poly_str(coeffs) -> str:
    """Human form of a polynomial given highest-first integer coefficients."""
    terms = []
    deg = len(coeffs) - 1
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        p = deg - i
        mag = abs(c)
        if p == 0:
            body = str(mag)
        else:
            x = "x" if p == 1 else f"x^{p}"
            body = x if mag == 1 else f"{mag}{x}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0"


def _theta_json(theta) -> dict:
    refined = theta.refined(Fraction(1, 10**9))
    return {
        "poly": list(theta.coeffs),
        "lo": _plain(theta.lo),
        "hi": _plain(theta.hi),
        "approx": round(refined.midpoint_float(), 6),
    }


def _theta_text(tj: dict) -> str:
    poly = _poly_str(tj["poly"])
    if tj["lo"] == tj["hi"]:
        num, den = tj["lo"].split("/")
        return num if den == "1" else tj["lo"]
    return f"root of {poly} ~ {tj['approx']}"


# ---------------------------------------------------------------------------
# envelope builders (one per subcommand; run inside the per-file worker)


def _env_decide(path: str, ns: argparse.Namespace):
    system = _load(path)
    verdict = decide_uniform_recurrence(system, work_budget=ns.budget)
    env = {
        "format": FORMAT_VERSION,
        "command": "decide-ur",
        "input": path,
        "options": {"cap": PRACTICAL_CAP, "budget": ns.budget},
    }
    env.update(_plain(verdict.to_json_dict()))
    code = 0
    if ns.verify:
        ok, detail = verify_certificate(system, verdict)
        env["verification"] = {"ok": ok, "detail": _plain(detail)}
        if not ok:
            code = 2
    return code, env


def _env_classify(path: str, ns: argparse.Namespace):
    system = _load(path)
    flags = classify(system.sigma)
    structure = system.incidence
    blocks = block_decomposition(structure)
    growth = []
    for tok in system.alphabet.tokens:
        gt = growth_type(structure, tok)
        growth.append(
            {
                "letter": tok,
                "growing": structure.is_growing(tok),
                "d": gt.d,
                "theta": _theta_json(gt.theta),
            }
        )
    phi = None
    if system.phi is not None:
        phi = {
            "coding": system.phi.is_coding,
            "non_erasing": system.phi.is_non_erasing,
            "target_letters": list(system.target_alphabet.tokens),
        }
    env = {
        "format": FORMAT_VERSION,
        "command": "classify",
        "input": path,
        "letters": list(system.alphabet.tokens),
        "start": system.start,
        "sigma": {
            "non_erasing": flags.non_erasing,
            "coding": flags.coding,
            "prolongable_on": sorted(flags.prolongable_on),
            "max_image_len": system.sigma.max_image_len,
        },
        "phi": phi,
        "prolongable": system.is_prolongable(),
        "growing_system": structure.all_growing(),
        "primitive": is_primitive(structure.matrix),
        "r_sigma": blocks.r_sigma,
        "blocks": [
            {"letters": list(b), "flag": f, "closed": c}
            for b, f, c in zip(blocks.blocks, blocks.flags, blocks.closed)
        ],
        "growth": growth,
    }
    return 0, env


def _env_return_words(path: str, ns: argparse.Namespace):
    system = _load(path)
    u = _parse_word(ns.word, system.target_alphabet)
    table = return_words_to_word(system, u, budget=ns.budget, which="x")
    env = {
        "format": FORMAT_VERSION,
        "command": "return-words",
        "input": path,
        "options": {"word": ns.word, "budget": ns.budget},
        "word": list(u),
        "words": [_wstr(w) for w in table.words],
        "derived_prefix": list(table.derived_prefix),
        "scanned": table.scanned,
        "complete": table.complete,
    }
    return 0, env


def _env_derive(path: str, ns: argparse.Namespace):
    system = _load(path)
    chain = derive_chain(system, ns.depth, work_budget=ns.budget)
    sheet = chain.sheet
    alpha, target = chain.powered.alphabet, chain.powered.target_alphabet
    levels = []
    for level in sorted(chain.levels):
        d = chain.levels[level]
        levels.append(
            {
                "level": level,
                "u": _wstr(alpha.decode(d.u)),
                "v": _wstr(target.decode(d.v)),
                "pairs": [[_wstr(alpha.decode(w)), _wstr(alpha.decode(up))] for w, up in d.pairs],
                "sigma_U": [list(img) for img in d.sigma_u_images],
                "psi": list(d.psi),
                "x_returns": [_wstr(target.decode(w)) for w in d.x_returns],
                "complete": True,
            }
        )
    exited = None
    if chain.driver_exit is not None:
        at, ex = chain.driver_exit
        exited = {
            "level": at,
            "kind": ex.kind,
            "unconditional": ex.unconditional,
            "message": ex.message,
        }
    env = {
        "format": FORMAT_VERSION,
        "command": "derive",
        "input": path,
        "options": {"depth": ns.depth, "budget": ns.budget},
        "stage_letters": len(chain.stage.staged.alphabet),
        "r_sigma": chain.stage.r_sigma,
        "K": sheet.K,
        "power_exponent": sheet.power_exponent,
        "levels": levels,
        "driver_exit": exited,
    }
    return 0, env


def _env_constants(path: str, ns: argparse.Namespace):
    system = _load(path)
    stage = _growing_stage(system)
    if stage is None:
        raise MorphrecError(
            "no growing stage: this system resolves in the non-growing branch "
            "and has no constant sheet"
        )
    from .constants import compute_constant_sheet

    sheet = compute_constant_sheet(stage.staged)
    env = {
        "format": FORMAT_VERSION,
        "command": "constants",
        "input": path,
        "stage_letters": len(stage.staged.alphabet),
        "r_sigma": stage.r_sigma,
        "constants": _plain(sheet.to_json_dict()),
    }
    return 0, env


def _env_periodic_check(path: str, ns: argparse.Namespace):
    system = _load(path)
    w = _parse_word(ns.word, system.alphabet)
    report = periodic_checklist(system, w)
    env = {
        "format": FORMAT_VERSION,
        "command": "periodic-check",
        "input": path,
        "options": {"word": ns.word},
    }
    env.update(_plain(report))
    return 0, env


def _env_oracle(path: str, ns: argparse.Namespace):
    system = _load(path)
    report = window_ur_check(system, ns.max_factor, ns.prefix, linear_bound=ns.bound)
    env = {
        "format": FORMAT_VERSION,
        "command": "oracle",
        "input": path,
        "options": {"max_factor": ns.max_factor, "prefix": ns.prefix, "bound": ns.bound},
        "checked": report.checked,
        "factor_count": report.factor_count,
        "worst": {
            str(ln): {
                "factor": _wstr(w["factor"]),
                "gap": w["gap"],
                "positions": list(w["positions"]),
            }
            for ln, w in sorted(report.worst.items())
        },
        "violations": [
            {
                "factor": _wstr(v.factor),
                "gap": v.gap,
                "positions": list(v.positions),
                "kind": v.kind,
            }
            for v in report.violations
        ],
        "conclusive": report.conclusive,
        "ur_consistent": report.ur_consistent,
    }
    return 0, env


_BUILDERS = {
    "decide-ur": _env_decide,
    "classify": _env_classify,
    "return-words": _env_return_words,
    "derive": _env_derive,
    "constants": _env_constants,
    "periodic-check": _env_periodic_check,
    "oracle": _env_oracle,
}


def _file_worker(item):
    """Per-file isolation: errors become (code, None, message) triples."""
    command, path, ns = item
    try:
        code, env = _BUILDERS[command](path, ns)
        return code, env, None
    except InternalConsistencyError as e:
        return 2, None, str(e)
    except (MorphrecError, OSError) as e:
        return 1, None, str(e)


# ---------------------------------------------------------------------------
# text renderers (operate on the plain envelope dicts)


def _kv_lines(data: dict, indent: int = 0) -> list[str]:
    pad = "  " * indent
    out = []
    for k, v in data.items():
        if isinstance(v, dict):
            out.append(f"{pad}{k}:")
            out.extend(_kv_lines(v, indent + 1))
        elif isinstance(v, list):
            short = json.dumps(v)
            if len(short) <= 100:
                out.append(f"{pad}{k}: {short}")
            else:
                out.append(f"{pad}{k}: [{len(v)} entries]")
        elif isinstance(v, str) and ("\n" in v or len(v) > 100):
            head = v.split("\n", 1)[0][:60]
            out.append(f"{pad}{k}: {head}... ({len(v)} chars)")
        else:
            out.append(f"{pad}{k}: {v}")
    return out


def _render_decide(env: dict) -> str:
    lines = [f"verdict: {env['verdict'].replace('_', ' ')}"]
    cert = env.get("certificate")
    if cert:
        lines.append(f"certificate: {cert['kind']}")
        rest = {k: v for k, v in cert.items() if k != "kind"}
        lines.extend(_kv_lines(rest, indent=1))
    else:
        lines.append("certificate: none")
    constants = env.get("constants")
    if constants:
        # a verdict's sheet has no count fields, and R only for a primitive
        # sigma
        shown = [f"{k}={constants[k]}" for k in ("K", "R", "K2") if constants[k] is not None]
        lines.append("constants: " + " ".join(shown))
    ver = env.get("verification")
    if ver is not None:
        lines.append(f"verification: {'ok' if ver['ok'] else 'FAILED'}")
        if not ver["ok"]:
            lines.extend(_kv_lines(ver["detail"], indent=1))
    return "\n".join(lines)


def _render_classify(env: dict) -> str:
    lines = [
        f"letters: {len(env['letters'])} ({' '.join(env['letters'])})",
        f"start: {env['start']}",
    ]
    sg = env["sigma"]
    lines.append(
        f"sigma: non-erasing={sg['non_erasing']} coding={sg['coding']} "
        f"max image {sg['max_image_len']}, prolongable on {{{' '.join(sg['prolongable_on'])}}}"
    )
    if env["phi"] is None:
        lines.append("phi: none (identity)")
    else:
        kind = "coding" if env["phi"]["coding"] else (
            "non-erasing" if env["phi"]["non_erasing"] else "erasing"
        )
        lines.append(f"phi: {kind} onto {{{' '.join(env['phi']['target_letters'])}}}")
    lines.append(
        f"growing system: {env['growing_system']}   primitive: {env['primitive']}   "
        f"r_sigma: {env['r_sigma']}"
    )
    for i, b in enumerate(env["blocks"]):
        closed = "closed" if b["closed"] else "open"
        lines.append(f"block {i}: [{' '.join(b['letters'])}] {b['flag']} ({closed})")
    width = max(6, max(len(g["letter"]) for g in env["growth"]))
    lines.append(f"{'letter'.ljust(width)}  growing  growth (d, theta)")
    for g in env["growth"]:
        theta = _theta_text(g["theta"])
        lines.append(
            f"{g['letter'].ljust(width)}  {'yes' if g['growing'] else 'no '}      "
            f"d={g['d']} theta={theta}"
        )
    return "\n".join(lines)


def _render_return_words(env: dict) -> str:
    lines = [f"return words of x to {_wstr(env['word'])} "
             f"(first {env['scanned']} letters scanned):"]
    for i, w in enumerate(env["words"], start=1):
        lines.append(f"{i}: {w}")
    prefix = " ".join(str(i) for i in env["derived_prefix"][:40])
    more = " ..." if len(env["derived_prefix"]) > 40 else ""
    lines.append(f"derived prefix: {prefix}{more}")
    return "\n".join(lines)


def _render_derive(env: dict) -> str:
    lines = [
        f"stage: {env['stage_letters']} letters, r_sigma={env['r_sigma']}, "
        f"K={env['K']}, sigma powered to exponent {env['power_exponent']}"
    ]
    for lv in env["levels"]:
        lines.append(f"level {lv['level']}: u={lv['u']} ({len(lv['pairs'])} pairs, "
                     f"complete={lv['complete']})")
        for i, (w, up) in enumerate(lv["pairs"], start=1):
            lines.append(f"  pair {i}: w={w}  next={up}")
        for i, img in enumerate(lv["sigma_U"], start=1):
            shown = " ".join(map(str, img[:24]))
            more = f" ... ({len(img)} total)" if len(img) > 24 else ""
            lines.append(f"  sigma_U {i} -> {shown}{more}")
        lines.append(f"  psi: {' '.join(map(str, lv['psi']))}")
        lines.append(f"  x returns: {', '.join(lv['x_returns'])}")
    if env["driver_exit"] is not None:
        ex = env["driver_exit"]
        lines.append(
            f"driver exit at level {ex['level']}: {ex['kind']} "
            f"(unconditional={ex['unconditional']}) {ex['message']}"
        )
    return "\n".join(lines)


def _render_constants(env: dict) -> str:
    lines = [f"growing stage: {env['stage_letters']} letters, r_sigma={env['r_sigma']}"]
    body = dict(env["constants"])
    subs = body.pop("submorphisms", [])
    lines.extend(_kv_lines(body))
    for i, s in enumerate(subs):
        mark = " (chosen)" if i == body.get("chosen_submorphism") else ""
        lines.append(
            f"submorphism {i}{mark}: letters [{' '.join(s['letters'])}] start {s['start']} "
            f"power {s['power']} norm {s['norm']} Q {s['Q']} R {s['R']} K {s['K']}"
        )
    return "\n".join(lines)


def _render_periodic_check(env: dict) -> str:
    lines = [
        f"candidate word w: {_wstr(env['w'])}",
        f"period word: {_wstr(env['period_word'])} (period {env['period']})",
    ]
    for key in ("condition1", "condition2", "condition3"):
        cond = env[key]
        detail = {k: v for k, v in cond.items() if k != "holds"}
        suffix = f"  {json.dumps(detail)}" if detail else ""
        lines.append(f"{key}: {'holds' if cond['holds'] else 'FAILS'}{suffix}")
    lines.append(f"periodic (conditions 1+2): {env['periodic']}")
    lines.append(f"anchored (all three): {env['anchored']}")
    return "\n".join(lines)


def _render_oracle(env: dict) -> str:
    opts = env["options"]
    lines = [
        f"scanned {opts['prefix']} letters, factor lengths 1..{opts['max_factor']}, "
        f"{env['factor_count']} distinct factors"
    ]
    for ln, w in env["worst"].items():
        lines.append(
            f"length {ln}: worst gap {w['gap']} for {w['factor']} at {w['positions']}"
        )
    if opts["bound"] is None:
        lines.append("no linear bound supplied; scan is informational only")
    elif env["violations"]:
        lines.append(f"violations of gap <= {opts['bound']}*|u|:")
        for v in env["violations"][:10]:
            lines.append(
                f"  {v['kind']}: {v['factor']} gap {v['gap']} at {v['positions']}"
            )
        if len(env["violations"]) > 10:
            lines.append(f"  ... {len(env['violations']) - 10} more")
    else:
        lines.append(f"no violations of gap <= {opts['bound']}*|u| in the scanned prefix")
    lines.append(f"conclusive: {env['conclusive']}")
    return "\n".join(lines)


_RENDERERS = {
    "decide-ur": _render_decide,
    "classify": _render_classify,
    "return-words": _render_return_words,
    "derive": _render_derive,
    "constants": _render_constants,
    "periodic-check": _render_periodic_check,
    "oracle": _render_oracle,
}


# ---------------------------------------------------------------------------
# argument grammar and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphrec",
        description="Decide uniform recurrence of morphic sequences and "
        "inspect their return-word structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("files", nargs="+", metavar="FILE", help="system file(s)")
        p.add_argument("--json", action="store_true", help="emit the JSON envelope")
        return p

    p = add("decide-ur", "run the full decision pipeline")
    p.add_argument("--budget", type=int, default=WORK_BUDGET, help="letter work budget")
    p.add_argument("--verify", action="store_true", help="re-check the certificate")

    add("classify", "growth types, blocks and flags")

    p = add("return-words", "return words of x to a given word")
    p.add_argument("--word", required=True, help="target word (tokens or tight string)")
    p.add_argument("--budget", type=int, default=1 << 16, help="scan budget in letters")

    p = add("derive", "drive the descriptor chain u_1, u_2, ...")
    p.add_argument("--depth", type=int, required=True, help="number of levels")
    p.add_argument("--budget", type=int, default=WORK_BUDGET, help="letter work budget")

    add("constants", "the decision constant sheet of the growing stage")

    p = add("periodic-check", "three-condition periodicity checklist for phi(w)^inf")
    p.add_argument("--word", required=True, help="candidate word w over the source alphabet")

    p = add("oracle", "scan a prefix and measure recurrence gaps")
    p.add_argument("--max-factor", type=int, required=True, help="largest factor length")
    p.add_argument("--prefix", type=int, required=True, help="letters to scan")
    p.add_argument("--bound", type=int, default=None, help="linear recurrence bound to refute")

    return parser


def _process(command: str, paths: list[str], ns: argparse.Namespace):
    items = [(command, p, ns) for p in paths]
    if len(items) == 1:
        return [_file_worker(items[0])]
    try:
        with ProcessPoolExecutor(max_workers=min(len(items), 8)) as pool:
            return list(pool.map(_file_worker, items))
    except (OSError, PermissionError):
        return [_file_worker(it) for it in items]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
        return 0 if code == 0 else 1

    results = _process(ns.command, ns.files, ns)
    worst = max(code for code, _, _ in results)
    text = _report(ns, results)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`| head`); the results stand, so
        # keep their code, and point stdout at devnull so that the flush at
        # interpreter exit does not fail again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # not a file descriptor
            return worst
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return worst


def _report(ns: argparse.Namespace, results) -> str:
    """The standard output of a run; per-file errors go to stderr as they
    are met, so they are reported even when stdout is closed."""
    lines = []
    envelopes = []
    for path, (_, env, err) in zip(ns.files, results):
        if err is not None:
            print(f"{path}: error: {err}", file=sys.stderr)
            if ns.json:
                envelopes.append(
                    {"format": FORMAT_VERSION, "command": ns.command, "input": path, "error": err}
                )
            continue
        envelopes.append(env)
        if not ns.json:
            if len(ns.files) > 1:
                lines.append(f"== {path}")
            lines.append(_RENDERERS[ns.command](env))

    if ns.json and envelopes:
        payload = envelopes[0] if len(ns.files) == 1 else envelopes
        lines.append(json.dumps(payload, indent=2))
    return "".join(line + "\n" for line in lines)


if __name__ == "__main__":
    sys.exit(main())
