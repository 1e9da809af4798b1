"""The benchmark's workloads: inputs made from a seed, and one operation per input.

Each workload is a sequence of passes.  A pass is a list of inputs; running
an input returns one row per operation, and every row says whether the
output passed the workload's own check.  A row's "calls" maps each timed
library call to its (start, stop) interval.

catalog  The frozen catalog entries, in a seeded order, each decided and
         verified.  The outcome and certificate kind must match the entry,
         and erasing_sigma must raise its expected error.  Every pass holds
         the same 31 entries, so its work is the same whatever the seed.
random   Seeded draws of small systems, 100 per pass, each pass a fresh
         block of the seed's stream.  Each decide and each verify call runs
         under a time limit, so a slow draw ends as a timeout and the share
         of draws that get a verified verdict is measured.
inspect  The library calls behind the classify, constants, return-words,
         periodic-check and oracle subcommands on the primitive corpus, in a
         seeded order.  No decide, so the return-word driver never runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import dataclass

import morphrec as mr
from morphrec import catalog
from speedo import CallTimeout

# Chosen from the run length before any outcome was looked at: about 100
# draws must fit in a few seconds of a 20-second run, and most draws settle
# in tens of milliseconds.  Scaled time (speedo.py), not wall time, so that
# which draws time out does not depend on the load of a shared machine.
CALL_LIMIT_S = 0.15
RANDOM_PASS = 100

# The catalog marks these entries "error" without naming the error.
EXPECTED_ERRORS = {"erasing_sigma": "NormalizationUnsupported"}

# inspect call parameters, fixed so that every pass does the same work
PREFIX_LENGTHS = (1, 3, 8)
FACTOR_LEN = 8
WINDOW_FACTOR_MAX = 6
WINDOW_PREFIX = 20000
BRUTE_PREFIX = 1 << 16


def timed(fn, *args, limit=None, **kwargs):
    """Call fn; return (result, (start, stop)) on the perf_counter clock.

    `limit` is a context manager from Speedometer.limit; the call then raises
    CallTimeout once it has used its scaled time.  The runner turns
    intervals into times (see speedo.py).
    """
    t0 = time.perf_counter()
    try:
        with limit if limit is not None else contextlib.nullcontext():
            result = fn(*args, **kwargs)
    except CallTimeout as e:
        e.interval = (t0, time.perf_counter())
        raise
    return result, (t0, time.perf_counter())


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Input:
    name: str
    text: str


class Workload:
    name = ""

    def pass_inputs(self, k: int) -> list[Input]:
        raise NotImplementedError

    def run(self, item: Input) -> list[dict]:
        raise NotImplementedError


def _seeded_order(names, seed: int) -> list[str]:
    order = list(names)
    random.Random(seed).shuffle(order)
    return order


def _verdict_row(item: Input, system, verdict, decided, speedo=None) -> dict:
    """Row for a decided system; verifies the certificate when there is one,
    under the call limit when a speedometer is given."""
    cert = verdict.certificate
    row = {
        "input": item.name,
        "outcome": verdict.outcome,
        "kind": cert.kind if cert else None,
        "verified": False,
        "calls": {"decide": decided},
        "digest": digest(verdict.to_json_dict()),
    }
    if cert is None:
        if verdict.outcome == mr.INCONCLUSIVE:
            row["status"] = "inconclusive"
        else:
            row.update(status="failed", detail="verdict without a certificate")
        return row
    try:
        (ok, detail), row["calls"]["verify"] = timed(
            mr.verify_certificate, system, verdict,
            limit=speedo.limit(CALL_LIMIT_S) if speedo else None,
        )
    except CallTimeout as e:
        row["calls"]["verify"] = e.interval
        row.update(status="timeout", detail="verify")
        return row
    row["verified"] = ok
    if ok:
        row["status"] = "decided"
    else:
        row.update(status="failed", detail=f"certificate failed: {detail}")
    return row


class Catalog(Workload):
    name = "catalog"

    def __init__(self, seed: int, speedo):
        self.entries = {e.name: e for e in catalog.entries()}
        for e in self.entries.values():
            mr.parse_system(e.text)
            if e.expected == "error" and e.name not in EXPECTED_ERRORS:
                raise ValueError(f"no expected error recorded for catalog entry {e.name}")
        self.order = [Input(n, self.entries[n].text) for n in _seeded_order(self.entries, seed)]

    def pass_inputs(self, k: int) -> list[Input]:
        return self.order

    def run(self, item: Input) -> list[dict]:
        entry = self.entries[item.name]
        system = mr.parse_system(item.text)
        if entry.expected == "error":
            row = {"input": item.name, "outcome": "error", "kind": None, "verified": False,
                   "digest": None}
            t0 = time.perf_counter()
            try:
                _, decided = timed(mr.decide_uniform_recurrence, system)
                row.update(calls={"decide": decided}, status="failed",
                           detail="expected an error, got a verdict")
            except mr.MorphrecError as e:
                row["calls"] = {"decide": (t0, time.perf_counter())}
                want = EXPECTED_ERRORS[item.name]
                if type(e).__name__ == want:
                    row["status"] = "expected-error"
                else:
                    row.update(status="failed", detail=f"expected {want}, got {type(e).__name__}")
        else:
            verdict, decided = timed(mr.decide_uniform_recurrence, system)
            row = _verdict_row(item, system, verdict, decided)
            want = {"ur": mr.UNIFORMLY_RECURRENT, "not-ur": mr.NOT_UNIFORMLY_RECURRENT}
            if verdict.outcome != want[entry.expected]:
                row.update(status="failed", detail=f"expected {entry.expected}")
            elif entry.certificate is not None and row["kind"] != entry.certificate:
                row.update(status="failed", detail=f"expected a {entry.certificate} certificate")
        return [row]


def _draw(rng: random.Random, letters: int) -> dict[str, list[str]]:
    """sigma(a) = a... of length 2-3, the other images of 1-3 letters."""
    alphabet = "abc"[:letters]
    images = {"a": ["a"] + [rng.choice(alphabet) for _ in range(rng.randint(1, 2))]}
    for c in alphabet[1:]:
        images[c] = [rng.choice(alphabet) for _ in range(rng.randint(1, 3))]
    return images


def draw_class(letter_sets: dict[str, frozenset]) -> tuple[str, frozenset]:
    """(kind, letters a reaches).  kind is 'one' when a reaches only itself,
    'primitive' when sigma is primitive on the letters a reaches, else
    'other'.  Depends only on which letters each image holds."""
    reach, frontier = {"a"}, ["a"]
    while frontier:
        for d in letter_sets[frontier.pop()]:
            if d not in reach:
                reach.add(d)
                frontier.append(d)
    if reach == {"a"}:
        return "one", frozenset(reach)
    letters = sorted(reach)
    step = [[r in letter_sets[c] for c in letters] for r in letters]
    power = step
    for _ in range(len(letters) ** 2):  # Wielandt: (n-1)^2 + 1 steps suffice
        if all(all(row) for row in power):
            return "primitive", frozenset(reach)
        power = [
            [any(power[i][k] and step[k][j] for k in range(len(letters)))
             for j in range(len(letters))]
            for i in range(len(letters))
        ]
    return "other", frozenset(reach)


def stratum_weights(letters: int, coded: bool) -> dict[tuple, float]:
    """Exact probability under _draw of each stratum (kind, number of letters
    a reaches, coding constant on them or None), by enumerating the letter
    sets of the images.  A coding constant on the reached letters makes
    x = 0^w or 1^w, the family that ROADMAP item 2 is about."""
    alphabet = "abc"[:letters]

    def set_dist(lengths, prefix=()):
        dist: dict[frozenset, float] = {}
        for n in lengths:
            for w in itertools.product(alphabet, repeat=n):
                key = frozenset(prefix + w)
                dist[key] = dist.get(key, 0.0) + 1 / len(lengths) / letters**n
        return dist

    firsts = set_dist((1, 2), ("a",)).items()
    others = set_dist((1, 2, 3)).items()
    weights: dict[tuple, float] = {}

    def add(key, w):
        weights[key] = weights.get(key, 0.0) + w

    for combo in itertools.product(firsts, *[others] * (letters - 1)):
        kind, reach = draw_class({c: s for c, (s, _) in zip(alphabet, combo)})
        w = math.prod(p for _, p in combo)
        if not coded:
            add((kind, len(reach), None), w)
            continue
        constant = 2.0 ** (1 - len(reach))  # 2 of the 2^|reach| codings on them
        add((kind, len(reach), True), w * constant)
        if constant < 1:
            add((kind, len(reach), False), w * (1 - constant))
    return weights


def _allocate(total: int, weights: dict) -> dict:
    """Split total by weights, largest remainders first."""
    exact = {k: total * w for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[: total - sum(counts.values())]:
        counts[k] += 1
    return counts


def system_text(images: dict[str, list[str]], coding: dict[str, str] | None) -> str:
    lines = [f"alphabet: {' '.join(images)}", "start: a"]
    if coding:
        lines.append("target: 0 1")
    lines.append("sigma:")
    lines.extend(f"{c} -> {' '.join(w)}" for c, w in images.items())
    if coding:
        lines.append("phi:")
        lines.extend(f"{c} -> {v}" for c, v in coding.items())
    return "\n".join(lines) + "\n"


class Random(Workload):
    """Each pass is a fresh block of RANDOM_PASS draws: a quarter each with 2
    and 3 letters, with and without a 0/1 coding (so a coding with
    probability 1/2), and within each quarter every stratum of
    stratum_weights in its exact proportion.  Drawing whole strata removes
    most of the run-to-run spread that the mix of cheap and slow strata
    would otherwise bring; each draw is still uniform within its stratum.
    Counts are rounded by largest remainders, and every stratum gets at
    least one draw per pass."""

    name = "random"

    def __init__(self, seed: int, speedo):
        self.seed = seed
        self.speedo = speedo
        self.blocks: dict[int, list[Input]] = {}
        self.counts = {
            (n, coded): _allocate(RANDOM_PASS // 4, stratum_weights(n, coded))
            for n in (2, 3)
            for coded in (False, True)
        }
        self.pass_inputs(0)

    def pass_inputs(self, k: int) -> list[Input]:
        if k not in self.blocks:
            rng = random.Random(f"{self.seed}/{k}")
            texts = []
            for (n, coded), counts in self.counts.items():
                for (kind, size, constant), count in counts.items():
                    for _ in range(count):
                        texts.append(self._draw_in(rng, n, kind, size, constant))
            rng.shuffle(texts)
            self.blocks[k] = [Input(f"r{k}.{i}", t) for i, t in enumerate(texts)]
            for item in self.blocks[k]:
                mr.parse_system(item.text)
        return self.blocks[k]

    @staticmethod
    def _draw_in(rng, n, kind, size, constant) -> str:
        """A draw from the stratum, by rejection."""
        while True:
            images = _draw(rng, n)
            got, reach = draw_class({c: frozenset(w) for c, w in images.items()})
            if (got, len(reach)) == (kind, size):
                break
        if constant is None:
            return system_text(images, None)
        while True:
            coding = {c: rng.choice("01") for c in images}
            if (len({coding[c] for c in reach}) == 1) == constant:
                return system_text(images, coding)

    def run(self, item: Input) -> list[dict]:
        system = mr.parse_system(item.text)
        t0 = time.perf_counter()
        try:
            verdict, decided = timed(mr.decide_uniform_recurrence, system,
                                     limit=self.speedo.limit(CALL_LIMIT_S))
            row = _verdict_row(item, system, verdict, decided, self.speedo)
        except CallTimeout as e:
            row = {"input": item.name, "outcome": None, "kind": None, "verified": False,
                   "calls": {"decide": e.interval}, "digest": None,
                   "status": "timeout", "detail": "decide"}
        except Exception as e:  # noqa: BLE001 - any crash on a random draw is a finding
            row = {"input": item.name, "outcome": None, "kind": None, "verified": False,
                   "calls": {"decide": (t0, time.perf_counter())}, "digest": None,
                   "status": "failed", "detail": f"{type(e).__name__}: {e}"}
        row["text"] = item.text
        return [row]


class Inspect(Workload):
    name = "inspect"

    def __init__(self, seed: int, speedo):
        texts = {n: catalog.get(n).text for n in catalog.PRIMITIVE_CORPUS}
        for text in texts.values():
            mr.parse_system(text)
        self.order = [Input(n, texts[n]) for n in _seeded_order(texts, seed)]

    def pass_inputs(self, k: int) -> list[Input]:
        return self.order

    def run(self, item: Input) -> list[dict]:
        rows = []

        def call(label, fn, *args, summary=None, **kwargs):
            result, interval = timed(fn, *args, **kwargs)
            rows.append({
                "input": f"{item.name}:{label}",
                "outcome": "ok",
                "calls": {label: interval},
                "digest": digest(summary(result) if summary else result),
                "status": "ok",
            })
            return result

        system = call("parse", mr.parse_system, item.text, summary=mr.system_to_text)
        inc = call("incidence", mr.incidence, system.sigma, summary=lambda s: s.matrix)
        blocks = call("block_decomposition", mr.block_decomposition, inc,
                      summary=lambda b: (b.blocks, b.flags, b.closed, b.r_sigma))
        p, q = call("pq_constants", mr.pq_constants, inc)
        sheet = call("constant_sheet", mr.compute_constant_sheet, system,
                     summary=lambda s: s.to_json_dict())
        y = call("prefix", mr.prefix, system, max(PREFIX_LENGTHS), "y")
        tables = {}
        for n in PREFIX_LENGTHS:
            sub = call(f"return_substitution.{n}", mr.return_substitution, system, y[:n],
                       summary=lambda r: (r.table.words, r.sigma_u.images))
            scanned = call(f"return_words.{n}", mr.return_words_to_word, system, y[:n],
                           which="y", summary=lambda t: (t.words, t.derived_prefix))
            tables[n] = (sub, scanned)
        comp = call("complexity", mr.complexity, system, FACTOR_LEN, "y",
                    summary=lambda c: sorted(c.factors))
        lang = call("factor_language", mr.factor_language, system, FACTOR_LEN, "y",
                    summary=sorted)
        report = call("window_ur_check", mr.window_ur_check, system, WINDOW_FACTOR_MAX,
                      WINDOW_PREFIX, which="y", summary=lambda r: r.worst)
        brute = call("brute_force_return_words", mr.brute_force_return_words, system,
                     y[:3], BRUTE_PREFIX, which="y")

        problems = []
        if blocks.flags != ("primitive",) or not 1 <= p <= q:
            problems.append("a primitive corpus system did not classify as primitive")
        for n, (sub, scanned) in tables.items():
            if set(sub.table.words) != set(scanned.words):
                problems.append(f"return words to y[:{n}]: closed table differs from the scan")
        if comp.count != len(lang) or comp.factors != {
            tuple(system.alphabet.decode(w)) for w in lang
        }:
            problems.append("complexity factors differ from factor_language")
        if sheet.r_value is not None and report.worst[2]["gap"] != sheet.r_value:
            problems.append("R from the constant sheet differs from the observed 2-factor gap")
        if list(brute) != list(tables[3][1].words):
            problems.append("brute-force return words differ from return_words_to_word")
        if problems:
            rows[-1].update(status="failed", detail="; ".join(problems))
        return rows


WORKLOADS = {w.name: w for w in (Catalog, Random, Inspect)}
