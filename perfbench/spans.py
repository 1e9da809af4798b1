"""Span recorder for the traced run, installed from outside the package.

Each public function of interest is replaced, in every morphrec module that
holds a reference to it, by a wrapper that records a span (name, start, end,
parent).  Callers inside the package look names up in their own module's
globals, so a function is wrapped where callers look it up: the driver as
`morphrec.decider.build_sigma_U`, not only as `morphrec.returns.build_sigma_U`.
The two hottest leaf calls, Morphism.apply and occurrences_in_word, only
count work: a span per call would cost more than the call.

Spans stay in memory and are written once, when the run ends.  A layer's
self time is its spans' time minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module defining the name, attribute, span name).  The layer is the part of
# the span name before the dot.
SPANNED = (
    ("morphrec.system", "parse_system", "system.parse"),
    ("morphrec.system", "restrict_to_reachable", "system.restrict"),
    ("morphrec.system", "normalize_to_coding", "system.normalize"),
    ("morphrec.growth", "incidence", "growth.incidence"),
    ("morphrec.growth", "block_decomposition", "growth.block"),
    ("morphrec.growth", "is_primitive", "growth.primitive"),
    ("morphrec.growth", "pq_constants", "growth.pq"),
    ("morphrec.morphism", "power", "morphism.power"),
    ("morphrec.stream", "FixedPointStream.prefix_chars", "stream.prefix"),
    ("morphrec.stream", "FixedPointStream.scan_occurrences", "stream.scan"),
    ("morphrec.stream", "complexity", "stream.complexity"),
    ("morphrec.stream", "factor_language", "stream.factor_language"),
    ("morphrec.returns", "build_sigma_U", "returns.driver"),
    ("morphrec.returns", "return_substitution", "returns.return_substitution"),
    ("morphrec.returns", "return_words_to_word", "returns.return_words"),
    ("morphrec.constants", "compute_constant_sheet", "constants.sheet"),
    ("morphrec.constants", "compute_R_sigma", "constants.R"),
    ("morphrec.constants", "compute_K", "constants.K"),
    ("morphrec.decider", "decide_uniform_recurrence", "decider.decide"),
    ("morphrec.decider", "verify_certificate", "decider.verify"),
    ("morphrec.decider", "prepare", "decider.prepare"),
    ("morphrec.decider", "resolve_periodicity", "decider.periodicity"),
    ("morphrec.decider", "pure_period_check", "decider.periodicity"),
    ("morphrec.decider", "periodic_checklist", "decider.periodicity"),
    ("morphrec.oracle", "window_ur_check", "oracle.window"),
    ("morphrec.oracle", "brute_force_return_words", "oracle.brute"),
)

ROOTS = ("decide", "verify")  # returns.* driver metrics are split by these root spans

# Counters that must repeat exactly when the same input runs again.
EXACT = ("morphism.letters_out", "words.occ_scanned", "returns.driver_calls", "returns.pairs")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.max_u_len: dict[str, int] = defaultdict(int)
        self._undo: list = []
        self._driver_exit = ()  # morphrec.returns.DriverExit, once installed

    # -- recording -------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(args, kwargs, result)

        return wrapper

    def _after_driver(self, args, kwargs, result):
        """Driver work by root span: a call raising BudgetExhausted or a timeout
        counts as a call with neither pairs nor an exit."""
        root = self._root_name(self.stack[-1]) if self.stack else "other"
        self.counts[f"returns.driver_calls.{root}"] += 1
        self.counts["returns.driver_calls"] += 1
        u = kwargs["u"] if "u" in kwargs else args[1]
        key = f"returns.max_u_len.{root}"
        self.max_u_len[key] = max(self.max_u_len[key], len(u))
        if isinstance(result, self._driver_exit):
            self.counts[f"returns.exits.{root}"] += 1
        elif result is not None:  # None when the driver raised
            pairs = result.pairs
            self.counts[f"returns.pairs.{root}"] += len(pairs)
            self.counts["returns.pairs"] += len(pairs)

    # -- installing --------------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind every morphrec module global that refers to `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "morphrec" or mod_name.startswith("morphrec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self):
        """Wrap every name in SPANNED.  A name the package no longer has is
        skipped, and its metrics read 0."""
        self._driver_exit = getattr(sys.modules["morphrec.returns"], "DriverExit", ())
        for mod_name, attr, name in SPANNED:
            owner = sys.modules[mod_name]
            after = self._after_driver if name == "returns.driver" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._replace_method(cls, meth, self._spanned(name, cls.__dict__[meth], after))
            elif hasattr(owner, attr):
                fn = getattr(owner, attr)
                self._replace_everywhere(fn, self._spanned(name, fn, after))

        counts = self.counts
        morphism = sys.modules["morphrec.morphism"]
        apply = morphism.Morphism.apply

        def counted_apply(self_, word):
            out = apply(self_, word)
            counts["morphism.apply_calls"] += 1
            counts["morphism.letters_out"] += len(out)
            return out

        self._replace_method(morphism.Morphism, "apply", counted_apply)

        occurrences = sys.modules["morphrec.words"].occurrences_in_word

        def counted_occurrences(word, pattern):
            out = occurrences(word, pattern)
            counts["words.occ_calls"] += 1
            counts["words.occ_scanned"] += len(word)
            counts["words.occ_hits"] += len(out)
            return out

        self._replace_everywhere(occurrences, counted_occurrences)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -------------------------------------------------------------------

    def close_open(self):
        """End the spans a timeout left on the stack by striking inside a
        wrapper's own code."""
        now = time.perf_counter()
        for idx in self.stack:
            if self.spans[idx][2] == 0.0:
                self.spans[idx][2] = now
        self.stack.clear()

    def snapshot(self) -> dict:
        return {k: self.counts[k] for k in EXACT}

    def metrics(self, passes: int, scaled) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per pass: self times in s and counts.

        scaled(start, end) turns a span's wall interval into seconds.
        """
        durations = [scaled(start, end) for _, start, end, _ in self.spans]
        own = list(durations)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                own[parent] -= d
        self_time: Counter = Counter()
        total: Counter = Counter()
        for i, (name, _, _, parent) in enumerate(self.spans):
            self_time[name] += own[i]
            self_time["layer." + name.split(".")[0]] += own[i]
            if name == "returns.driver":
                self_time["returns.driver." + self._root_name(i)] += own[i]
            if parent < 0:
                total[name] += durations[i]

        out: dict[str, tuple[float, str]] = {
            "decider.decide_s": (total["decider.decide"] / passes, "s"),
            "decider.verify_s": (total["decider.verify"] / passes, "s"),
            "decider.self_s": (
                (self_time["decider.decide"] + self_time["decider.verify"]) / passes, "s"
            ),
        }
        for name in dict.fromkeys(name for _, _, name in SPANNED):
            if name not in ("decider.decide", "decider.verify"):
                out[name + "_s"] = (self_time[name] / passes, "s")
        for root in ROOTS:
            out[f"returns.driver_s.{root}"] = (self_time["returns.driver." + root] / passes, "s")
            for key in ("returns.driver_calls", "returns.pairs", "returns.exits"):
                out[f"{key}.{root}"] = (self.counts[f"{key}.{root}"] / passes, "count")
            key = f"returns.max_u_len.{root}"
            out[key] = (self.max_u_len[key], "count")
        for key in ("morphism.letters_out", "morphism.apply_calls", "words.occ_scanned",
                    "words.occ_hits", "words.occ_calls"):
            out[key] = (self.counts[key] / passes, "count")
        for layer in dict.fromkeys(name.split(".")[0] for _, _, name in SPANNED):
            out[f"layer.{layer}_self_s"] = (self_time["layer." + layer] / passes, "s")
        out["trace.spans"] = (len(self.spans) / passes, "count")
        return out

    def _root_name(self, idx: int) -> str:
        """'decide' or 'verify' for a span under those calls, else 'other'."""
        while self.spans[idx][3] >= 0:
            idx = self.spans[idx][3]
        root = self.spans[idx][0]
        return root.split(".")[1] if root in ("decider.decide", "decider.verify") else "other"
