#!/usr/bin/env python3
"""morphrec benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; morphrec is imported from its `src/`.  Each
workload runs in a fresh process, closed loop: one input at a time, the next
only after the previous one returned.  The run goes in whole passes (see
workloads.py) and starts another one while it would end, on the last
pass's pace, less than half a pass after `--seconds`.

All times are scaled to a fixed machine speed (see speedo.py); raw wall
times are kept in the rows and summary files.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from spans recorded around
the package's functions (see spans.py), per pass, and the tracing overhead.
An operation is one catalog entry or random draw, decided and verified, or
one library call on inspect.  The end-to-end metrics:

    setup_s        median of 5 set-ups: import morphrec (sympy included) and
                   make the inputs, each in a fresh process
    ops_per_s      operations per second of the timed phase
    op_gmean_ms    geometric mean latency of an operation
    op_tail_ms     mean latency of the slowest tenth of operations (at least 10)
    decided_share  share of operations with a checked result: a verdict whose
                   certificate verified, or an inspect call that passed its check
    rss_p50_mb     median resident memory over the timed phase, sampled with
                   the speedometer

A run whose outputs fail their checks prints "correct": false and exits 1; a
traced run whose exact work counters do not repeat prints no result and
exits 1.  Per-input rows, a summary and the spans are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedo import Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("catalog", "random", "inspect")  # workloads.py imports morphrec, which set-up times
SETUP_SAMPLES = 5  # set-ups per untraced run: this process and 4 probes
RERUN_MAX_MS = 500.0  # inputs re-run to measure tracing overhead and repeatability
EXACT_WORKLOADS = ("catalog", "inspect")  # inputs fixed, so exact counters must repeat
TAIL_SAMPLES = 10  # a tail statistic rests on at least this many samples


def setup(workload: str, seed: int, speedo):
    """Import morphrec (sympy included) and make the inputs; returns the
    workload object and the set-up's wall interval."""
    t0 = time.perf_counter()
    import morphrec

    import workloads

    if not Path(morphrec.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"morphrec was imported from {morphrec.__file__}, not this checkout")
    wl = workloads.WORKLOADS[workload](seed, speedo)
    return wl, (t0, time.perf_counter())


def run_passes(wl, seconds: float, recorder=None):
    """Closed loop over passes; returns rows, passes, the wall interval and,
    when traced, the exact counters of each (pass, input)."""
    rows: list[dict] = []
    counters: dict[tuple[int, str], dict] = {}
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for item in wl.pass_inputs(passes):
            before = recorder.snapshot() if recorder else None
            for r in wl.run(item):
                r["pass"] = passes
                rows.append(r)
            if recorder:
                recorder.close_open()
                after = recorder.snapshot()
                counters[(passes, item.name)] = {k: after[k] - before[k] for k in after}
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break
    return rows, passes, (start, time.perf_counter()), counters


def time_rows(rows, speedo):
    """Turn each row's call intervals into scaled and raw milliseconds."""
    for r in rows:
        calls = r.pop("calls")
        for name, (t0, t1) in calls.items():
            r[f"{name}_ms"] = speedo.scaled(t0, t1) * 1e3
        r["ms"] = sum(r[f"{name}_ms"] for name in calls)
        r["wall_ms"] = sum(t1 - t0 for t0, t1 in calls.values()) * 1e3


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value): p90, or the highest percentile with TAIL_SAMPLES samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    i = max(0, min(-(-9 * n // 10) - 1, n - 1 - TAIL_SAMPLES))
    return (i + 1) / n, xs[i]


def tail_mean(values: list[float]) -> float:
    """Mean of the slowest tenth, and of at least TAIL_SAMPLES values.

    Steadier than a single percentile: on catalog the p90 rule falls on one
    entry of 31, and on random on one draw near the call limit.
    """
    xs = sorted(values, reverse=True)
    return statistics.mean(xs[: max(TAIL_SAMPLES, -(-len(xs) // 10))])


def end_to_end(rows, info) -> dict:
    return {
        "setup_s": (statistics.median(info["setup_samples_s"]), "s"),
        "ops_per_s": (len(rows) / info["scaled_wall_s"], "1/s"),
        "op_gmean_ms": (info["op_gmean_ms"], "ms"),
        "op_tail_ms": (tail_mean([r["ms"] for r in rows]), "ms"),
        "decided_share": (sum(r["status"] in ("decided", "ok") for r in rows) / len(rows), "share"),
        "rss_p50_mb": (info["rss_mb"][1], "MB"),
    }


def summary(rows, passes, speedo, interval) -> dict:
    """Everything a later change may want to compare, beyond the metrics."""
    statuses: dict[str, int] = {}
    kinds: dict[str, int] = {}
    for r in rows:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
        if r.get("kind"):
            kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
    ms = [r["ms"] for r in rows]
    p, value = tail_percentile(ms)
    rss = [m for t, m in zip(speedo.starts, speedo.rss_mb) if interval[0] <= t <= interval[1]]
    return {
        "passes": passes,
        "ops": len(rows),
        "scaled_wall_s": speedo.scaled(*interval),
        "wall_s": interval[1] - interval[0],
        "slowdown": speedo.slowdown(),
        "decide_s": sum(r.get("decide_ms", 0.0) for r in rows) / 1e3,
        "verify_s": sum(r.get("verify_ms", 0.0) for r in rows) / 1e3,
        "failed_share": (statuses.get("failed", 0) + statuses.get("timeout", 0)) / len(rows),
        "op_p50_ms": statistics.median(ms),
        "op_gmean_ms": statistics.geometric_mean(max(x, 1e-6) for x in ms),
        "tail_percentile": {"p": p, "ms": value, "samples": len(rows)},
        "rss_mb": statistics.quantiles(rss, n=4, method="inclusive"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "statuses": statuses,
        "certificates": kinds,
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "morphrec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_repeats(workload: str, counters: dict, rerun: dict) -> list[str]:
    """Exact counters must repeat: across passes of this run, on the re-run
    inputs, and across runs of the same source (kept in out/counters.json)."""
    first = {name: c for (k, name), c in counters.items() if k == 0}
    problems = [
        f"pass {k} {name}: {c} != {first[name]}"
        for (k, name), c in counters.items()
        if c != first[name]
    ]
    problems += [f"re-run {name}: {c} != {first[name]}" for name, c in rerun.items()
                 if c != first[name]]
    state_file = OUT / "counters.json"
    state = json.loads(state_file.read_text()) if state_file.exists() else {}
    seen = state.setdefault(source_digest(), {}).setdefault(workload, {})
    problems += [f"earlier run {name}: {c} != {seen[name]}" for name, c in first.items()
                 if name in seen and seen[name] != c]
    if not problems:
        seen.update(first)
        state_file.write_text(json.dumps(state, sort_keys=True))
    return problems


def rerun_plain_and_traced(wl, rows, recorder_cls):
    """Run the cheap first-pass inputs again, untraced and then traced.

    Returns each side's wall intervals per input, with None where a call
    timed out, and the traced side's exact counters.
    """
    per_input: dict[str, list[dict]] = {}
    for r in rows:
        if r["pass"] == 0:
            per_input.setdefault(r["input"].split(":", 1)[0], []).append(r)

    def wall_s(name):
        return sum(t1 - t0 for r in per_input[name] for t0, t1 in r["calls"].values())

    items = [
        item for item in wl.pass_inputs(0)
        if all(r["status"] != "timeout" for r in per_input[item.name])
        and wall_s(item.name) <= RERUN_MAX_MS / 1e3
    ]

    def once(item):
        t0 = time.perf_counter()
        out = wl.run(item)
        return (t0, time.perf_counter()) if all(r["status"] != "timeout" for r in out) else None

    plain = {item.name: once(item) for item in items}
    recorder = recorder_cls()
    recorder.install()
    traced, counters = {}, {}
    try:
        for item in items:
            before = recorder.snapshot()
            traced[item.name] = once(item)
            recorder.close_open()
            after = recorder.snapshot()
            counters[item.name] = {k: after[k] - before[k] for k in after}
    finally:
        recorder.uninstall()
    return plain, traced, counters


def run(args) -> int:
    speedo = Speedometer()
    speedo.start()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe = subprocess.run(
                    [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
                     "--seed", str(args.seed)],
                    capture_output=True, text=True, timeout=120, check=True,
                )
                setups.append(float(probe.stdout.split()[-1]))
        wl, setup_interval = setup(args.workload, args.seed, speedo)
        recorder = None
        if args.trace:
            import spans

            recorder = spans.Recorder()
            recorder.install()
        try:
            rows, passes, timed_interval, counters = run_passes(wl, args.seconds, recorder)
        finally:
            if recorder:
                recorder.uninstall()
        if args.trace:
            plain, traced, rerun_counters = rerun_plain_and_traced(wl, rows, spans.Recorder)
    finally:
        speedo.stop()
    setups.append(speedo.scaled(*setup_interval))
    time_rows(rows, speedo)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"rows-{tag}.jsonl", "w") as f:
        for r in rows:
            f.write(json.dumps(r, sort_keys=True) + "\n")
    info = summary(rows, passes, speedo, timed_interval)
    info["setup_samples_s"] = setups
    failed = info["statuses"].get("failed", 0)

    if args.trace:
        metrics = recorder.metrics(passes, speedo.scaled)
        both = [n for n in plain if plain[n] and traced[n]]
        metrics["trace.overhead"] = (
            sum(speedo.scaled(*traced[n]) for n in both)
            / sum(speedo.scaled(*plain[n]) for n in both) if both else 1.0,
            "ratio",
        )
        metrics["memory.peak_rss_mb"] = (info["peak_rss_mb"], "MB")
        (OUT / f"spans-{tag}.json").write_text(json.dumps(recorder.spans))
        if args.workload in EXACT_WORKLOADS:
            problems = check_repeats(args.workload, counters, rerun_counters)
            if problems:
                print("exact counters did not repeat:", *problems[:20], sep="\n  ", file=sys.stderr)
                return 1
    else:
        metrics = end_to_end(rows, info)
    info["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"summary-{tag}.json").write_text(json.dumps(info, indent=1, sort_keys=True))

    for r in rows:
        if r["status"] == "failed":
            print(f"FAILED {r['input']}: {r.get('detail')}", file=sys.stderr)
    print(f"{args.workload}: {info['ops']} ops in {passes} pass(es), {info['wall_s']:.1f} s "
          f"wall, slowdown {info['slowdown']:.2f}, statuses {info['statuses']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def setup_probe(args) -> int:
    speedo = Speedometer()
    speedo.start()
    try:
        _, interval = setup(args.workload, args.seed, speedo)
    finally:
        speedo.stop()
    print(speedo.scaled(*interval))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after the other."""
    code = 0
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        print(proc.stdout.rstrip().rsplit("\n", 1)[0] if proc.stdout else f"{w}: no output")
        if proc.returncode != 0:
            print(f"{w}: exit code {proc.returncode}")
            code = 1
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "morphrec" / "__init__.py").is_file():
        print(f"morphrec sources not found under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
