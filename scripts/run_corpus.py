#!/usr/bin/env python3
"""Run the decision pipeline over the whole built-in catalog.

For every entry: decide, re-verify the certificate, compare the outcome and
certificate kind against the catalog's expectations, and print one row with
timing and, in the last column, the power sigma was driven at for a
repetition certificate, the positivity_power of a primitive one (the power
of the staged incidence matrix that is positive) or the source of a
periodic one (the stage that confirmed the period; "-" for other
certificates).  Exits nonzero when anything mismatches, so this doubles as
a slow end-to-end check.
"""

import argparse
import sys
import time

from morphrec.catalog import entries
from morphrec.decider import decide_uniform_recurrence, verify_certificate
from morphrec.errors import MorphrecError
from morphrec.returns import WORK_BUDGET


def run(names: list[str] | None, budget: int) -> int:
    failures = []
    rows = []
    selected = [e for e in entries() if names is None or e.name in names]
    for entry in selected:
        t0 = time.perf_counter()
        try:
            system = entry.build()
            verdict = decide_uniform_recurrence(system, work_budget=budget)
        except MorphrecError as e:
            dt = time.perf_counter() - t0
            if entry.expected == "error":
                rows.append((entry.name, f"error: {type(e).__name__}", "-", "ok", dt, "-"))
            else:
                rows.append((entry.name, f"error: {type(e).__name__}", "-", "MISMATCH", dt, "-"))
                failures.append(f"{entry.name}: unexpected {type(e).__name__}: {e}")
            continue
        dt = time.perf_counter() - t0

        kind = verdict.certificate.kind if verdict.certificate else "-"
        cert_data = verdict.certificate.data if verdict.certificate else {}
        field = {"periodic": "source", "primitive": "positivity_power"}.get(kind, "power")
        power_or_source = cert_data.get(field, "-")
        outcome_ok = {
            "ur": verdict.outcome == "uniformly_recurrent",
            "not-ur": verdict.outcome == "not_uniformly_recurrent",
            "error": False,
        }[entry.expected]
        kind_ok = entry.certificate is None or kind == entry.certificate
        verified, detail = verify_certificate(system, verdict)
        status = "ok"
        if not outcome_ok:
            status = "MISMATCH"
            failures.append(f"{entry.name}: expected {entry.expected}, got {verdict.outcome}")
        elif not kind_ok:
            status = "MISMATCH"
            failures.append(f"{entry.name}: expected {entry.certificate}, got {kind}")
        elif not verified:
            status = "MISMATCH"
            failures.append(f"{entry.name}: certificate failed verification: {detail}")
        rows.append((entry.name, verdict.outcome, kind, status, dt, power_or_source))

    name_w = max([len("name")] + [len(r[0]) for r in rows])
    out_w = max([len("outcome")] + [len(r[1]) for r in rows])
    kind_w = max([len("certificate")] + [len(r[2]) for r in rows])
    print(f"{'name'.ljust(name_w)}  {'outcome'.ljust(out_w)}  {'certificate'.ljust(kind_w)}  "
          f"{'status'.ljust(8)}  {'time'.rjust(7)}  power/source")
    for name, outcome, kind, status, dt, power_or_source in rows:
        print(f"{name.ljust(name_w)}  {outcome.ljust(out_w)}  {kind.ljust(kind_w)}  "
              f"{status.ljust(8)}  {dt:6.2f}s  {power_or_source}")
    print(f"\n{len(rows)} entries, {len(failures)} mismatch(es)")
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("names", nargs="*", help="catalog entries to run (default: all)")
    ap.add_argument("--budget", type=int, default=WORK_BUDGET)
    args = ap.parse_args()
    return run(args.names or None, args.budget)


if __name__ == "__main__":
    sys.exit(main())
