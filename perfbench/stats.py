#!/usr/bin/env python3
"""Steadiness check and two-commit comparison for perfbench/run.py.

    python3 perfbench/stats.py steady [--workload W ...]
    python3 perfbench/stats.py compare --base DIR --head DIR [--workload W ...]

``steady`` runs SETS sets of SEEDS runs per workload on this checkout, each
run with its own seed (set 1 uses seeds 1..10, set 2 seeds 11..20).  Per
set and end-to-end metric it prints the values, their median and the
interquartile spread as a share of the median.  It passes when every run is
correct, every spread stays within the metric's bound from BENCHMARK.json,
and the median of the second set differs from the first set's by no more
than the bound, either way.  A spread under a third of its bound is
reported as steady.

``compare`` runs PAIRS pairs (seed i for pair i), alternating which of two
checkouts goes first.  Per workload it first checks the outcomes: the head
regresses when a run of it is not correct, fails a larger share of its ops
than the base on the same seed, or prints another exact-output digest.
Then per metric it prints both medians and quartiles, the pairs the head
won, and a verdict: "gain" when the head won at least 9/10 of the pairs and
the medians differ by more than the base's own quartile spread,
"regression" when the head's median is worse by more than the bound,
"unresolved" when the base's spread exceeds the bound, and "same"
otherwise.  It exits 1 when it finds a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 10       # runs per set in ``steady``
SETS = 2
PAIRS = 10       # base/head pairs in ``compare``
DIGEST_LINE = "exact output sha256"


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(root: str, spec: dict, workload: str, seed: int) -> dict:
    """One untraced run: its JSON result plus the exact-output digest that
    the report prints (None on float workloads)."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split()[-1] for ln in lines
                             if ln.startswith(DIGEST_LINE)), None)
    result["values"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def outcome_regressions(base: dict, head: dict) -> list[str]:
    """Why the head's run is worse in outcome than the base's on the same
    seed, whatever the timings say; empty when it is not."""
    share = lambda r: r["failed"] / r["attempted"]  # noqa: E731
    return [text for cond, text in (
        (not head["correct"], "head run not correct"),
        (share(head) > share(base), f"head failed {head['failed']}/{head['attempted']} ops, "
                                    f"base {base['failed']}/{base['attempted']}"),
        (head["digest"] != base["digest"], "exact-output digest changed")) if cond]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse head is than base, as a share of base (negative: better)."""
    if not base:
        return 0.0
    return (head - base) / abs(base) if better == "lower" else (base - head) / abs(base)


def steady(workloads: list[str], spec: dict) -> int:
    root = os.path.dirname(HERE)
    ok = True
    for workload in workloads:
        sets = [[run_once(root, spec, workload, seed)
                 for seed in range(s * SEEDS + 1, (s + 1) * SEEDS + 1)]
                for s in range(SETS)]
        print(f"{workload}:")
        for s, runs in enumerate(sets):
            bad = [seed for seed, r in enumerate(runs, s * SEEDS + 1) if not r["correct"]]
            ok &= not bad
            if bad:
                print(f"  set {s + 1}: NOT CORRECT on seeds {bad}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                vals = [r["values"][name] for r in runs]
                sp = spread(vals)
                meds.append(statistics.median(vals))
                verdict = ("steady" if sp < bound / 3 else "within bound" if sp <= bound
                           else "TOO WIDE")
                ok &= verdict != "TOO WIDE"
                print(f"  set {s + 1} {name:<16} median {meds[-1]:.6g} {m['unit']:<6} "
                      f"spread {sp:.4f} (bound {bound}) {verdict}  "
                      f"[{', '.join(f'{v:.4g}' for v in vals)}]")
            for s in range(1, len(meds)):
                w = worse_by(meds[0], meds[s], m["better"])
                good = abs(w) <= bound
                ok &= good
                print(f"  set {s + 1} vs set 1 {name:<16} worse by {w:+.4f} "
                      f"{'ok' if good else 'EXCEEDS BOUND'}")
    print("agree within bounds" if ok else "DO NOT agree within bounds")
    return 0 if ok else 1


def compare(workloads: list[str], base_root: str, head_root: str, spec: dict) -> int:
    regressed = False
    for workload in workloads:
        base, head = [], []
        for i in range(PAIRS):
            order = [(base_root, base), (head_root, head)]
            if i % 2:
                order.reverse()
            for root, acc in order:
                acc.append(run_once(root, spec, workload, i + 1))
        print(f"{workload} ({PAIRS} pairs):")
        # Outcomes first: no timing makes up for a wrong or changed result.
        for seed, (b, h) in enumerate(zip(base, head), 1):
            why = outcome_regressions(b, h)
            if why:
                regressed = True
                print(f"  seed {seed}: regression: {'; '.join(why)}")
        for m in spec["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            b = [r["values"][name] for r in base]
            h = [r["values"][name] for r in head]
            won = sum(worse_by(x, y, better) < 0 for x, y in zip(b, h))
            bq, hq = quartiles(b), quartiles(h)
            diff = worse_by(bq[1], hq[1], better)
            if won >= 0.9 * PAIRS and -diff * abs(bq[1]) > bq[2] - bq[0]:
                verdict = "gain"
            elif diff > bound:
                verdict = "regression"
                regressed = True
            elif spread(b) > bound and not all(worse_by(x, y, better) < 0
                                               for x in b for y in h):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:<16} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"head {hq[1]:.6g} [{hq[0]:.6g}, {hq[2]:.6g}] {m['unit']}  "
                  f"head won {won}/{PAIRS}  {verdict}")
    return 1 if regressed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    st = sub.add_parser("steady")
    st.add_argument("--workload", action="append")
    co = sub.add_parser("compare")
    co.add_argument("--base", required=True, help="checkout of the parent commit")
    co.add_argument("--head", required=True, help="checkout of the change")
    co.add_argument("--workload", action="append")
    args = ap.parse_args()
    spec = load_spec(os.path.dirname(HERE) if args.cmd == "steady" else args.head)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    if args.cmd == "steady":
        return steady(workloads, spec)
    return compare(workloads, args.base, args.head, spec)


if __name__ == "__main__":
    sys.exit(main())
