#!/usr/bin/env python3
"""Seeded end-to-end benchmark for ``dkit analyze|solve|causality``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; dkit is imported from ``src/``.  The run
generates planted systems from the seed, calls ``dkit.cli.main(argv)`` on
each file in this one process (a closed loop: one client, one op at a time,
no threads), gates every output against its plant outside the timed region
and prints a report.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Times are wall times scaled to a reference machine speed (clock.py); the
report also prints them unscaled.

Ops come in rounds: a round is a fixed, seeded mix of sizes and plant kinds,
so every run measures the same mix.  A run does round(S / nominal round
time) whole rounds (half as many when traced), at least MIN_ROUNDS, and
stops early after 4 S.  See perfbench/README.md for the workloads, metrics
and how to compare commits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COLD_START_FILE = os.path.join(HERE, "cold_start.json")
COLD_STARTS = 16
MIN_ROUNDS = 2
TAIL_BEYOND = 10
KINDS = ("generic", "state_causal", "output_causal_only")
ORACLE_TRIALS = 3

sys.path.insert(0, HERE)
import gate  # noqa: E402
import plant  # noqa: E402
from clock import BARE_START, K_REF, START_REF, kernel_seconds  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str          # "exact" or "float"
    command: str       # analyze | solve | causality
    round: tuple       # make_plant keyword sets, one per op of a round
    round_s: float     # nominal seconds per round on a 2-core x86 box
    cap_s: float       # per-op wall-clock cap


# Each round lists (n, shape[, options]) per op; a shape is (Jordan groups,
# nilpotent block sizes) and a Jordan group is the block sizes of one
# eigenvalue.  Shapes are fixed so that the seed moves values, not the amount
# of work; the kinds of plant rotate over the ops of a round.

def _ops(*entries, **common) -> tuple:
    out = []
    for n, shape, *extra in entries:
        out.append(dict(n=n, shape=shape, **common, **(extra[0] if extra else {})))
    return tuple(out)


WIDE = {"wide": True}

WORKLOADS = {w.name: w for w in (
    # Per round of 10: four n = 8, two n = 12, three wide-spectrum n = 16
    # and one n = 20.  Over whole rounds the median falls mid-way through
    # the n = 12 ops and the tail (10 samples beyond) mid-way through the
    # wide n = 16 ops, so neither sits on the edge between two groups; one
    # shape per group keeps each group's cost unimodal.
    Workload("exact-analyze", "exact", "analyze", _ops(
        (8, (((2, 1), (1,)), (3, 1))),
        (8, (((3,), (2,)), (2, 1))),
        (8, (((2, 1), (1,)), (3, 1))),
        (8, (((3,), (2,)), (2, 1))),
        (12, (((2, 1), (2,), (1,)), (3, 2, 1))),
        (12, (((2, 1), (2,), (1,)), (3, 2, 1))),
        (16, (((3,), (2, 2), (2,)), (4, 2, 1)), WIDE),
        (16, (((3,), (2, 2), (2,)), (4, 2, 1)), WIDE),
        (16, (((3,), (2, 2), (2,)), (4, 2, 1)), WIDE),
        (20, (((3, 2), (3,), (1, 1)), (4, 3, 2, 1)))), 5.3, 120.0),
    # Three of the four growth eigenvalues per system, so every op mixes
    # growing numerators and denominators.  Per round of 20: eight 100-step,
    # four 200-step, six 300-step, one 500-step and one 1000-step solve.
    # Over two rounds the median is the middle of the eight 200-step ops and
    # the tail (p75, 10 samples beyond) the middle of the twelve 300-step ones.
    Workload("exact-solve", "exact", "solve", tuple(
        dict(n=8, shape=(((2,), (1,), (1,)), (3, 1)), palette=plant.GROWTH_PALETTE,
             horizon=h) for h in (100,) * 8 + (200,) * 4 + (300,) * 6 + (500, 1000)),
        12.5, 120.0),
    Workload("exact-oracle", "exact", "causality", _ops(
        (6, (((2,), (1,)), (2, 1))),
        (7, (((2,), (1,), (1,)), (2, 1))),
        (8, (((2, 1), (1,)), (3, 1))),
        (9, (((2,), (2,), (1,)), (3, 1))),
        (10, (((3,), (2,), (1,)), (3, 1))), kind="state_causal"), 0.8, 60.0),
    Workload("float-analyze", "float", "analyze", _ops(
        (4, (((1,), (1,)), (2,))),
        (4, (((2,),), (1, 1))),
        (4, (((1,),), (2, 1))),
        (6, (((1,), (1,), (1,)), (2, 1))),
        (6, (((2,), (1,)), (3,))),
        (6, (((2,), (2,)), (1, 1))),
        (8, (((1,), (1,), (1,), (1,)), (3, 1))),
        (8, (((2,), (1,), (1,)), (2, 2))),
        (8, (((2, 1), (2,)), (2, 1))),
        (10, (((1,), (1,), (1,), (1,), (1,)), (3, 2))),
        (10, (((2,), (2,), (1,)), (3, 1, 1))),
        (10, (((3,), (2, 1)), (2, 2)))), 0.07, 20.0),
)}


class OverCap(BaseException):
    """Raised by SIGALRM when one op exceeds the workload's wall-clock cap."""


def _alarm(signum, frame):
    raise OverCap()


@dataclass
class OpResult:
    seconds: float     # wall time
    ref_s: float       # wall time at reference speed (clock.py)
    outcome: str       # verified | typed | untyped | wrong | over_cap
    detail: str        # exit code, exception type or gate reason
    output_bytes: int
    sha256: bytes      # of stdout (work dir masked) and the written file
    resid_ratio: float


def plants_for_round(wl: Workload, seed: int, r: int) -> list[plant.Plant]:
    """Round r of a workload: its fixed mix in a seeded order."""
    rng = random.Random(f"{wl.name}:{seed}:{r}")
    specs = [dict(spec) for spec in wl.round]
    for i, spec in enumerate(specs):
        spec.setdefault("kind", KINDS[(i + r) % len(KINDS)])
    rng.shuffle(specs)
    return [plant.make_plant(rng, **spec) for spec in specs]


def command_argv(wl: Workload, path: str, out: str) -> list[str]:
    if wl.command == "analyze":
        argv = ["analyze", path, "--out-json", out]
    elif wl.command == "solve":
        argv = ["solve", path, "--out-csv", out]
    else:
        argv = ["causality", path, "--oracle-trials", str(ORACLE_TRIALS)]
    return argv + (["--mode", "float"] if wl.mode == "float" else [])


def run_op(cli, wl: Workload, pl: plant.Plant, work: str, idx: int) -> OpResult:
    path = os.path.join(work, f"op{idx}.json")
    out = os.path.join(work, f"op{idx}.out")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pl.system_json())
    argv = command_argv(wl, path, out)
    kernel = kernel_seconds()
    stdout, stderr = io.StringIO(), io.StringIO()
    code, detail = None, ""
    signal.setitimer(signal.ITIMER_REAL, wl.cap_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    except OverCap:
        t1 = time.perf_counter()
        outcome, detail = "over_cap", f"> {wl.cap_s} s"
    except Exception as exc:  # the op leaked a non-DkitError exception
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        outcome, detail = "untyped", type(exc).__name__
    text = stdout.getvalue()
    nbytes = len(text.encode()) + len(stderr.getvalue().encode())
    files = b""
    if os.path.exists(out):
        nbytes += os.path.getsize(out)
        with open(out, "rb") as fh:
            files = fh.read()
    ratio = 0.0
    if code is not None:
        detail = f"exit {code}"
        if code != 0:
            outcome = "typed"
        else:
            reason, ratio = judge(wl, pl, text, out)
            outcome, detail = ("wrong", reason) if reason else ("verified", detail)
    for f in (path, out):
        if os.path.exists(f):
            os.remove(f)
    digest = hashlib.sha256(text.replace(work, "<work>").encode() + b"\0" + files).digest()
    return OpResult(t1 - t0, (t1 - t0) * K_REF / kernel, outcome, detail, nbytes, digest,
                    ratio)


def judge(wl: Workload, pl: plant.Plant, stdout: str, out: str) -> tuple[str | None, float]:
    """Gate one exit-0 op: (reason it is wrong or None, float residual ratio)."""
    try:
        if wl.command == "analyze":
            return gate.check_analyze(out, pl.doc, pl.oracle, wl.mode == "exact")
        if wl.command == "solve":
            return gate.check_solve(stdout, out, pl.doc, pl.oracle), 0.0
        return gate.check_causality(stdout, pl.oracle, ORACLE_TRIALS), 0.0
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0.0


def _timed_child(argv: list[str], env: dict, cwd: str, cap_s: float) -> float:
    """Wall seconds of one child process, which must exit 0."""
    # No subprocess timeout: that polls the child in 50 ms steps.  The alarm
    # bounds a hung child instead; subprocess.run kills and reaps it when the
    # alarm's exception passes through.
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=cwd,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: {argv}")
    return wall


def cold_start_seconds(wl: Workload, work: str, count: int) -> list[tuple[float, float]]:
    """(wall, reference-speed) seconds of fresh interpreters, one at a time,
    each running the workload's command once.  Each is scaled by a bare
    interpreter start timed right before it (clock.py)."""
    code = "import sys; from dkit.cli import main; sys.exit(main())"
    env = dict(os.environ, PYTHONPATH=SRC, DKIT_SEED="0")
    argv = command_argv(wl, COLD_START_FILE, os.path.join(work, "cold.out"))
    times = []
    for _ in range(count):
        bare = _timed_child([sys.executable, "-c", BARE_START], env, work, wl.cap_s)
        wall = _timed_child([sys.executable, "-c", code, *argv], env, work, wl.cap_s)
        times.append((wall, wall * START_REF / bare))
    return times


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    s = sorted(samples)
    i = max(0, len(s) - 1 - TAIL_BEYOND)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "dkit", "cli.py")):
        print(f"dkit sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from dkit import cli

    os.environ["DKIT_SEED"] = str(args.seed)
    signal.signal(signal.SIGALRM, _alarm)
    work = os.path.join(HERE, "_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return _run(cli, wl, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cli, wl: Workload, args, work: str) -> int:
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()

    # A traced run executes each op twice, so it does half the rounds.
    rounds = max(MIN_ROUNDS, round(args.seconds / wl.round_s / (2 if tracer else 1)))
    # The cold starts are spread evenly over the loop's ops, so that no one
    # slow spell of the machine sets their median.  Traced runs skip them.
    planned = rounds * len(wl.round)
    cold_at = Counter() if tracer else Counter(
        planned * k // COLD_STARTS for k in range(COLD_STARTS))
    setup: list[tuple[float, float]] = []
    warm = plant.make_plant(random.Random(f"{wl.name}:{args.seed}:warm-up"), **wl.round[0])
    run_op(cli, wl, warm, work, -1)

    results: list[OpResult] = []
    traced: list[OpResult] = []
    digest = hashlib.sha256()
    loop_start = time.perf_counter()
    done_rounds = 0
    for r in range(rounds):
        if r and time.perf_counter() - loop_start > 4 * args.seconds:
            break
        for pl in plants_for_round(wl, args.seed, r):
            # The causality oracle draws its trials from DKIT_SEED; one value
            # per op keeps a run's ops from sharing one set of draws.
            os.environ["DKIT_SEED"] = str(args.seed * 100_000 + len(results))
            setup += cold_start_seconds(wl, work, cold_at[len(results)])
            res = run_op(cli, wl, pl, work, len(results))
            results.append(res)
            if r == 0:
                digest.update(res.sha256)
            if tracer is not None:
                tracer.op = len(traced)
                tracer.install()
                try:
                    traced.append(run_op(cli, wl, pl, work, len(results)))
                finally:
                    tracer.uninstall()
        done_rounds += 1

    if tracer is None:
        # Those the loop did not reach when it stopped early.
        setup += cold_start_seconds(wl, work, COLD_STARTS - len(setup))
    times = [r.ref_s for r in results]
    counts = Counter(r.outcome for r in results)
    attempted = len(results)
    verified = counts["verified"]
    # Exact mode is the referee: one exact op that does not verify makes the
    # run incorrect.  Float mode is approximate, and its wrong structures are
    # counted as failures like its typed and untyped errors.
    correct = wl.mode == "float" or all(r.outcome == "verified" for r in results + traced)

    p50 = statistics.median(times)
    tail_s, tail_pct, beyond = tail(times)
    details = Counter(f"{r.outcome}: {r.detail}" for r in results if r.outcome != "verified")
    print(f"workload {wl.name} seed {args.seed}: {done_rounds} rounds of {len(wl.round)} ops, "
          f"{'traced' if tracer else 'untraced'}")
    print(f"outcomes over {attempted} ops attempted: "
          + ", ".join(f"{k} {counts[k]}" for k in
                      ("verified", "typed", "untyped", "wrong", "over_cap")))
    for key, n in sorted(details.items()):
        print(f"  {n} x {key}")
    print(f"fail_share = {attempted - verified}/{attempted}"
          f" = {(attempted - verified) / attempted:.4f}; "
          f"untyped_share = {counts['untyped']}/{attempted}"
          f" = {counts['untyped'] / attempted:.4f}")
    print(f"op_p50_s = {p50:.4f} s over {attempted} ops; op_tail_s = {tail_s:.4f} s "
          f"is p{tail_pct:.1f} ({beyond} samples beyond)")
    wall = [r.seconds for r in results]
    print(f"  times are at reference speed (clock.py); as wall time op_p50 "
          f"{statistics.median(wall):.4f} s, op_tail {tail(wall)[0]:.4f} s, "
          f"{verified / sum(wall):.4g} verified ops/s")
    if wl.mode == "exact":
        print(f"exact output sha256 (round 0, {len(wl.round)} ops): {digest.hexdigest()}")

    if tracer is None:
        print(f"setup_s: median of {COLD_STARTS} cold starts at reference speed "
              + ", ".join(f"{ref:.3f}" for _, ref in setup)
              + "; wall " + ", ".join(f"{w:.3f}" for w, _ in setup))
        metrics = {
            "setup_s": metric(statistics.median(ref for _, ref in setup), "s"),
            "op_p50_s": metric(p50, "s"),
            "op_tail_s": metric(tail_s, "s"),
            "ops_per_s": metric(verified / sum(times), "1/s"),
            "verified_share": metric(verified / attempted, "ratio"),
            "contained_share": metric(1 - counts["untyped"] / attempted, "ratio"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, results, traced)
        os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
        out = os.path.join(HERE, "_out", f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
        tracer.write(out)
        print(f"{len(tracer.spans)} spans over {len(traced)} traced ops written to {out}")
        print("matrices.matmul.mults is computed from operand shapes (rows x inner x cols)")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - verified, "metrics": metrics}))
    return 0


PER_FUNCTION = (
    ("pencil.char_poly", ("calls", "self_s")),
    ("pencil.finite_eigenvalues", ("self_s",)),
    ("weierstrass.decompose", ("self_s",)),
    ("weierstrass.verify", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.det", ("calls", "self_s")),
    ("linalg.inverse", ("self_s",)),
    ("linalg.solve_unique", ("self_s",)),
    ("linalg.kernel_basis", ("self_s",)),
    ("solver.solve", ("self_s",)),
    ("solver.residual_oracle", ("self_s",)),
    ("solver.check_consistency", ("calls", "self_s")),
    ("solver.compute_Dk", ("calls", "self_s")),
    ("solver.DescriptorSystem", ("self_s",)),
    ("causality.brute_force_causality_oracle", ("self_s",)),
    ("cli.parse_system_file", ("self_s",)),
    ("matrices.matmul", ("calls", "self_s")),
)


def layer_metrics(tracer, untraced: list[OpResult], traced: list[OpResult]) -> dict:
    """Per-op layer and function totals from the traced ops.  Self times are
    wall seconds scaled by the traced ops' median reference-speed factor."""
    scale = statistics.median(r.ref_s / r.seconds for r in traced)
    n = len(traced)
    out = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        out[f"{layer}.self_s"] = metric(self_s * scale / n, "s/op")
        out[f"{layer}.calls"] = metric(calls / n, "calls/op")
    for name, fields in PER_FUNCTION:
        calls, self_s = tracer.stats.get(name, (0, 0.0))
        for field in fields:
            out[f"{name}.{field}"] = (metric(calls / n, "calls/op") if field == "calls"
                                      else metric(self_s * scale / n, "s/op"))
    out["matrices.matmul.mults"] = metric(tracer.matmul_mults / n, "mults/op")
    out["matrices.max_bits"] = metric(tracer.max_bits, "bits")
    out["cli.output_bytes"] = metric(sum(r.output_bytes for r in untraced) / len(untraced),
                                     "B/op")
    out["weierstrass.verify.resid_ratio_max"] = metric(
        max([r.resid_ratio for r in untraced if r.outcome == "verified"] + [0.0]), "ratio")
    out["trace.overhead_s"] = metric(
        statistics.median(r.ref_s for r in traced)
        - statistics.median(r.ref_s for r in untraced), "s")
    out["trace.ops"] = metric(n, "count")
    return out


if __name__ == "__main__":
    sys.exit(main())
