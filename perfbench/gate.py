"""Correctness gate: judge one CLI op against the plant it ran on.

Runs outside the timed region.  Every check uses the plant's recorded
structure and the benchmark's own Fraction arithmetic, never dkit.  A gate
returns None when the op's output is right, else a short reason.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

# Float-mode thresholds, matching dkit's defaults: decompose accepts a
# residual up to RANK_TOL * max(|F|, |G|, 1); the eigenvalue match is looser
# because clustered roots of a defective eigenvalue average to it.
RANK_TOL = 1e-9
EIG_TOL = 1e-6


def _max_abs(mat) -> float:
    return max([abs(float(Fraction(x))) for row in mat for x in row] + [1.0])


def _check_blocks(report: dict, oracle: dict, exact: bool) -> str | None:
    for key, want in (("p", oracle["p"]), ("q", oracle["q"]), ("q_star", oracle["q_star"])):
        if report[key] != want:
            return f"{key} = {report[key]}, plant has {want}"
    if sorted(report["nilpotent_blocks"]) != oracle["nilpotent"]:
        return f"nilpotent blocks {report['nilpotent_blocks']} != {oracle['nilpotent']}"
    want = [(Fraction(a), s) for a, s in oracle["jordan"]]
    if exact:
        got = sorted((Fraction(b["eigenvalue"]), b["size"]) for b in report["jordan_blocks"])
        if got != sorted(want):
            return f"jordan blocks {got} != {sorted(want)}"
        return None
    got = [(complex(b["eigenvalue"]), b["size"]) for b in report["jordan_blocks"]]
    got.sort(key=lambda t: (round(t[0].real, 4), t[1]))
    want.sort(key=lambda t: (round(float(t[0]), 4), t[1]))
    if len(got) != len(want) or any(
            gs != ws or abs(ge - float(we)) > EIG_TOL * max(1.0, abs(float(we)))
            for (ge, gs), (we, ws) in zip(got, want)):
        return f"jordan blocks {got} != {want}"
    return None


def resid_ratio(report: dict, doc: dict) -> float:
    """Float residual over the threshold decompose accepted it under."""
    thr = RANK_TOL * max(_max_abs(doc["F"]), _max_abs(doc["G"]))
    ver = report["verification"]
    return max(abs(complex(ver["residual_F"])), abs(complex(ver["residual_G"]))) / thr


def check_analyze(report_path: str, doc: dict, oracle: dict,
                  exact: bool) -> tuple[str | None, float]:
    """Structure, residuals, consistency and causality from --out-json.

    Returns (reason or None, residual ratio; 0 in exact mode)."""
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    bad = _check_blocks(report, oracle, exact)
    if bad:
        return bad, 0.0
    ver = report["verification"]
    if not (ver["P_nonsingular"] and ver["Q_nonsingular"]):
        return "P or Q reported singular", 0.0
    ratio = 0.0
    if exact:
        if ver["residual_F"] != "0" or ver["residual_G"] != "0":
            return f"exact residuals {ver['residual_F']}, {ver['residual_G']}", 0.0
    else:
        ratio = resid_ratio(report, doc)
        if ratio > 1.0:
            return f"float residual {ratio:.3g} x threshold", ratio
    if not report["consistency"]["consistent"]:
        return "consistent initial state judged inconsistent", ratio
    caus = report["causality"]
    if caus["state_input_causal"] != oracle["state_causal"]:
        return f"state causality {caus['state_input_causal']}, plant {oracle['state_causal']}", ratio
    if caus["output_input_causal"] != oracle["output_causal"]:
        return f"output causality {caus['output_input_causal']}, plant {oracle['output_causal']}", ratio
    return None, ratio


def _mat(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _mul(mat, vec) -> list:
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def _scaled(values) -> tuple[list[int], int]:
    """Integers d * x and the common denominator d of some rationals."""
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _int_matrix(rows) -> tuple[list[list[int]], int]:
    d = math.lcm(1, *(Fraction(x).denominator for row in rows for x in row))
    return [[int(Fraction(x) * d) for x in row] for row in rows], d


def _parse_row(cells) -> tuple[list[int], int]:
    """A CSV row of "a/b" or "a" cells as (integers, common denominator)."""
    return _scaled([Fraction(*map(int, c.split("/"))) if "/" in c else Fraction(int(c))
                    for c in cells])


def check_solve(stdout: str, csv_path: str, doc: dict, oracle: dict) -> str | None:
    """The trajectory CSV solves the system exactly on k0..K.

    Checks Y_k0 = Y0, X_k = C Y_k, F Y_{k+1} = G Y_k + B V_k for every step,
    and that the backward coordinates of Y_K equal the forced values the
    plant computed, which pins the one part the step equations leave free.
    Rows and matrices are scaled to integers first, so each equation is
    compared exactly without a gcd per operation.
    """
    if "max step residual 0, Y_k0 mismatch 0" not in stdout:
        return "solver did not report exact zero residuals"
    n, m, k0, K = doc["n"], doc["m"], doc["k0"], doc["K"]
    (fm, df), (gm, dg), (bm, db), (cm, dc) = (
        _int_matrix(doc[k]) for k in ("F", "G", "B", "C"))
    bv = [_mul(bm, v) for v in doc["inputs"]]
    prev = None
    rows = 0
    with open(csv_path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:1 + n + m] != ["k"] + [f"Y_{i + 1}" for i in range(n)] + [
                f"X_{i + 1}" for i in range(m)]:
            return f"unexpected CSV header {header[:1 + n + m]}"
        for row in reader:
            k = int(row[0])
            if k != k0 + rows:
                return f"row {rows} has k = {k}"
            y, dy = _parse_row(row[1:1 + n])
            x, dx = _parse_row(row[1 + n:1 + n + m])
            if rows == 0 and [Fraction(v, dy) for v in y] != _mat([doc["Y0"]])[0]:
                return "Y_k0 differs from Y0"
            if [dx * v for v in _mul(cm, y)] != [dc * dy * v for v in x]:
                return f"X_{k} != C Y_{k}"
            if prev is not None:
                py, pdy = prev
                lhs = [dg * db * pdy * v for v in _mul(fm, y)]
                rhs = [df * db * dy * a + df * dg * pdy * dy * b
                       for a, b in zip(_mul(gm, py), bv[k - 1 - k0])]
                if lhs != rhs:
                    return f"F Y_{k} != G Y_{k - 1} + B V_{k - 1}"
            prev = (y, dy)
            rows += 1
    if rows != K - k0 + 1:
        return f"{rows} rows for horizon {k0}..{K}"
    y, dy = prev
    if _mul(_mat(oracle["R_q"]), [Fraction(v, dy) for v in y]) != _mat([oracle["zq_K"]])[0]:
        return "backward coordinates of Y_K differ from the forced values"
    return None


def check_causality(stdout: str, oracle: dict, trials: int) -> str | None:
    """Verdicts match the plant and both oracle passes agree."""
    for label, want in (("state-input", oracle["state_causal"]),
                        ("output-input", oracle["output_causal"])):
        verdict = "CAUSAL" if want else "NON-CAUSAL"
        if f"{label} causality: {verdict}" not in stdout:
            return f"{label} verdict is not {verdict}"
    for mode in ("state", "output"):
        if f"oracle ({mode}, {trials} trials): agrees" not in stdout:
            return f"{mode} oracle did not agree"
    return None
