"""Command-line front-end: ``dkit analyze|solve|causality <file>``.

A system lives in one JSON-shaped file; scalars may be integers,
decimal strings, or "num/den" rational strings (float mode also accepts
complex strings such as "1+2j").  Exit codes are part of the contract:

    0  success
    1  parse or usage error (a malformed or unreadable file, bad arguments,
       an unwritable output path), an exact value past Python's digit
       limit when read or reported (``solve`` stops at the first state
       it cannot print; Python 3.10 has no limit, so there a solve is
       bounded only by K), or float mode without numpy (retry with
       --mode exact)
    2  irregular pencil (exact mode; float mode cannot tell, exit 7)
    3  inconsistent initial condition (analysis still emitted)
    4  unresolvable exact spectrum (retry with --mode float)
    5  input horizon too short
    6  causality oracle disagrees with the closed-form criteria
    7  numerical breakdown in float mode (retry with --mode exact)

:func:`_report` gives each ``DkitError`` its exit code by ``_EXITS``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, Iterator, NamedTuple

from . import causality as causality_mod
from .errors import (
    ChainConstructionFailure,
    DkitError,
    InconsistentInitialCondition,
    InputHorizonTooShort,
    IrregularPencil,
    ParseError,
    UnresolvableSpectrum,
    excerpt,
)
from .matrices import Matrix
from .pencil import Pencil  # noqa: F401  (read as cli.Pencil by perfbench)
from .scalars import Mode, format_scalar, max_str_digits, parse_scalar
from .solver import (
    Analysis,
    DescriptorSystem,
    InputSignal,
    _instants,
    _pinned_zp,
    _residual,
    analyze,
    check_consistency,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_IRREGULAR = 2
EXIT_INCONSISTENT = 3
EXIT_UNRESOLVABLE = 4
EXIT_HORIZON = 5
EXIT_ORACLE_DISAGREES = 6
EXIT_NUMERICAL = 7

# (error type, exit code, stderr label, hint) for _report: the first match wins
_EXITS = (
    (ParseError, EXIT_PARSE, "parse error", None),
    (IrregularPencil, EXIT_IRREGULAR, "irregular pencil", None),
    (InconsistentInitialCondition, EXIT_INCONSISTENT, "inconsistent initial condition", None),
    (UnresolvableSpectrum, EXIT_UNRESOLVABLE, "unresolvable spectrum in exact mode",
     "retry with --mode float"),
    (InputHorizonTooShort, EXIT_HORIZON, "input horizon too short", None),
    (ChainConstructionFailure, EXIT_NUMERICAL, "numerical breakdown", "retry with --mode exact"),
    (DkitError, EXIT_PARSE, "error", None),
)


class SystemFile(NamedTuple):
    n: int
    l: int
    m: int
    mode: Mode
    F: Matrix
    G: Matrix
    B: Matrix
    C: Matrix
    Y0: Matrix
    k0: int
    inputs: tuple[Matrix, ...]
    K: int

    def signal(self) -> InputSignal:
        return InputSignal(self.k0, list(self.inputs))

    def system(self, tol: float | None = None) -> DescriptorSystem:
        return DescriptorSystem(self.F, self.G, self.B, self.C, tol=tol)


def _require_int(raw, field: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"{field}: expected an integer, got {excerpt(raw)}")
    return raw


def _parse_scalars(raw: list, mode: Mode, field: str) -> list:
    """The cells of one row, each admitted once.  A JSON int short enough
    for its mode skips ``scalars.parse_scalar``: in exact mode one that
    prints (within 3 * the digit limit bits, see parse_scalar; any int where
    Python has no limit) stays an int, in float mode one within 1023 bits,
    so finite as a double, becomes a ``complex``; ``Matrix`` takes either
    as it is.  Every other cell goes through parse_scalar, which gives its
    error message."""
    exact = mode is Mode.EXACT
    short = (3 * max_str_digits() or math.inf) if exact else 1023
    out = []
    for j, cell in enumerate(raw):
        if type(cell) is int and cell.bit_length() <= short:
            out.append(cell if exact else complex(cell))
            continue
        try:
            out.append(parse_scalar(cell, mode))
        except ValueError as exc:
            raise ParseError(f"{field}[{j}]: {exc}") from None
    return out


def _parse_matrix(raw, nrows: int, ncols: int, mode: Mode, field: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != nrows:
        raise ParseError(f"{field}: expected {nrows} rows")
    data = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError(f"{field}[{i}]: expected {ncols} entries")
        data.append(_parse_scalars(row, mode, f"{field}[{i}]"))
    return Matrix(data, mode) if data else Matrix.zeros(nrows, ncols, mode)


def _parse_vector(raw, length: int, mode: Mode, field: str) -> Matrix:
    if not isinstance(raw, list) or len(raw) != length:
        raise ParseError(f"{field}: expected a vector of length {length}")
    return Matrix.column(_parse_scalars(raw, mode, field), mode)


def parse_system_file(source, mode_override: Mode | None = None) -> SystemFile:
    """Parse a system description from a dict, a path or a JSON string:
    an argument that names a file is read from it, any other that starts
    with "{" is read as JSON."""
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{") or os.path.isfile(text):
            try:
                with open(source, encoding="utf-8") as fh:
                    text = fh.read()
            except FileNotFoundError:
                raise ParseError(f"file not found: {excerpt(text)}") from None
            except (OSError, ValueError) as exc:  # a directory, say, or not UTF-8
                reason = getattr(exc, "strerror", None) or exc  # strerror omits the path
                raise ParseError(f"cannot read {excerpt(text)}: {reason}") from None
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also too long an int or too deep
            raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(doc) - set(SystemFile._fields)
    if unknown:
        raise ParseError(f"unknown fields: {', '.join(sorted(unknown))}")
    missing = [k for k in SystemFile._fields if k not in doc]
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}")

    n = _require_int(doc["n"], "n")
    l = _require_int(doc["l"], "l")
    m = _require_int(doc["m"], "m")
    if n < 1:
        raise ParseError("n: must be >= 1 (empty systems are rejected)")
    if l < 0 or m < 0:
        raise ParseError("l and m must be >= 0")
    raw_mode = doc["mode"]
    if raw_mode not in ("exact", "float"):
        raise ParseError(f'mode: expected "exact" or "float", got {excerpt(raw_mode)}')
    mode = mode_override or Mode(raw_mode)

    k0 = _require_int(doc["k0"], "k0")
    K = _require_int(doc["K"], "K")
    if K < k0:
        raise ParseError(f"K: horizon end {K} precedes k0 = {k0}")

    f = _parse_matrix(doc["F"], n, n, mode, "F")
    g = _parse_matrix(doc["G"], n, n, mode, "G")
    b = _parse_matrix(doc["B"], n, l, mode, "B")
    c = _parse_matrix(doc["C"], m, n, mode, "C")
    y0 = _parse_vector(doc["Y0"], n, mode, "Y0")
    raw_inputs = doc["inputs"]
    if not isinstance(raw_inputs, list):
        raise ParseError("inputs: expected a list of input vectors")
    inputs = tuple(
        _parse_vector(row, l, mode, f"inputs[{i}]") for i, row in enumerate(raw_inputs)
    )
    return SystemFile(n=n, l=l, m=m, mode=mode, F=f, G=g, B=b, C=c,
                      Y0=y0, k0=k0, inputs=inputs, K=K)


def _matrix_to_lists(mat: Matrix) -> list[list[str]]:
    e, c = mat.format_entries(), mat.cols
    return [e[i * c : (i + 1) * c] for i in range(mat.rows)]


def _fmt_matrix(mat: Matrix) -> str:
    if mat.rows == 0 or mat.cols == 0:
        return f"(empty {mat.rows}x{mat.cols})"
    rows = ["[" + ", ".join(row) + "]" for row in _matrix_to_lists(mat)]
    return "[" + "; ".join(rows) + "]"


def _analysis(sf: SystemFile, args) -> Analysis:
    return analyze(sf.system(args.tol), cluster_radius=args.cluster_tol)


def _analysis_dict(a: Analysis, cons, causality) -> dict:
    """JSON form; exact scalars become lossless "num/den" strings."""
    w, rep = a.w, a.verification
    return {
        "regular": True,
        "char_poly": [format_scalar(c) for c in a.system.char_poly.coefficients],
        "p": w.p,
        "q": w.q,
        "q_star": w.q_star,
        "jordan_blocks": [
            {"eigenvalue": format_scalar(b.eigenvalue), "size": b.size}
            for b in w.jordan_blocks
        ],
        "nilpotent_blocks": [b.size for b in w.nilpotent_blocks],
        "verification": {
            "residual_F": format_scalar(rep.residual_F),
            "residual_G": format_scalar(rep.residual_G),
            "P_nonsingular": rep.P_nonsingular,
            "Q_nonsingular": rep.Q_nonsingular,
        },
        "consistency": {
            "consistent": cons.consistent,
            "z_p0": (None if cons.z_p0 is None
                     else [format_scalar(x) for x in cons.z_p0.column_list()]),
            "residual": [format_scalar(x) for x in cons.residual.column_list()],
        },
        "causality": _causality_dict(causality),
    }


def _structure_lines(a: Analysis) -> list[str]:
    w, rep = a.w, a.verification
    finite = ", ".join(f"(eigenvalue {format_scalar(b.eigenvalue)}, size {b.size})"
                       for b in w.jordan_blocks)
    nilpotent = ", ".join(f"size {b.size}" for b in w.nilpotent_blocks)
    return [
        f"pencil: regular (char poly degree {w.p})",
        "char poly coefficients (ascending): "
        + "[" + ", ".join(format_scalar(c) for c in a.system.char_poly.coefficients) + "]",
        f"p = {w.p}, q = {w.q}, q_star = {w.q_star}",
        f"finite blocks: {finite or 'none'}",
        f"nilpotent blocks: {nilpotent or 'none'}",
        f"verification residuals: {format_scalar(rep.residual_F)}, "
        f"{format_scalar(rep.residual_G)} "
        f"(P nonsingular: {rep.P_nonsingular}, Q nonsingular: {rep.Q_nonsingular})",
    ]


def _causality_lines(report) -> list[str]:
    state = "CAUSAL" if report.state_input_causal else "NON-CAUSAL"
    output = "CAUSAL" if report.output_input_causal else "NON-CAUSAL"
    lines = []
    if report.no_infinite_eigenvalues:
        lines.append("no infinite eigenvalues: causal in both senses")
    lines += [f"state-input causality: {state}   witness H_q B_q = "
              f"{_fmt_matrix(report.criterion_state)}",
              f"output-input causality: {output}"]
    lines += [f"  C Q_q H_q^{i} B_q = {_fmt_matrix(wmat)}"
              for i, wmat in enumerate(report.criteria_output, start=1)]
    if report.tolerance is not None:
        lines.append(f"  (zero threshold {report.tolerance})")
    return lines


def _causality_dict(report) -> dict:
    return {
        "state_input_causal": report.state_input_causal,
        "output_input_causal": report.output_input_causal,
        "criterion_state": _matrix_to_lists(report.criterion_state),
        "criteria_output": [_matrix_to_lists(m) for m in report.criteria_output],
        "nullspace_form": _matrix_to_lists(report.nullspace_form),
        "no_infinite_eigenvalues": report.no_infinite_eigenvalues,
        "tolerance": report.tolerance,
    }


def cmd_analyze(sf: SystemFile, args) -> int:
    a = _analysis(sf, args)
    cons = check_consistency(a, sf.signal(), sf.Y0)
    causality = causality_mod.build_report(a.system, a.w, a.tin, args.causality_tol)
    # format everything first: a value over the digit limit raises here,
    # before anything is written
    lines = _structure_lines(a)
    if cons.consistent:
        lines.append(f"consistency: consistent, Z^p_k0 = {_fmt_matrix(cons.z_p0)}")
    else:
        lines += ["consistency: INCONSISTENT",
                  f"  residual Y0 - Q_p Z^p - Q D_k0 = {_fmt_matrix(cons.residual)}"]
    lines += _causality_lines(causality)
    if args.out_json:
        _write(args.out_json, [json.dumps(_analysis_dict(a, cons, causality), indent=2), "\n"])
        lines.append(f"report written to {args.out_json}")
    print("\n".join(lines))
    return EXIT_OK if cons.consistent else EXIT_INCONSISTENT


def _write(path: str, chunks: list[str]):
    """Write ``chunks`` to the file ``path``; a path that cannot be written
    is a usage error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise DkitError(f"cannot write {excerpt(path)}: {exc.strerror or exc}") from None


def _csv_header(n: int, m: int, p: int, q: int) -> str:
    """The first line of the trajectory CSV: k, Y, X, Z^p and Z^q."""
    return ",".join(["k"] + [f"Y_{i + 1}" for i in range(n)] + [f"X_{i + 1}" for i in range(m)]
                    + [f"Zp_{i + 1}" for i in range(p)]
                    + [f"Zq_{i + 1}" for i in range(q)]) + "\n"


def _csv_rows(instants: Iterable[tuple[Matrix, ...]], k0: int,
              lines: list[str]) -> Iterator[Matrix]:
    """Y_k of each instant (Y_k, X_k, Z^p_k, Z^q_k), k = k0, k0 + 1, ...,
    after its CSV line, k and the entries joined by commas, joins
    ``lines``.  No field is ever quoted, as none (integers,
    ``format_scalar`` output) holds a comma, a quote or a line break.
    Raises the ``DkitError`` of ``format_scalar`` for a value over the
    digit limit, at the first instant that has one."""
    for k, vecs in enumerate(instants, k0):
        lines.append(",".join([str(k), *(s for v in vecs for s in v.format_entries())]) + "\n")
        yield vecs[0]


def cmd_solve(sf: SystemFile, args) -> int:
    horizon_end = args.K if args.K is not None else sf.K
    if horizon_end <= sf.k0:
        field = "K" if args.K is None else "--K"
        raise ParseError(f"{field}: solve needs a horizon end after k0 = {sf.k0}, "
                         f"got {horizon_end}")
    a = _analysis(sf, args)
    signal = sf.signal()
    z_p0 = _pinned_zp(a, signal, sf.Y0, horizon_end)
    # each instant is formatted, then checked against the one before it, and
    # dropped: a value over the digit limit raises at its instant, and the
    # lines are written only after the last one, so an error writes nothing
    lines = [_csv_header(sf.n, sf.m, a.w.p, a.w.q)]
    res = _residual(a.system, signal, sf.k0,
                    _csv_rows(_instants(a, signal, z_p0, horizon_end), sf.k0, lines), sf.Y0)
    summary = (f"residual: max step residual {format_scalar(res.step_residual)}, "
               f"Y_k0 mismatch {format_scalar(res.y0_mismatch)}")

    if args.out_csv:
        _write(args.out_csv, lines)
        out = sys.stdout
    else:
        sys.stdout.writelines(lines)
        out = sys.stderr
    print(summary, file=out)
    if args.out_csv:
        print(f"trajectory written to {args.out_csv}", file=out)
    return EXIT_OK


def cmd_causality(sf: SystemFile, args) -> int:
    a = _analysis(sf, args)
    report = causality_mod.build_report(a.system, a.w, a.tin, args.causality_tol)
    # format everything first: a value over the digit limit raises here,
    # before anything is written
    lines, errors = _causality_lines(report), []
    if args.oracle_trials:
        raw_seed = os.environ.get("DKIT_SEED", "0")
        try:
            seed = int(raw_seed)
        except ValueError:
            # int() refuses an integer written as it reads one only past the digit limit
            import re  # only on the error path, so start-up does not pay for it

            why = (f"the integer exceeds Python's limit of {max_str_digits()} digits"
                   if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", raw_seed) else "expected an integer")
            raise ParseError(f"DKIT_SEED: {why}, got {excerpt(raw_seed)}") from None
        claims = {"state": report.state_input_causal, "output": report.output_input_causal}
        found = causality_mod.brute_force_causality_oracle(
            a, args.oracle_trials, seed=seed, tol=args.causality_tol)
        for (mode_name, claim), ce in zip(claims.items(), found):
            agrees = (ce is None) == claim
            lines.append(f"oracle ({mode_name}, {args.oracle_trials} trials): "
                         f"{'agrees' if agrees else 'DISAGREES'}")
            if agrees:
                continue
            errors.append(f"criteria said {'causal' if claim else 'non-causal'} for "
                          f"{mode_name} but the oracle found the opposite")
            if ce is not None:
                errors += [
                    f"distinguishing pair (perturbed index {ce.perturbed_index}, "
                    f"diverged at k = {ce.diverged_at}):",
                    f"  U  = {[v.format_entries() for v in ce.base_signal.samples]}",
                    f"  U' = {[v.format_entries() for v in ce.perturbed_signal.samples]}",
                    f"  value under U  at k: {_fmt_matrix(ce.base_value)}",
                    f"  value under U' at k: {_fmt_matrix(ce.perturbed_value)}",
                ]
    print("\n".join(lines))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return EXIT_ORACLE_DISAGREES
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports usage errors as ParseError (exit 1) instead of exiting 2,
    which is the code for an irregular pencil.  argparse quotes a bad
    argument whole, so the message is cut to 200 characters."""

    def error(self, message):
        if len(message) > 200:
            message = message[:197] + "..."
        raise ParseError(f"{self.prog}: {message}")


def _trial_count(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {raw}")
    return value


def _tolerance(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {raw}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("file", help="system description file (JSON)")
    parser.add_argument("--mode", choices=["exact", "float"],
                        help="override the file's scalar mode")
    parser.add_argument("--tol", type=_tolerance, default=None,
                        help="float-mode zero/rank tolerance (relative, default 1e-9)")
    parser.add_argument("--cluster-tol", type=_tolerance, default=None, dest="cluster_tol",
                        help="float-mode eigenvalue clustering radius (default 1e-7)")
    parser.add_argument("--causality-tol", type=_tolerance, default=None, dest="causality_tol",
                        help="float-mode causality zero threshold (default 1e-8)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="dkit",
        description="Analyze singular linear discrete-time systems "
                    "F Y_{k+1} = G Y_k + B V_k, X_k = C Y_k.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="canonical form, consistency, causality")
    _add_common(p_an)
    p_an.add_argument("--out-json", default=None, dest="out_json",
                      help="also write a machine-readable report")

    p_sv = sub.add_parser("solve", help="closed-form trajectory as CSV")
    _add_common(p_sv)
    p_sv.add_argument("--K", type=int, default=None,
                      help="solve horizon end (overrides the file's K)")
    p_sv.add_argument("--out-csv", default=None, dest="out_csv",
                      help="write the trajectory CSV here instead of stdout")

    p_ca = sub.add_parser("causality", help="causality verdicts and witnesses")
    _add_common(p_ca)
    p_ca.add_argument("--oracle-trials", type=_trial_count, default=0, dest="oracle_trials",
                      help="cross-check the criteria with N brute-force trials "
                           "(seeded by DKIT_SEED)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    from one call to the next."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        sf = parse_system_file(args.file, None if args.mode is None else Mode(args.mode))
        # looked up per call, so a patched or traced cmd_* is the one run
        command = {"analyze": cmd_analyze, "solve": cmd_solve,
                   "causality": cmd_causality}[args.command]
        return command(sf, args)
    except DkitError as exc:
        return _report(exc)


def _report(exc: DkitError) -> int:
    """Print ``exc`` to stderr as its row of ``_EXITS`` says, with the
    residual of an inconsistent initial state, and return its exit code."""
    code, label, hint = next(e[1:] for e in _EXITS if isinstance(exc, e[0]))
    print(f"{label}: {exc}", file=sys.stderr)
    if hint:
        print(f"hint: {hint}", file=sys.stderr)
    residual = getattr(exc, "residual", None)  # InconsistentInitialCondition's
    if residual is not None:
        try:
            print(f"  residual: {_fmt_matrix(residual)}", file=sys.stderr)
        except DkitError as fmt_exc:  # a residual too long to print
            return _report(fmt_exc)
    return code


if __name__ == "__main__":
    sys.exit(main())
