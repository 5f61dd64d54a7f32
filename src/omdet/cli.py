"""Command-line front end: validation, generators, determinants, verification.

Subcommands:

  check             axiom report for a covector file, or fiber validity
  topes             list the topes of the input in canonical order
  faces             face census (weight degree, multiplicity) of the fiber
  det               exact symbolic determinant of the fiber's distance matrix
  formula           factored closed form of the same determinant
  verify            compare determinant against the factored form
  from-arrangement  covector set of a rational hyperplane arrangement (JSON)
  from-wiring       face fiber of a pseudoline wiring diagram (JSON)

Exit codes: 0 success / agreement; 1 axiom failure or verification
disagreement (the report is still printed); 2 input errors.  Output is
deterministic for fixed inputs, seed, and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import NamedTuple

from .polyring import (
    ExactDivisionError, ExponentOverflowError, Specialization, factored_str, poly_str, var_index, var_label
)
from .signvec import (
    CovectorSet, FiberError, FiberView, SignVector, _json_text, _loop_free, as_int, check_covector_axioms, parse_cov,
    format_cov, topal_fiber, validate_fiber
)
from .varchenko import SizeGuardError, determinant, product_formula, verify
from .realizable import RationalArrangement, arrangement_fiber, enumerate_covectors
from .wiring import WiringDiagram, _sweep as wiring_sweep, face_census, validate as wiring_validate


class InputError(Exception):
    """Problem with user input; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_json(loads, path: str):
    """loads(text of path); a malformed document of any shape is an InputError."""
    try:
        return loads(_read_text(path))
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load_input(args) -> CovectorSet | FiberView:
    try:
        parsed = parse_cov(_read_text(args.input))
    except (ValueError, FiberError) as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    flag_fiber = getattr(args, "fiber", None)
    flag_anchor = getattr(args, "anchor", None)
    if flag_fiber is None and flag_anchor is None:
        return parsed
    if (flag_fiber is None) != (flag_anchor is None):
        raise InputError("--fiber and --anchor must be given together")
    if isinstance(parsed, FiberView):
        raise InputError(
            "the file already declares a fiber header; conflicting --fiber/--anchor flags"
        )
    try:
        free = frozenset(int(tok) for tok in flag_fiber.split(",") if tok.strip())
        anchor = SignVector.from_string(flag_anchor)
        return topal_fiber(parsed, free, anchor)
    except (ValueError, FiberError) as exc:
        raise InputError(str(exc)) from exc


class _CheckReport(NamedTuple):
    """check's report: a fiber file's structural problems, or one line per covector axiom."""

    kind: str  # "fiber" or "covector-set"
    ok: bool
    items: tuple[str, ...]

    def lines(self) -> list[str]:
        title = "fiber" if self.kind == "fiber" else "axioms"
        return [f"{title}: {'PASS' if self.ok else 'FAIL'}"] + [f"  {item}" for item in self.items]

    def to_json(self) -> dict:
        key = "problems" if self.kind == "fiber" else "axioms"
        return {"kind": self.kind, "ok": self.ok, key: list(self.items)}


def _check(obj) -> _CheckReport:
    """Judge an input: the structural fiber check for a FiberView, the covector axioms otherwise."""
    if isinstance(obj, FiberView):
        problems = validate_fiber(obj)
        return _CheckReport("fiber", not problems, problems)
    report = check_covector_axioms(obj)
    return _CheckReport("covector-set", report.ok, tuple(report.lines()))


class _ReportedFailure(Exception):
    """An input that fails check; main prints check's report in the command's --format and exits 1."""


def _print_report(report, fmt: str, ok: bool = True) -> int:
    """Print check's, faces' or verify's report as JSON, written in one pass (``_json_text``), or as text lines;
    return 0, or 1 when not ok."""
    print(_json_text(report.to_json()) if fmt == "json" else "\n".join(report.lines()))
    return 0 if ok else 1


def _as_fiber(obj) -> FiberView:
    """The input as a fiber: it passes check, and a plain covector set is loop-free and has I = [n]."""
    report = _check(obj)
    if not report.ok:
        raise _ReportedFailure(report)
    if isinstance(obj, FiberView):
        return obj
    _loop_free(obj)
    return topal_fiber(obj, range(1, obj.n + 1), obj.members[0])


def _parse_specialize(text: str | None, nvars: int) -> Specialization | None:
    if text is None:
        return None
    text = text.strip()
    if text == "all=a":
        return Specialization.collapse_all(nvars)
    if text.startswith("{"):
        try:
            # pairs, not a dict, so a repeated key is seen rather than overwritten
            entries = json.loads(text, object_pairs_hook=list)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON specialization map: {exc}") from exc
    else:
        entries = []
        for chunk in text.split(","):
            if not chunk.strip():
                continue
            if "=" not in chunk:
                raise InputError(f"bad specialization entry {chunk!r} (expected var=value)")
            key, value = chunk.split("=", 1)
            entries.append((key.strip(), value.strip()))
    values = {}
    for key, value in entries:
        try:
            var = var_index(key)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        if var >= nvars:
            raise InputError(f"variable {key} is outside this input's universe")
        if var in values:
            raise InputError(f"variable {var_label(var, nvars)} is specialized more than once")
        try:
            values[var] = "a" if value == "a" else as_int(value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"specialization value for {key} must be an integer or 'a'") from exc
    if not values:
        return None
    try:
        return Specialization.of(nvars, values)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_check(args) -> int:
    report = _check(_load_input(args))
    return _print_report(report, args.format, report.ok)


def _cmd_topes(args) -> int:
    fiber = _as_fiber(_load_input(args))
    for t in fiber.topes:
        print(t)
    return 0


def _cmd_faces(args) -> int:
    return _print_report(face_census(_as_fiber(_load_input(args))), args.format)


def _cmd_det(args) -> int:
    fiber = _as_fiber(_load_input(args))
    spec = _parse_specialize(args.specialize, 2 * fiber.n)
    print(poly_str(determinant(fiber, spec, force=args.force_symbolic)))
    return 0


def _cmd_formula(args) -> int:
    fiber = _as_fiber(_load_input(args))
    spec = _parse_specialize(args.specialize, 2 * fiber.n)
    print(factored_str(product_formula(fiber, spec)))
    return 0


def _cmd_verify(args) -> int:
    if args.evals < 1:
        raise InputError(f"--evals must be at least 1, got {args.evals}")
    fiber = _as_fiber(_load_input(args))
    spec = _parse_specialize(args.specialize, 2 * fiber.n)
    report = verify(
        fiber,
        mode=args.mode,
        seed=args.seed,
        evals=args.evals,
        specialize=spec,
        force_symbolic=args.force_symbolic,
    )
    return _print_report(report, args.format, report.agreement)


def _cmd_from_arrangement(args) -> int:
    arr = _load_json(RationalArrangement.loads, args.input)
    try:
        if arr.affine:
            out = arrangement_fiber(arr)
        else:
            out = enumerate_covectors(arr)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_output(format_cov(out), args.output)
    return 0


def _cmd_from_wiring(args) -> int:
    wd = _load_json(WiringDiagram.loads, args.input)
    report = wiring_validate(wd)
    if not report.ok:
        raise InputError("; ".join(report.problems))
    _write_output(format_cov(wiring_sweep(wd)), args.output)
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="omdet",
        description="Exact covector-set toolkit: axioms, fibers, distance determinants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("input", help="input file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--fiber", help="free index set, e.g. 1,2,3 (with --anchor)")
        p.add_argument("--anchor", help="anchor sign string (with --fiber)")

    p = sub.add_parser("check", help="validate covector axioms or fiber structure")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("topes", help="list topes in canonical order")
    add_common(p)
    p.set_defaults(func=_cmd_topes)

    p = sub.add_parser("faces", help="face census by weight degree and multiplicity")
    add_common(p)
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("det", help="exact symbolic determinant")
    add_common(p)
    p.add_argument("--specialize", help="all=a, var=int list, or a JSON map")
    p.add_argument("--force-symbolic", action="store_true")
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("formula", help="factored closed form of the determinant")
    add_common(p)
    p.add_argument("--specialize", help="all=a, var=int list, or a JSON map")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("verify", help="check determinant against the factored form")
    add_common(p)
    p.add_argument("--mode", choices=("auto", "symbolic", "randomized"), default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--evals", type=int, default=5)
    p.add_argument("--specialize", help="all=a, var=int list, or a JSON map")
    p.add_argument("--force-symbolic", action="store_true")
    # accepted for compatibility: randomized evaluations run one after another
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("from-arrangement", help="covector set of a rational arrangement")
    p.add_argument("input", help="arrangement JSON file")
    p.add_argument("-o", "--output", help="output .cov path (default stdout)")
    p.set_defaults(func=_cmd_from_arrangement)

    p = sub.add_parser("from-wiring", help="face fiber of a wiring diagram")
    p.add_argument("input", help="wiring JSON file")
    p.add_argument("-o", "--output", help="output .cov path (default stdout)")
    p.set_defaults(func=_cmd_from_wiring)

    return parser


def _join_anchor(argv):
    """--anchor VALUE (or an abbreviation such as --anch VALUE) as
    --anchor=VALUE, so that argparse does not read an anchor starting with
    '-' (such as ----) as an option."""
    out = []
    for arg in argv:
        if out and len(out[-1]) > 2 and "--anchor".startswith(out[-1]):
            out[-1] = f"--anchor={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        try:
            # --help prints and raises SystemExit
            args = _build_parser().parse_args(_join_anchor(sys.argv[1:] if argv is None else argv))
            try:
                status = args.func(args)
            except _ReportedFailure as exc:
                status = _print_report(exc.args[0], args.format, ok=False)
        finally:
            sys.stdout.flush()  # so that a closed stdout shows here, not in the flush at exit
        return status
    except BrokenPipeError:
        # what is still buffered goes to the null device when the interpreter flushes at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output was written", file=sys.stderr)
        return 2
    except (InputError, FiberError, SizeGuardError, ExactDivisionError, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; a large fiber needs verify --mode randomized", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
