"""One verdict per job, run plainly or decomposed into traced layer calls.

A plain verdict calls omdet the way a user does (``verify``, or the CLI's
``main``) and then checks the result against the job's independent counts.
A traced verdict makes the public calls that pipeline is built from, each
inside a span, and applies the same checks.  A check that fails raises
``Mismatch`` naming the layer whose output was wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import traceback

import omdet as od
from omdet.cli import main as cli_main
from omdet.varchenko import bareiss_determinant, det_mod, randomized_compare

from inputs import NON_PAPPUS_CENSUS, Arrangement, Job
from spans import Spans

EVALS = 5
CLI_WORKERS = 2


class Mismatch(Exception):
    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


def expect(ok: bool, layer: str, message: str):
    if not ok:
        raise Mismatch(layer, message)


def attempt(verdict, job: Job, span: Spans | None = None):
    """Run one verdict; None on success, else (layer, message)."""
    try:
        if span is None:
            verdict(job)
        else:
            verdict(job, span)
        return None
    except Mismatch as exc:
        return exc.layer, str(exc)
    except Exception:
        layer = span.raised_in.split(".")[0] if span is not None and span.raised_in else "bench"
        return layer, traceback.format_exc()


def _arrangement(job: Job):
    a = job.source
    return od.RationalArrangement.of(a.normals, a.offsets, affine=a.affine)


def _diagram(job: Job):
    if job.source is None:
        return od.non_pappus()
    return od.WiringDiagram.of(job.source.wires, job.source.events)


def _generator(job: Job) -> str:
    return "realizable" if isinstance(job.source, Arrangement) else "wiring"


def _check_fiber(job: Job, f, layer: str):
    got = (len(f.members), len(f.topes))
    want = (job.expected.members, job.expected.topes)
    expect(got == want, layer, f"(members, topes) = {got}, expected {want}")


def _check_census(job: Job, faces):
    if job.source is None:
        census = {}
        for _, weight, beta in faces:
            key = (weight.total_degree(), beta)
            census[key] = census.get(key, 0) + 1
        expect(census == NON_PAPPUS_CENSUS, "varchenko", f"non-Pappus census {census}")


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    expect(code == 0, "cli", f"omdet {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _cli_commands(job: Job):
    cov = job.path.removesuffix(".json") + ".cov"
    convert = ["from-wiring", job.path, "-o", cov]
    verify = [
        "verify", cov, "--mode", "randomized", "--evals", str(EVALS), "--seed", str(job.seed),
        "--format", "json", "--workers", str(CLI_WORKERS),
    ]
    return cov, convert, verify


def _check_cli_report(job: Job, doc: dict):
    expect(doc["agreement"] is True, "cli", "verify reported agreement false")
    got = (doc["topes"], len(doc["faces"]))
    want = (job.expected.topes, job.expected.members - job.expected.topes)
    expect(got == want, "wiring", f"(topes, faces) = {got}, expected {want}")


# plain verdicts


def symbolic(job: Job):
    if isinstance(job.source, Arrangement):
        f = od.arrangement_fiber(_arrangement(job))
    else:
        f = od.faces(_diagram(job))
    spec = od.Specialization.collapse_all(2 * f.n) if job.collapse else None
    report = od.verify(f, mode="symbolic", specialize=spec, force_symbolic=True)
    _check_fiber(job, f, _generator(job))
    # agreement is determinant == formula.expand(); traced_symbolic makes that comparison on its own
    expect(report.agreement, "varchenko", "determinant differs from the expanded formula")
    _check_census(job, report.faces)


def wiring_cli(job: Job):
    _, convert, verify = _cli_commands(job)
    _run_cli(convert)
    _check_cli_report(job, json.loads(_run_cli(verify)))


def arrangements(job: Job):
    f = od.arrangement_fiber(_arrangement(job))
    report = od.verify(f, mode="randomized", seed=job.seed, evals=EVALS)
    _check_fiber(job, f, "realizable")
    expect(report.agreement and len(report.evals) == EVALS, "varchenko", "randomized verify disagrees")


# traced verdicts


def _count_fiber(f, span: Spans):
    span.counts["signvec.members"] += len(f.members)
    span.counts["signvec.topes"] += len(f.topes)


def _traced_validate(f, span: Spans):
    """faces() and parse_cov() validate the fiber inside; time that check alone on a fresh view."""
    fresh = od.FiberView(f.base, f.free, f.anchor, f.members)
    with span("signvec.validate_fiber"):
        problems = od.validate_fiber(fresh)
    expect(not problems, "signvec", "; ".join(problems))
    span.counts["signvec.member_pairs"] += len(f.members) ** 2


def _traced_fiber(job: Job, span: Spans):
    """The calls behind arrangement_fiber, or faces for a wiring diagram."""
    if isinstance(job.source, Arrangement):
        arr = _arrangement(job)
        if arr.affine:
            central, free, infinity = od.homogenize(arr)
        else:
            central, free, infinity = arr, range(1, arr.n + 1), None
        with span("realizable.enumerate"):
            s = od.enumerate_covectors(central)
        # enumerate_covectors checked the axioms inside; time that check alone on a fresh set
        with span("signvec.axioms"):
            report = od.check_covector_axioms(od.CovectorSet.of(s.members, n=s.n))
        expect(report.ok, "signvec", "enumerated covectors fail the axioms")
        span.counts["realizable.covectors"] += len(s)
        anchor = s.members[0] if infinity is None else next(m for m in s.members if m.sign(infinity) > 0)
        f = od.topal_fiber(s, free, anchor)
    else:
        with span("wiring.faces"):
            f = od.faces(_diagram(job))
        _traced_validate(f, span)
    _check_fiber(job, f, _generator(job))
    _count_fiber(f, span)
    return f


def _traced_pipeline(f, span: Spans):
    with span("varchenko.build_matrix"):
        matrix = od.build_matrix(f)
    with span("varchenko.face_multiplicities"):
        faces = od.face_multiplicities(f)
    with span("varchenko.product_formula"):
        formula = od.product_formula(f)
    return matrix, faces, formula


def _traced_randomized(matrix, formula, seed: int, workers: int, span: Spans):
    with span("varchenko.randomized"):
        prime, records = randomized_compare(matrix.entries, formula, seed=seed, evals=EVALS, workers=workers)
    expect(all(r.match for r in records), "varchenko", "randomized compare disagrees")
    # Per-evaluation split: every entry's residue, then the modular determinant.
    index = {od.poly_str(od.IntPolynomial.variable(matrix.nvars, v)): v for v in range(matrix.nvars)}
    for rec in records:
        assignment = {index[name]: value for name, value in rec.assignment.items()}
        with span("polyring.eval_mod"):
            residues = [[e.eval_mod(assignment, prime) for e in row] for row in matrix.entries]
        with span("varchenko.det_mod"):
            residue = det_mod(residues, prime)
        expect(residue == rec.det_residue, "varchenko", "det_mod differs from randomized_compare")
        span.counts["polyring.eval_mod_calls"] += matrix.size**2
    return prime, records


def traced_symbolic(job: Job, span: Spans):
    f = _traced_fiber(job, span)
    matrix, faces, formula = _traced_pipeline(f, span)
    entries, nvars = matrix.entries, matrix.nvars
    if job.collapse:
        spec = od.Specialization.collapse_all(nvars)
        with span("polyring.substitute"):
            entries = [[spec.apply_poly(e) for e in row] for row in entries]
            formula = spec.apply_factored(formula)
        nvars = spec.nvars
    with span("varchenko.bareiss_univariate" if job.collapse else "varchenko.bareiss"):
        det = bareiss_determinant([list(row) for row in entries], nvars)
    m = matrix.size
    span.counts["varchenko.bareiss_updates"] += (m - 1) * m * (2 * m - 1) // 6
    span.counts["varchenko.det_terms"] += len(det)
    with span("polyring.expand"):
        expanded = formula.expand()
    expect(det == expanded, "varchenko", "determinant differs from the expanded formula")
    _check_census(job, faces)


def traced_wiring_cli(job: Job, span: Spans):
    cov, convert, verify = _cli_commands(job)
    with span("cli.from_wiring"):
        _run_cli(convert)
    with span("cli.verify"):
        out = _run_cli(verify)
    doc = json.loads(out)
    _check_cli_report(job, doc)
    with open(cov, encoding="utf-8") as fh:
        written = fh.read()
    span.counts["cli.stdout_bytes"] += len(out.encode())
    span.counts["cli.cov_bytes"] += len(written.encode())
    # the library calls behind the two commands, on the same input
    with span("wiring.faces"):
        f = od.faces(_diagram(job))
    _traced_validate(f, span)
    _count_fiber(f, span)
    with span("signvec.format_cov"):
        text = od.format_cov(f)
    expect(text == written, "cli", "from-wiring wrote another .cov than format_cov")
    with span("signvec.parse_cov"):
        parsed = od.parse_cov(text)
    _check_fiber(job, parsed, "signvec")
    matrix, _, formula = _traced_pipeline(parsed, span)
    prime, records = _traced_randomized(matrix, formula, job.seed, CLI_WORKERS, span)
    log = doc["evals"]
    same = log["prime"] == str(prime) and [e["det"] for e in log["log"]] == [str(r.det_residue) for r in records]
    expect(same, "cli", "verify's JSON differs from the library's randomized compare")


def traced_arrangements(job: Job, span: Spans):
    f = _traced_fiber(job, span)
    matrix, _, formula = _traced_pipeline(f, span)
    _traced_randomized(matrix, formula, job.seed, 1, span)


PLAIN = {"symbolic": symbolic, "wiring-cli": wiring_cli, "arrangements": arrangements}
TRACED = {"symbolic": traced_symbolic, "wiring-cli": traced_wiring_cli, "arrangements": traced_arrangements}

# library calls that the two CLI commands make, for cli.self_s
_CLI_LIBRARY = (
    "wiring.faces", "signvec.format_cov", "signvec.parse_cov", "varchenko.build_matrix",
    "varchenko.face_multiplicities", "varchenko.product_formula", "varchenko.randomized",
)


def layer_metrics(span: Spans) -> dict[str, float]:
    """Per-layer totals over a traced pass; computed entries are differences or ratios."""
    t, c = span.total, span.counts

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    bareiss = t("varchenko.bareiss") + t("varchenko.bareiss_univariate")
    cli = t("cli.from_wiring") + t("cli.verify")
    return {
        "realizable.enumerate_s": t("realizable.enumerate"),
        "realizable.covectors": c["realizable.covectors"],
        "realizable.us_per_covector": per(t("realizable.enumerate"), c["realizable.covectors"], 1e6),
        "signvec.axioms_s": t("signvec.axioms"),
        "signvec.validate_fiber_s": t("signvec.validate_fiber"),
        "signvec.validate_ns_per_pair": per(t("signvec.validate_fiber"), c["signvec.member_pairs"], 1e9),
        "signvec.parse_cov_s": t("signvec.parse_cov"),
        "signvec.format_cov_s": t("signvec.format_cov"),
        "signvec.members": c["signvec.members"],
        "signvec.topes": c["signvec.topes"],
        "wiring.faces_s": t("wiring.faces"),
        "wiring.sweep_s": t("wiring.faces") - t("signvec.validate_fiber"),
        "varchenko.bareiss_s": t("varchenko.bareiss"),
        "varchenko.bareiss_univariate_s": t("varchenko.bareiss_univariate"),
        "varchenko.bareiss_updates": c["varchenko.bareiss_updates"],
        "varchenko.us_per_bareiss_update": per(bareiss, c["varchenko.bareiss_updates"], 1e6),
        "varchenko.det_terms": c["varchenko.det_terms"],
        "varchenko.build_matrix_s": t("varchenko.build_matrix"),
        "varchenko.face_multiplicities_s": t("varchenko.face_multiplicities"),
        "varchenko.product_formula_s": t("varchenko.product_formula"),
        "varchenko.randomized_s": t("varchenko.randomized"),
        "varchenko.det_mod_s": t("varchenko.det_mod"),
        "polyring.eval_mod_s": t("polyring.eval_mod"),
        "polyring.eval_mod_calls": c["polyring.eval_mod_calls"],
        "polyring.substitute_s": t("polyring.substitute"),
        "polyring.expand_s": t("polyring.expand"),
        "cli.from_wiring_s": t("cli.from_wiring"),
        "cli.verify_s": t("cli.verify"),
        "cli.self_s": cli - sum(t(name) for name in _CLI_LIBRARY) if cli else 0.0,
        "cli.stdout_bytes": c["cli.stdout_bytes"],
        "cli.cov_bytes": c["cli.cov_bytes"],
    }
