"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the whole suite is exact (no tolerances anywhere).
"""

import json
import random
import subprocess
import sys
import time

from omdet.polyring import IntPolynomial, Specialization, factored_str
from omdet.signvec import (
    CovectorSet,
    SignVector,
    check_covector_axioms,
    format_cov,
    leq,
    multiplicity,
    topal_fiber,
    topes,
)
from omdet.varchenko import build_matrix, determinant, product_formula, verify
from omdet.wiring import face_census, faces, non_pappus, validate

from oracle import (
    bmax_table,
    cfd_check,
    checked_covectors,
    corpus_fibers,
    corpus_sets,
    permutation_determinant,
    random_central_arrangement,
    random_wiring,
    witt_check,
)
from omdet.realizable import enumerate_covectors

P = IntPolynomial


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# Reference census for the nine-pseudoline configuration as published:
# 33 chambers, then (weight degree, multiplicity) -> count.
PUBLISHED_CENSUS = {(2, 1): 43, (6, 1): 8, (4, 0): 7}


def test_criterion_1_non_pappus_reproduction():
    start = time.time()
    wd = non_pappus()
    rep = validate(wd)
    sizes = sorted(hi - lo + 1 for lo, hi in wd.events)

    # figure fidelity: 8 triple points, 7 plain crossings, 5 parallel pairs
    assert rep.ok
    assert sizes.count(3) == 8 and sizes.count(2) == 7
    assert len(rep.parallel_pairs) == 5

    fiber = faces(wd)
    census = face_census(fiber)
    assert census.tope_count == 33

    spec = Specialization.collapse_all(2 * fiber.n)
    formula = spec.apply_factored(product_formula(fiber))
    formula_text = factored_str(formula)

    vr = verify(fiber, mode="randomized", seed=0, evals=5, specialize=spec)
    elapsed = time.time() - start

    actual = census.as_dict()
    if actual == PUBLISHED_CENSUS:
        report(
            1,
            formula_text == "(1 - a^2)^43 * (1 - a^6)^8" and vr.agreement and elapsed < 10,
            f"non-Pappus census and formula reproduced in {elapsed:.1f}s",
        )
        return

    # Census mismatch: report it as a data issue, pinned to exactly the
    # analyzed discrepancy, and gate on the determinant identity instead.
    # The published 43 cannot be the one-dimensional face count of ANY
    # pseudoline arrangement with the published vertex census: 8 triple and
    # 7 double points give 8*3 + 7*2 = 38 line-vertex incidences, hence
    # sum over lines of (vertices + 1) = 38 + 9 = 47 one-dimensional faces,
    # and the planar Euler relation V - E + F = 15 - E + 33 = 1 also forces
    # E = 47 (43 would give characteristic 5).
    incidence_count = 3 * 8 + 2 * 7 + 9
    euler_e = 15 + 33 - 1
    data_issue_pinned = (
        actual == {(2, 1): 47, (4, 0): 7, (6, 1): 8}
        and incidence_count == 47
        and euler_e == 47
        and formula_text == "(1 - a^2)^47 * (1 - a^6)^8"
    )
    print(
        "ACCEPTANCE 1: DATA ISSUE - transcribed non-Pappus census has 47 "
        "weight-a^2 faces where the published count says 43; 47 is forced by "
        "the published vertex census (incidence and Euler counts above), and "
        "the determinant identity is the binding check."
    )
    report(
        1,
        data_issue_pinned and vr.agreement and elapsed < 10,
        f"determinant identity verified on the transcribed fiber in {elapsed:.1f}s "
        f"(formula {formula_text}); census mismatch reported as a data issue",
    )


def test_criterion_2_brute_force_oracle_equivalence():
    fibers = corpus_fibers()
    expected_closed_forms = {
        "one_line": lambda one, b: one - b(1),
        "coord_lines": lambda one, b: (one - b(1)) ** 2 * (one - b(2)) ** 2,
        "concurrent_lines": lambda one, b: (one - b(1)) ** 2
        * (one - b(2)) ** 2
        * (one - b(3)) ** 2
        * (one - b(1) * b(2) * b(3)),
        "parallel_affine": lambda one, b: (one - b(1)) * (one - b(2)),
    }
    checked = []
    for name, fiber in fibers.items():
        matrix = build_matrix(fiber)
        assert matrix.size <= 6
        bareiss = determinant(fiber)
        oracle = permutation_determinant(matrix.entries, matrix.nvars)
        expanded = product_formula(fiber).expand()
        one = P.one(matrix.nvars)
        b = lambda i: P.monomial(matrix.nvars, {2 * (i - 1): 1, 2 * (i - 1) + 1: 1})
        closed = expected_closed_forms[name](one, b)
        assert bareiss == oracle == expanded == closed, name
        checked.append(name)
    report(2, len(checked) == 4, f"permutation oracle = elimination = product on {checked}")


def test_criterion_3_theorem_property_suite():
    rng = random.Random(20260809)
    arrangement_runs = 0
    wiring_runs = 0
    symbolic_runs = 0
    randomized_runs = 0

    while arrangement_runs < 50:
        arr = random_central_arrangement(rng)
        s = checked_covectors(arr)
        fiber = topal_fiber(s, range(1, s.n + 1), s.members[0])
        if not fiber.topes:
            continue
        if len(fiber.topes) <= 16:
            vr = verify(fiber, mode="symbolic")
            symbolic_runs += 1
        else:
            vr = verify(fiber, mode="randomized", seed=rng.randrange(2**32), evals=5)
            randomized_runs += 1
        assert vr.agreement, arr
        arrangement_runs += 1

    while wiring_runs < 20:
        wd = random_wiring(rng)
        fiber = faces(wd)
        if len(fiber.topes) <= 16:
            vr = verify(fiber, mode="symbolic")
            symbolic_runs += 1
        else:
            vr = verify(fiber, mode="randomized", seed=rng.randrange(2**32), evals=5)
            randomized_runs += 1
        assert vr.agreement, wd
        wiring_runs += 1

    # pinned boundary cases: the largest mandatory-symbolic size (14 topes,
    # four generic planes in R^3) and a clearly-randomized one (32 topes)
    from omdet.realizable import RationalArrangement

    big_symbolic = enumerate_covectors(
        RationalArrangement.of([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    )
    fiber = topal_fiber(big_symbolic, range(1, 5), big_symbolic.members[0])
    assert len(fiber.topes) == 14
    vr = verify(fiber, mode="symbolic")
    assert vr.agreement
    symbolic_runs += 1

    big_random = enumerate_covectors(
        RationalArrangement.of(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, -1, 2], [2, 1, -1]]
        )
    )
    fiber = topal_fiber(big_random, range(1, 7), big_random.members[0])
    assert len(fiber.topes) > 16
    vr = verify(fiber, mode="randomized", seed=0, evals=5)
    assert vr.agreement
    randomized_runs += 1

    report(
        3,
        arrangement_runs == 50 and wiring_runs == 20,
        f"determinant = product on {arrangement_runs}+2 arrangements + {wiring_runs} "
        f"wiring diagrams ({symbolic_runs} symbolic, {randomized_runs} randomized), 0 failures",
    )


def test_criterion_4_multiplicity_well_defined():
    fibers = dict(corpus_fibers())
    fibers["non_pappus"] = faces(non_pappus())
    pairs_checked = 0
    for name, fiber in fibers.items():
        tables = {i: bmax_table(fiber, i) for i in fiber.free}
        for u in fiber.members:
            if u.is_tope:
                continue
            admissible = sorted(i for i in u.zero_set() if i in fiber.free)
            counts = []
            for i in admissible:
                count = sum(1 for w in tables[i].values() if w == u)
                assert count % 2 == 0, (name, str(u), i)
                counts.append(count // 2)
            assert len(set(counts)) == 1, (name, str(u))
            assert counts[0] == multiplicity(fiber, u)
            pairs_checked += len(admissible)
        for i in sorted(fiber.free):
            lhs = sum(
                2 * multiplicity(fiber, u)
                for u in fiber.members
                if not u.is_tope and u.sign(i) == 0
            )
            rhs = sum(1 for w in tables[i].values() if w is not None)
            assert lhs == rhs, (name, i)
    report(4, pairs_checked > 0, f"beta independent of the index on {len(fibers)} fibers "
                                 f"({pairs_checked} face-index pairs), counting identity holds")


def test_criterion_5_witt_and_cfd():
    rng = random.Random(5)
    witt_pairs = 0
    for name, s in corpus_sets().items():
        all_topes = topes(s)
        for d in all_topes:
            for a in s.members:
                if a == d or not leq(a, d):
                    continue
                for _ in range(100):
                    x = {t: rng.randint(-99, 99) for t in all_topes}
                    assert witt_check(s, a, d, x), (name, str(a), str(d))
                witt_pairs += 1

    cfd_triples = 0
    fibers = dict(corpus_fibers())
    fibers["non_pappus"] = faces(non_pappus())
    for name, fiber in fibers.items():
        for c in fiber.topes:
            below = [f for f in fiber.members if leq(f, c)]
            for d in fiber.topes:
                for face in below:
                    assert cfd_check(fiber, c, d, face), (name, str(c), str(d), str(face))
                    cfd_triples += 1
    report(
        5,
        witt_pairs > 0 and cfd_triples > 0,
        f"Witt identity on {witt_pairs} nested pairs x 100 assignments; "
        f"distance factorization on {cfd_triples} triples, all exact",
    )


def test_criterion_6_axiom_checker_sensitivity():
    mutations = 0
    for name, s in corpus_sets().items():
        assert check_covector_axioms(s).ok, name
        tope_set = set(topes(s))
        zero = SignVector.zero(s.n)
        for removed in s.members:
            if removed in tope_set or removed == zero:
                continue
            mutated = CovectorSet.of([m for m in s.members if m != removed])
            assert not check_covector_axioms(mutated).ok, (name, str(removed))
            mutations += 1
    report(6, mutations > 0, f"{mutations} single-deletion mutants all rejected, "
                             "originals all accepted, 0 misclassifications")


def test_criterion_7_cli_determinism(tmp_path):
    cov_path = tmp_path / "np.cov"
    cov_path.write_text(format_cov(faces(non_pappus())))

    def run_cli(*extra):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "omdet.cli",
                "verify",
                str(cov_path),
                "--specialize",
                "all=a",
                "--format",
                "json",
                "--seed",
                "11",
                *extra,
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    first = run_cli()
    second = run_cli()
    with_workers = run_cli("--workers", "3")
    ok = first == second == with_workers
    # also a text-mode command, byte for byte
    text = [
        subprocess.run(
            [sys.executable, "-m", "omdet.cli", "faces", str(cov_path)],
            capture_output=True,
        ).stdout
        for _ in range(2)
    ]
    ok = ok and text[0] == text[1]
    report(7, ok, "byte-identical CLI output across repeat runs and worker counts")
