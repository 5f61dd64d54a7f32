import json
import random

import pytest

from omdet.polyring import FactoredPoly, IntPolynomial, Specialization, poly_str, residues_mod
from omdet.signvec import SignVector, compose, leq, topal_fiber, topes
from omdet.varchenko import (
    SizeGuardError,
    build_matrix,
    cfd_check,
    degree_bound,
    determinant,
    det_mod,
    distance,
    draw_prime,
    is_probable_prime,
    product_formula,
    randomized_compare,
    verify,
    weight_monomial,
    witt_check,
)
from omdet.wiring import faces, non_pappus

from oracle import (
    concurrent_lines,
    coord_lines,
    corpus_fibers,
    corpus_sets,
    one_line,
    parallel_affine,
    permutation_determinant,
    residue_oracle,
    specialization_mapping,
    substitute,
    substitute_factored,
    whole_fiber,
)

sv = SignVector.from_string
P = IntPolynomial


def pair(nvars, i):
    """b_i = a_ip * a_im."""
    return P.monomial(nvars, {2 * (i - 1): 1, 2 * (i - 1) + 1: 1})


class TestDistance:
    def test_self_distance_is_one(self):
        assert distance(sv("+-"), sv("+-"), [1, 2]) == P.one(4)

    def test_single_separation(self):
        assert distance(sv("++"), sv("-+"), [1, 2]) == P.variable(4, 0)  # a1p

    def test_two_separations_signs_from_first_argument(self):
        d = distance(sv("+-"), sv("-+"), [1, 2])
        assert d == P.monomial(4, {0: 1, 3: 1})  # a1p * a2m

    def test_free_set_restriction(self):
        d = distance(sv("+-"), sv("-+"), [2])
        assert d == P.monomial(4, {3: 1})

    def test_rejects_non_topes(self):
        with pytest.raises(ValueError):
            distance(sv("0+"), sv("++"), [1, 2])


class TestMatrix:
    def test_one_line_matrix(self):
        m = build_matrix(whole_fiber(one_line()))
        # canonical tope order is (-), (+)
        assert [str(t) for t in m.tope_order] == ["-", "+"]
        assert [[poly_str(e) for e in row] for row in m.entries] == [
            ["1", "a1m"],
            ["a1p", "1"],
        ]

    def test_single_tope_fiber(self):
        s = coord_lines()
        t = topes(s)[0]
        f = topal_fiber(s, [], t)
        m = build_matrix(f)
        assert m.size == 1 and m.entries[0][0] == P.one(4)

    def test_coord_lines_distinct_values(self):
        m = build_matrix(whole_fiber(coord_lines()))
        values = {poly_str(e) for row in m.entries for e in row}
        assert len(values) == 9

    def test_diagonal_ones_and_reciprocity(self):
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        one = P.one(m.nvars)
        for r in range(m.size):
            assert m.entry(r, r) == one
            for c in range(m.size):
                prod = m.entry(r, c) * m.entry(c, r)
                sep = [
                    i
                    for i in sorted(f.free)
                    if m.tope_order[r].sign(i) == -m.tope_order[c].sign(i) != 0
                ]
                expected = P.one(m.nvars)
                for i in sep:
                    expected = expected * pair(m.nvars, i)
                assert prod == expected


class TestDeterminant:
    def test_one_line(self):
        m = build_matrix(whole_fiber(one_line()))
        assert determinant(m) == P.one(2) - pair(2, 1)

    def test_coord_lines_closed_form(self):
        det = determinant(build_matrix(whole_fiber(coord_lines())))
        one = P.one(4)
        assert det == (one - pair(4, 1)) ** 2 * (one - pair(4, 2)) ** 2

    def test_concurrent_lines_closed_form(self):
        det = determinant(build_matrix(whole_fiber(concurrent_lines())))
        one = P.one(6)
        expected = (
            (one - pair(6, 1)) ** 2
            * (one - pair(6, 2)) ** 2
            * (one - pair(6, 3)) ** 2
            * (one - pair(6, 1) * pair(6, 2) * pair(6, 3))
        )
        assert det == expected

    def test_parallel_affine_closed_form(self):
        det = determinant(build_matrix(parallel_affine()))
        one = P.one(6)
        assert det == (one - pair(6, 1)) * (one - pair(6, 2))

    def test_matches_permutation_oracle(self):
        for name, f in corpus_fibers().items():
            m = build_matrix(f)
            assert determinant(m) == permutation_determinant(m.entries, m.nvars), name

    def test_constant_term_is_one(self):
        for name, f in corpus_fibers().items():
            assert determinant(build_matrix(f)).constant_term() == 1, name

    def test_invariant_under_tope_permutation(self):
        rng = random.Random(13)
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        base = determinant(m)
        from omdet.varchenko import bareiss_determinant

        for _ in range(5):
            order = list(range(m.size))
            rng.shuffle(order)
            rows = [[m.entry(r, c) for c in order] for r in order]
            assert bareiss_determinant(rows, m.nvars) == base

    def test_size_guard(self):
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        with pytest.raises(SizeGuardError):
            determinant(m, max_topes=4)
        assert determinant(m, max_topes=4, force=True) == determinant(m)


class TestProductFormula:
    def test_one_line(self):
        pf = product_formula(whole_fiber(one_line()))
        assert pf.factors == ((P.one(2) - pair(2, 1), 1),)

    def test_coord_lines_center_omitted(self):
        pf = product_formula(whole_fiber(coord_lines()))
        one = P.one(4)
        assert pf.factors == ((one - pair(4, 1), 2), (one - pair(4, 2), 2))

    def test_weight_monomial(self):
        w = weight_monomial(sv("0+0"), 6)
        assert w == pair(6, 1) * pair(6, 3)

    def test_agrees_with_determinant_on_corpus(self):
        for name, f in corpus_fibers().items():
            assert determinant(build_matrix(f)) == product_formula(f).expand(), name


class TestModularPieces:
    def test_miller_rabin_small(self):
        for p in [2, 3, 5, 7, 61, 97, 101, 2305843009213693951]:
            assert is_probable_prime(p), p
        for c in [1, 4, 9, 91, 561, 2**61]:
            assert not is_probable_prime(c), c

    def test_draw_prime_is_deterministic(self):
        assert draw_prime(random.Random(0)) == draw_prime(random.Random(0))
        p = draw_prime(random.Random(42))
        assert p.bit_length() == 61 and is_probable_prime(p)

    def test_det_mod_matches_symbolic(self):
        rng = random.Random(19)
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        det = determinant(m)
        prime = draw_prime(rng)
        for _ in range(3):
            assignment = {v: rng.randrange(prime) for v in range(m.nvars)}
            rows = [[e.eval_mod(assignment, prime) for e in row] for row in m.entries]
            assert det_mod(rows, prime) == det.eval_mod(assignment, prime)

    def test_det_mod_singular(self):
        assert det_mod([[1, 2], [2, 4]], 101) == 0


class TestVerify:
    def test_symbolic_one_line(self):
        report = verify(whole_fiber(one_line()), mode="symbolic")
        assert report.agreement and report.mode == "symbolic"
        assert report.determinant == P.one(2) - pair(2, 1)

    def test_auto_switches_to_randomized(self):
        f = whole_fiber(concurrent_lines())
        report = verify(f, mode="auto", max_topes=4)
        assert report.mode == "randomized" and report.agreement

    def test_symbolic_guard(self):
        f = whole_fiber(concurrent_lines())
        with pytest.raises(SizeGuardError):
            verify(f, mode="symbolic", max_topes=4)
        report = verify(f, mode="symbolic", max_topes=4, force_symbolic=True)
        assert report.agreement

    def test_randomized_reproducible(self):
        f = whole_fiber(coord_lines())
        a = verify(f, mode="randomized", seed=7, evals=4)
        b = verify(f, mode="randomized", seed=7, evals=4)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
        c = verify(f, mode="randomized", seed=8, evals=4)
        assert json.dumps(a.to_json()) != json.dumps(c.to_json())

    def test_worker_count_does_not_change_results(self):
        f = whole_fiber(concurrent_lines())
        a = verify(f, mode="randomized", seed=3, evals=6, workers=1)
        b = verify(f, mode="randomized", seed=3, evals=6, workers=4)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    def test_mutated_formula_detected(self):
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        pf = product_formula(f)
        # tamper with one exponent
        tampered = FactoredPoly(
            pf.nvars, [(base, exp + (1 if i == 0 else 0)) for i, (base, exp) in enumerate(pf.factors)]
        )
        prime, records = randomized_compare(m.entries, tampered, seed=0, evals=5)
        assert not all(r.match for r in records)

    def test_report_json_schema(self):
        f = whole_fiber(coord_lines())
        doc = verify(f, mode="randomized", seed=0, evals=3).to_json()
        assert set(doc) == {"mode", "topes", "faces", "formula", "agreement", "evals"}
        assert doc["topes"] == 4
        assert {face["covector"] for face in doc["faces"]} == {"00", "0-", "0+", "-0", "+0"}
        for face in doc["faces"]:
            assert set(face) == {"covector", "weight", "beta"}
        assert doc["evals"]["count"] == 3
        sym = verify(f, mode="symbolic").to_json()
        assert "determinant" in sym and "evals" not in sym

    def test_specialized_verify(self):
        f = whole_fiber(coord_lines())
        spec = Specialization.collapse_all(2 * f.n)
        report = verify(f, mode="symbolic", specialize=spec)
        assert report.agreement
        from omdet.polyring import factored_str

        assert factored_str(report.formula, report.names) == "(1 - a^2)^4"


class TestCfd:
    def test_face_equal_to_first_tope(self):
        f = whole_fiber(concurrent_lines())
        c, d = f.topes[0], f.topes[3]
        assert cfd_check(f, c, d, c)

    def test_zero_face(self):
        f = whole_fiber(concurrent_lines())
        zero = SignVector.zero(3)
        assert cfd_check(f, f.topes[1], f.topes[4], zero)

    def test_exhaustive_on_corpus(self):
        for name, f in corpus_fibers().items():
            for c in f.topes:
                for d in f.topes:
                    for face in f.members:
                        if leq(face, c):
                            assert cfd_check(f, c, d, face), (name, str(c), str(d), str(face))

    def test_precondition_violations(self):
        f = whole_fiber(concurrent_lines())
        with pytest.raises(ValueError):
            cfd_check(f, f.topes[0], f.topes[1], f.topes[2])  # face not below c


class TestWitt:
    def test_one_line_hand_expansion(self):
        s = one_line()
        # A=(0), D=(+): LHS = x(+) - (x(+) + x(-)) = -x(-); RHS = -x(-)
        for x_minus in (-3, 0, 5):
            x = {sv("+"): 2, sv("-"): x_minus}
            assert witt_check(s, sv("0"), sv("+"), x)

    def test_zero_assignment(self):
        s = concurrent_lines()
        assert witt_check(s, SignVector.zero(3), topes(s)[0], {})

    def test_random_assignments_on_corpus(self):
        rng = random.Random(29)
        for name, s in corpus_sets().items():
            all_topes = topes(s)
            for d in all_topes:
                for a in s.members:
                    if a != d and leq(a, d):
                        for _ in range(10):
                            x = {t: rng.randint(-9, 9) for t in all_topes}
                            assert witt_check(s, a, d, x), (name, str(a), str(d))

    def test_preconditions(self):
        s = concurrent_lines()
        t = topes(s)[0]
        with pytest.raises(ValueError):
            witt_check(s, t, t, {})
        with pytest.raises(ValueError):
            witt_check(s, SignVector.zero(3), SignVector.zero(3), {})


class TestDegreeBound:
    def test_equals_row_bound_when_sides_agree(self):
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        pf = product_formula(f)
        rows = sum(max(e.total_degree() for e in row) for row in m.entries)
        assert degree_bound(m.entries, pf) == rows == pf.total_degree()

    def test_covers_a_formula_of_higher_degree(self):
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        pf = product_formula(f)
        top, exp = pf.factors[-1]
        tampered = FactoredPoly(pf.nvars, list(pf.factors[:-1]) + [(top, exp + 2)])
        assert tampered.total_degree() > degree_bound(m.entries, pf)
        assert degree_bound(m.entries, tampered) == tampered.total_degree()


def _specialization_maps(nvars):
    """(specialization, the {variable: int or "a"} map it was built from)."""
    yield Specialization.collapse_all(nvars), dict.fromkeys(range(nvars), "a")
    yield Specialization.constants(nvars, {0: 0}), {0: 0}
    # every variable pinned: no variable is left to draw
    pinned = {v: (v % 3) - 1 for v in range(nvars)}
    yield Specialization.constants(nvars, pinned), pinned
    mixed = {v: "a" if v % 2 else 1 - v for v in range(nvars)}
    yield Specialization.of(nvars, mixed), mixed


def _specializations(nvars):
    yield None
    for spec, _ in _specialization_maps(nvars):
        yield spec


class TestSpecializationOracle:
    """The per-variable key map against the general substitution homomorphism."""

    def test_matrices_and_formulas_match_oracle(self):
        fibers = dict(corpus_fibers(), non_pappus=faces(non_pappus()))
        for name, f in fibers.items():
            m = build_matrix(f)
            pf = product_formula(f)
            for spec, values in _specialization_maps(m.nvars):
                mapping, nvars = specialization_mapping(m.nvars, values)
                for row in m.entries:
                    assert [spec.apply_poly(e) for e in row] == [substitute(e, mapping, nvars) for e in row], name
                assert spec.apply_factored(pf) == substitute_factored(pf, mapping, nvars), name


class TestResidueOracle:
    """The packed-key residue walk against per-monomial pow."""

    def test_entries_match_oracle(self):
        rng = random.Random(31)
        for name, f in corpus_fibers().items():
            m = build_matrix(f)
            for spec in _specializations(m.nvars):
                entries = m.entries if spec is None else [[spec.apply_poly(e) for e in row] for row in m.entries]
                nvars = m.nvars if spec is None else spec.nvars
                prime = draw_prime(rng)
                at = {v: rng.randrange(prime) for v in range(nvars)}
                flat = [e for row in entries for e in row]
                assert residues_mod(flat, at, prime) == [residue_oracle(e, at, prime) for e in flat], name

    def test_randomized_compare_matches_oracle(self):
        for name, f in corpus_fibers().items():
            m = build_matrix(f)
            for spec in _specializations(m.nvars):
                entries = m.entries if spec is None else [[spec.apply_poly(e) for e in row] for row in m.entries]
                formula = product_formula(f) if spec is None else spec.apply_factored(product_formula(f))
                names = None if spec is None else spec.names
                nvars = formula.nvars
                index = {poly_str(P.variable(nvars, v), names): v for v in range(nvars)}
                prime, records = randomized_compare(entries, formula, seed=11, evals=3, names=names)
                for rec in records:
                    at = {index[label]: value for label, value in rec.assignment.items()}
                    rows = [[residue_oracle(e, at, prime) for e in row] for row in entries]
                    expected = 1
                    for base, exp in formula.factors:
                        expected = expected * pow(residue_oracle(base, at, prime), exp, prime) % prime
                    assert rec.det_residue == det_mod(rows, prime), name
                    assert rec.formula_residue == expected, name
                    assert rec.match, name
