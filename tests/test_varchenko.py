import dataclasses
import json
import random
from functools import cache
from itertools import accumulate
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

import omdet.varchenko
from omdet.polyring import (
    LANE_BITS,
    MAX_EXPONENT,
    ExponentOverflowError,
    FactoredPoly,
    IntPolynomial,
    Specialization,
    _guard_mask,
    factored_str,
    pack_monomial,
    poly_str,
    residues_mod,
    used_variables,
    var_index,
    var_label,
)
from omdet.realizable import RationalArrangement, arrangement_fiber, enumerate_covectors
from omdet.signvec import (
    FiberError,
    FiberView,
    SignVector,
    check_covector_axioms,
    compose,
    fiber_of,
    leq,
    parse_cov,
    topal_fiber,
    topes,
)
from omdet.varchenko import (
    _KRONECKER_BITS,
    EvalRecord,
    SizeGuardError,
    VarchenkoMatrix,
    _agrees,
    _chunk_bounds,
    _eliminate,
    _eliminate_norm,
    _face_masks,
    _flat_betas,
    _FlatText,
    _flat_residues,
    _kronecker_width,
    _lane_check,
    _lane_bytes,
    _lane_min,
    _lane_reducer,
    _map_of,
    _mirror,
    _pack,
    _update,
    _value_at,
    bareiss_determinant,
    build_matrix,
    determinant,
    det_mod,
    draw_prime,
    face_multiplicities,
    factored_bareiss,
    is_probable_prime,
    product_formula,
    randomized_compare,
    verify,
    weight_monomial,
)
from omdet.wiring import WiringDiagram, faces, non_pappus

from oracle import (
    _lane_bits,
    bareiss_minors,
    cfd_check,
    checked_fiber,
    concurrent_lines,
    constant_term,
    coord_lines,
    corpus_fibers,
    corpus_sets,
    degree_bound,
    distance,
    entry_residues,
    fused_bareiss,
    mask_support,
    miller_rabin_12,
    norm_det_mod,
    one_line,
    pack_rows,
    parallel_affine,
    parse_poly,
    per_face_formula,
    permutation_determinant,
    random_central_arrangement,
    random_wiring,
    residue_oracle,
    row_det_mod,
    specialization_mapping,
    substitute,
    substitute_factored,
    swap_sides,
    whole_fiber,
    witt_check,
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

    def test_loops_of_a_verified_set_come_first(self):
        # a verified set is not re-checked as a fiber; its loop is named before its missing topes
        s = parse_cov("n=2\n00\n0+\n0-\n")
        assert check_covector_axioms(s).ok and s.verified
        f = topal_fiber(s, [1, 2], sv("00"))
        for build in (build_matrix, face_multiplicities, product_formula):
            with pytest.raises(FiberError) as exc:
                build(f)
            assert str(exc.value) == "the covector set has loops at indices [1]"

    def test_map_on_other_variables_is_rejected(self, monkeypatch):
        # three concurrent lines have 6 variables; both maps fail before any reading of the matrix
        f = whole_fiber(concurrent_lines())
        calls = _spy(monkeypatch, "_valid_topes")
        for size in (2, 10):
            spec = Specialization.collapse_all(size)
            message = f"the map is on {size} variables, but the fiber has 6"
            for run in (build_matrix, determinant, lambda f, spec: verify(f, mode="symbolic", specialize=spec)):
                with pytest.raises(ValueError, match=message):
                    run(f, spec)
        assert calls == []

    def test_coord_lines_distinct_values(self):
        m = build_matrix(whole_fiber(coord_lines()))
        values = {poly_str(e) for row in m.entries for e in row}
        assert len(values) == 9

    def test_diagonal_ones_and_reciprocity(self):
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        one = P.one(m.nvars)
        for r in range(m.size):
            assert m.entries[r][r] == one
            for c in range(m.size):
                prod = m.entries[r][c] * m.entries[c][r]
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
        assert determinant(whole_fiber(one_line())) == P.one(2) - pair(2, 1)

    def test_coord_lines_closed_form(self):
        det = determinant(whole_fiber(coord_lines()))
        one = P.one(4)
        assert det == (one - pair(4, 1)) ** 2 * (one - pair(4, 2)) ** 2

    def test_concurrent_lines_closed_form(self):
        det = determinant(whole_fiber(concurrent_lines()))
        one = P.one(6)
        expected = (
            (one - pair(6, 1)) ** 2
            * (one - pair(6, 2)) ** 2
            * (one - pair(6, 3)) ** 2
            * (one - pair(6, 1) * pair(6, 2) * pair(6, 3))
        )
        assert det == expected

    def test_parallel_affine_closed_form(self):
        det = determinant(parallel_affine())
        one = P.one(6)
        assert det == (one - pair(6, 1)) * (one - pair(6, 2))

    def test_matches_permutation_oracle(self):
        for name, f in corpus_fibers().items():
            m = build_matrix(f)
            assert determinant(f) == permutation_determinant(m.entries, m.nvars), name

    def test_constant_term_is_one(self):
        for name, f in corpus_fibers().items():
            assert constant_term(determinant(f)) == 1, name

    def test_invariant_under_tope_permutation(self):
        rng = random.Random(13)
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        base = determinant(f)
        from omdet.varchenko import bareiss_determinant

        for _ in range(5):
            order = list(range(m.size))
            rng.shuffle(order)
            rows = [[m.entries[r][c] for c in order] for r in order]
            assert bareiss_determinant(rows, m.nvars) == base

    def test_size_guard(self, monkeypatch):
        f = whole_fiber(concurrent_lines())
        unguarded = determinant(f)
        monkeypatch.setattr(omdet.varchenko, "SYMBOLIC_LIMIT", 4)
        with pytest.raises(SizeGuardError):
            determinant(f)
        assert determinant(f, force=True) == unguarded

    def test_overrides_are_keyword_only(self):
        # a positional third argument used to be max_topes; it must not
        # become a truthy override that skips the guard
        f = whole_fiber(concurrent_lines())
        with pytest.raises(TypeError):
            determinant(f, None, 16)
        with pytest.raises(TypeError):
            verify(f, "symbolic", 0, 5, None, 16)

    def test_size_guard_runs_before_the_matrix(self, monkeypatch):
        def no_matrix(f):
            raise AssertionError("the matrix was built past the guard")

        monkeypatch.setattr(omdet.varchenko, "build_matrix", no_matrix)
        monkeypatch.setattr(omdet.varchenko, "SYMBOLIC_LIMIT", 4)
        with pytest.raises(SizeGuardError):
            determinant(whole_fiber(concurrent_lines()))

    def test_specialized_matches_the_specialized_formula(self):
        for name, f in corpus_fibers().items():
            m = build_matrix(f)
            for spec in _specializations(m.nvars):
                formula = product_formula(f, spec)
                rows = m.entries if spec is None else [[spec.apply_poly(e) for e in row] for row in m.entries]
                assert determinant(f, spec) == permutation_determinant(rows, formula.nvars), name
                assert determinant(f, spec) == formula.expand(), name


class TestProductFormula:
    def test_one_line(self):
        pf = product_formula(whole_fiber(one_line()))
        assert pf.factors == ((P.one(2) - pair(2, 1), 1),)

    def test_coord_lines_center_omitted(self):
        pf = product_formula(whole_fiber(coord_lines()))
        one = P.one(4)
        assert pf.factors == ((one - pair(4, 1), 2), (one - pair(4, 2), 2))

    def test_specialized_formula_is_the_image(self):
        f = whole_fiber(concurrent_lines())
        for spec in _specializations(2 * f.n):
            expected = product_formula(f) if spec is None else spec.apply_factored(product_formula(f))
            assert product_formula(f, spec) == expected

    def test_multiplicities_are_computed_once(self, monkeypatch):
        f = whole_fiber(concurrent_lines())
        faces = face_multiplicities(f)
        monkeypatch.setattr(omdet.varchenko, "_multiplicity", None)
        assert face_multiplicities(f) is faces
        assert verify(f, mode="symbolic").agreement

    def test_weight_monomial(self):
        w = weight_monomial(sv("0+0"), 6)
        assert w == pair(6, 1) * pair(6, 3)

    def test_agrees_with_determinant_on_corpus(self):
        for name, f in corpus_fibers().items():
            assert determinant(f) == product_formula(f).expand(), name

    def test_unspecialized_bases_are_irreducible_and_distinct(self):
        # the claim behind _expanded_quotient: without a map no fallback is needed
        sympy = pytest.importorskip("sympy")
        fibers = dict(corpus_fibers(), non_pappus=faces(non_pappus()))
        for name, f in fibers.items():
            seen = set()
            for base, _ in product_formula(f).factors:
                content, factors = sympy.factor_list(sympy.sympify(poly_str(base).replace("^", "**")))
                assert abs(content) == 1 and len(factors) == 1 and factors[0][1] == 1, (name, str(base))
                assert factors[0][0] not in seen, (name, str(base))
                seen.add(factors[0][0])


class TestModularPieces:
    def test_miller_rabin_small(self):
        for p in [2, 3, 5, 7, 61, 97, 101, 2305843009213693951]:
            assert is_probable_prime(p), p
        for c in [1, 4, 9, 91, 561, 2**61]:
            assert not is_probable_prime(c), c

    def test_miller_rabin_matches_the_12_witness_oracle(self):
        # below 2^64 the 7 bases decide; 73 and 193 divide the base 28178, which they skip at 0
        rng = random.Random(27)
        drawn = [rng.randrange(1 << 60, 1 << 61) | 1 for _ in range(300)]
        wide = [2**64 - 59, 2**64 + 13, 2**89 - 1, (2**61 - 1) ** 2, (2**31 - 1) * (2**61 - 1)]
        for n in [*range(20_000), *drawn, *wide, 3825123056546413051]:
            assert is_probable_prime(n) == miller_rabin_12(n), n
        # a strong pseudoprime to the bases 2, 3, ..., 23
        assert not is_probable_prime(3825123056546413051)
        assert is_probable_prime(73) and is_probable_prime(193) and is_probable_prime(2**89 - 1)

    def test_draw_prime_matches_the_12_witness_oracle(self):
        for seed in range(300):
            rng = random.Random(seed)
            candidate = rng.randrange(1 << 60, 1 << 61) | 1
            while not miller_rabin_12(candidate):
                candidate += 2
            assert draw_prime(random.Random(seed)) == candidate, seed

    def test_draw_prime_is_deterministic(self):
        assert draw_prime(random.Random(0)) == draw_prime(random.Random(0))
        p = draw_prime(random.Random(42))
        assert p.bit_length() == 61 and is_probable_prime(p)

    def test_det_mod_matches_symbolic(self):
        rng = random.Random(19)
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        det = determinant(f)
        prime = draw_prime(rng)
        for _ in range(3):
            assignment = {v: rng.randrange(prime) for v in range(m.nvars)}
            rows = [[e.eval_mod(assignment, prime) for e in row] for row in m.entries]
            assert det_mod(rows, prime) == det.eval_mod(assignment, prime)

    def test_det_mod_singular(self):
        assert det_mod([[1, 2], [2, 4]], 101) == 0


def _next_prime(n: int) -> int:
    n += 1
    while not is_probable_prime(n):
        n += 1
    return n


DET_MOD_PRIMES = (2, 3, 101, _next_prime(2**60), 2**61 - 1, draw_prime(random.Random(3)))


def _square(data, prime: int, m: int):
    entry = st.integers(-3 * prime, 3 * prime)
    return data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))


class TestDetModPacked:
    """The packed-row kernel against the row-list oracle."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_row_oracle(self, data):
        prime = data.draw(st.sampled_from(DET_MOD_PRIMES))
        rows = _square(data, prime, data.draw(st.integers(0, 12)))
        assert det_mod(rows, prime) == row_det_mod(rows, prime)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_singular(self, data):
        prime = data.draw(st.sampled_from(DET_MOD_PRIMES))
        m = data.draw(st.integers(2, 12))
        rows = _square(data, prime, m)
        i, j = data.draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        if data.draw(st.booleans()):
            rows[j] = list(rows[i])
        else:
            for row in rows:
                row[i] = data.draw(st.sampled_from((0, prime, -prime, 3 * prime)))
        assert det_mod(rows, prime) == 0 == row_det_mod(rows, prime)

    @staticmethod
    def _permuted_triangular(data, prime: int, m: int, order):
        """Upper-triangular rows, zero mod prime below the diagonal, placed in the given row order.

        Eliminating column k then has to find the row that holds diagonal k
        wherever the order put it; the determinant is the permutation's sign
        times the diagonal product.
        """
        rows = _square(data, prime, m)
        diagonal = []
        for k in range(m):
            d = data.draw(st.integers(1, prime - 1)) + prime * data.draw(st.integers(-3, 2))
            rows[k][k] = d
            diagonal.append(d)
            for r in range(k + 1, m):
                rows[r][k] = prime * data.draw(st.integers(-3, 3))
        placed = [rows[order.index(position)] for position in range(m)]
        inversions = sum(order[i] > order[j] for i in range(m) for j in range(i + 1, m))
        expected = -1 if inversions % 2 else 1
        for d in diagonal:
            expected = expected * d % prime
        return placed, expected % prime

    @pytest.mark.parametrize("distance", [1, 2, 3, 4])
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_pivot_search_at_distance(self, distance, data):
        prime = data.draw(st.sampled_from(DET_MOD_PRIMES))
        m = data.draw(st.integers(distance + 1, 12))
        # row k sits at position k + distance (mod m), and the swaps keep it
        # there until step k: every step with k + distance < m searches
        # exactly that far down
        order = [(k + distance) % m for k in range(m)]
        rows, expected = self._permuted_triangular(data, prime, m, order)
        assert det_mod(rows, prime) == row_det_mod(rows, prime) == expected

    def test_lane_bound_at_250_rows(self):
        # entry p - 1 - min(r, c): at every step the multiplier is p - 1 and
        # the pivot's lanes are congruent to p - 1, so the last row's lanes
        # take 249 additions of at least (p - 1)^2, more than 2^128 in all;
        # packed unreduced, each lane also starts p(p - 1) higher, just below p^2
        prime = DET_MOD_PRIMES[-1]
        m = 250
        rows = [[prime - 1 - min(r, c) for c in range(m)] for r in range(m)]
        assert det_mod(rows, prime) == row_det_mod(rows, prime) == (-1) ** m % prime
        lifted = [[x + prime * (prime - 1) for x in row] for row in rows]
        assert _eliminate([pack_rows(lifted, prime)], prime) == [(-1) ** m % prime]

    def test_pivot_row_reduction(self):
        # the SWAR Barrett reduction takes every lane below 2^a to a congruent
        # value below 3p, and the bound is reached
        quotients = []

        def reduce_lanes(prime, m, lanes):
            w = _lane_bits(prime, m)
            packed = _lane_reducer(prime, m)(sum(x << (w * (m - 1 - c)) for c, x in enumerate(lanes)))
            assert 0 <= packed < 1 << (w * m)
            reduced = [(packed >> (w * (m - 1 - c))) & ((1 << w) - 1) for c in range(m)]
            for x, r in zip(lanes, reduced):
                assert 0 <= r < 3 * prime and (x - r) % prime == 0
            quotients.append(max(r // prime for r in reduced))

        @settings(derandomize=True, max_examples=300, deadline=None)
        @given(data=st.data())
        def check(data):
            prime = data.draw(st.sampled_from(DET_MOD_PRIMES))
            m = data.draw(st.integers(1, 12))
            a = 2 * prime.bit_length() + (3 * m + 1).bit_length()
            reduce_lanes(prime, m, data.draw(st.lists(st.integers(0, 2**a - 1), min_size=m, max_size=m)))

        check()
        # a fixed lane that reaches 2p, whatever the drawn examples are: 131007 < 2^17, m = 1 and p = 101
        reduce_lanes(101, 1, [131007])
        assert max(quotients) == 2

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_unreduced_lanes(self, data):
        # the randomized path packs residues unreduced: a lane may start anywhere below p^2
        prime = data.draw(st.sampled_from(DET_MOD_PRIMES))
        m = data.draw(st.integers(0, 12))
        rows = _square(data, prime, m)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        lanes = [[x % prime + prime * rng.choice((prime - 1, rng.randrange(prime))) for x in row] for row in rows]
        assert _eliminate([pack_rows(lanes, prime)], prime) == [row_det_mod(rows, prime)]


def _spy(monkeypatch, name, owner=omdet.varchenko):
    """The calls of owner.<name>, which still runs, as a list of their positional arguments."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kw: calls.append(args) or real(*args, **kw))
    return calls


class TestVerify:
    def test_symbolic_one_line(self):
        report = verify(whole_fiber(one_line()), mode="symbolic")
        assert report.agreement and report.mode == "symbolic"
        assert report.determinant == P.one(2) - pair(2, 1)

    def test_auto_switches_to_randomized(self, monkeypatch):
        f = whole_fiber(concurrent_lines())
        monkeypatch.setattr(omdet.varchenko, "SYMBOLIC_LIMIT", 4)
        report = verify(f, mode="auto")
        assert report.mode == "randomized" and report.agreement

    def test_symbolic_guard(self, monkeypatch):
        f = whole_fiber(concurrent_lines())
        monkeypatch.setattr(omdet.varchenko, "SYMBOLIC_LIMIT", 4)
        with pytest.raises(SizeGuardError):
            verify(f, mode="symbolic")
        report = verify(f, mode="symbolic", force_symbolic=True)
        assert report.agreement

    def test_symbolic_verify_makes_one_of_each(self, monkeypatch):
        # one matrix, one closed form and one elimination per symbolic verdict, with or without a map
        f = whole_fiber(concurrent_lines())
        for spec in (None, Specialization.collapse_all(2 * f.n)):
            spies = [_spy(monkeypatch, name) for name in ("build_matrix", "product_formula", "_bareiss")]
            assert verify(f, mode="symbolic", specialize=spec).agreement
            assert [len(calls) for calls in spies] == [1, 1, 1]
            monkeypatch.undo()

    def test_randomized_reproducible(self):
        f = whole_fiber(coord_lines())
        a = verify(f, mode="randomized", seed=7, evals=4)
        b = verify(f, mode="randomized", seed=7, evals=4)
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())
        c = verify(f, mode="randomized", seed=8, evals=4)
        assert json.dumps(a.to_json()) != json.dumps(c.to_json())

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

    def test_report_lines_show_a_mismatch(self):
        report = verify(whole_fiber(one_line()), mode="randomized", seed=0, evals=1)
        rec = report.evals[0]
        bad = dataclasses.replace(report, agreement=False, evals=(rec, EvalRecord(rec.assignment, 1, 2)))
        assert bad.lines() == [
            "mode: randomized",
            "topes: 2",
            "formula: (1 - a1p*a1m)",
            f"prime: {report.prime}",
            f"degree bound: {report.degree_bound}",
            f"eval 0: det={rec.det_residue} formula={rec.formula_residue} match",
            "eval 1: det=1 formula=2 MISMATCH",
            "agreement: false",
        ]

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

        assert factored_str(report.formula) == "(1 - a^2)^4"


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
        assert verify(f, mode="randomized").degree_bound == rows

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
    yield Specialization.of(nvars, {0: 0}), {0: 0}
    # every variable pinned: no variable is left to draw
    pinned = {v: (v % 3) - 1 for v in range(nvars)}
    yield Specialization.of(nvars, pinned), pinned
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
                nvars = formula.nvars
                index = {poly_str(P.variable(nvars, v)): v for v in range(nvars)}
                prime, records = randomized_compare(entries, formula, seed=11, evals=3)
                for rec in records:
                    at = {index[label]: value for label, value in rec.assignment.items()}
                    rows = [[residue_oracle(e, at, prime) for e in row] for row in entries]
                    expected = 1
                    for base, exp in formula.factors:
                        expected = expected * pow(residue_oracle(base, at, prime), exp, prime) % prime
                    assert rec.det_residue == det_mod(rows, prime), name
                    assert rec.formula_residue == expected, name
                    assert rec.match, name


@cache
def _wide_fiber():
    """concurrent_lines() on indices 1, 33 and 64 of 64, + elsewhere: a free set far from contiguous."""

    def spread(v):
        signs = ["+"] * 64
        for pos, ch in zip((1, 33, 64), str(v)):
            signs[pos - 1] = ch
        return "".join(signs)

    s = concurrent_lines()
    lines = ["n=64", "I=1,33,64", f"u={spread(topes(s)[0])}", *map(spread, s.members)]
    return parse_cov("\n".join(lines) + "\n")


def _reversal(wires: int) -> WiringDiagram:
    return WiringDiagram.of(wires, [(k, k + 1) for i in range(wires) for k in range(wires - 1 - i)])


# the chunked fibers past the one-table bound 2^k <= size^2, with 2, 3 and 7 chunks
_PAST = ["lines-9", "lines-20", "wires-17", "wires-64"]


def _map_values(kind: str) -> dict:
    """{source variable: value} of a map written as on the command line, such as "a1p=0,a2m=-3"."""
    return {var_index(v): int(x) for v, x in (item.split("=") for item in kind.split(","))}


@cache
def _chunked_fibers():
    """Fibers whose free sets leave out indices, or span several residue chunks."""
    planes = RationalArrangement.of([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]])
    s = enumerate_covectors(planes)
    affine = RationalArrangement.of([[1, 0], [0, 1], [1, 1], [1, -1]], [0, 1, 2, -1], affine=True)
    return {
        "affine": arrangement_fiber(affine),
        "fiber-subset": topal_fiber(s, (1, 2, 4, 6), topes(s)[0]),
        "wide": _wide_fiber(),
        "reversal-9": faces(_reversal(9)),
        "reversal-10": faces(_reversal(10)),
        # 16 topes and 8 separating indices: one table of 2^8 = 16^2 products, at the one-chunk bound
        "wires-8": faces(WiringDiagram.of(8, [(k, k + 1) for k in range(7)])),
        # lines through the origin in R^2: negation-closed, 2n topes and n separating indices, past the bound
        "lines-9": _central_lines(9),
        "lines-10": _central_lines(10),
        "lines-20": _central_lines(20),
        "wires-17": faces(WiringDiagram.of(17, [(0, 1), (15, 16)])),
        "wires-64": faces(WiringDiagram.of(64, [(0, 1), (30, 31)])),
    }


def _central_lines(n: int) -> FiberView:
    """The fiber of n distinct lines through the origin in R^2."""
    return arrangement_fiber(RationalArrangement.of([[1, t] for t in range(n)]))


@cache
def _corpus():
    return corpus_fibers()


def _mask_specializations(nvars, free):
    """None, the identity, integer maps (0 and negatives, partial or not) on the free indices' variables,
    all=a, a/integer maps, and images c*x_v built directly."""
    ints = st.integers(-3, 3)
    free_vars = sorted(2 * (i - 1) + side for i in free for side in (0, 1))
    return st.one_of(
        st.none(),
        st.just(Specialization.of(nvars, {})),
        st.dictionaries(st.sampled_from(free_vars), ints, min_size=1).map(lambda v: Specialization.of(nvars, v)),
        st.just(Specialization.collapse_all(nvars)),
        st.lists(st.one_of(ints, st.just("a")), min_size=nvars, max_size=nvars).map(
            lambda values: Specialization.of(nvars, dict(enumerate(values)))
        ),
        st.lists(ints, min_size=nvars, max_size=nvars).map(
            lambda cs: Specialization(tuple((c, v) for v, c in enumerate(cs)), nvars)
        ),
    )


class TestMaskEvaluation:
    """Residues, variables and degree bound from the tope masks against the polynomial entries."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_the_entries(self, data):
        source = data.draw(st.sampled_from(["corpus", "wiring", "wide"]))
        if source == "corpus":
            f = _corpus()[data.draw(st.sampled_from(sorted(_corpus())))]
        elif source == "wiring":
            f = faces(random_wiring(random.Random(data.draw(st.integers(0, 2**32)))))
        else:
            f = _wide_fiber()
        m = build_matrix(f)
        spec = data.draw(_mask_specializations(m.nvars, f.free))
        entries = m.entries if spec is None else [[spec.apply_poly(e) for e in row] for row in m.entries]
        formula = product_formula(f, spec)
        flat = [e for row in entries for e in row]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        prime = draw_prime(rng)
        at = {v: rng.randrange(prime) for v in range(formula.nvars)}
        residues = residues_mod(flat, at, prime)
        expected = [residues[r * m.size : (r + 1) * m.size] for r in range(m.size)]
        mapped = build_matrix(f, spec)
        assert entry_residues(mapped, mapped.values(at, prime), prime) == expected
        assert mapped.det_residue(at, prime) == row_det_mod(expected, prime)
        used, rows = mapped.support()
        assert used == used_variables(flat)
        assert rows == degree_bound(entries, FactoredPoly(formula.nvars))
        seed = data.draw(st.integers(0, 99))
        report = verify(f, mode="randomized", seed=seed, evals=2, specialize=spec)
        assert report.degree_bound == degree_bound(entries, formula)
        assert (report.prime, report.evals) == randomized_compare(entries, formula, seed=seed, evals=2)

    @pytest.mark.parametrize(
        "name, chunks",
        [
            ("affine", 1),
            ("fiber-subset", 1),
            ("wide", 1),
            ("reversal-9", 1),
            ("reversal-10", 1),
            ("wires-8", 1),
            ("lines-9", 2),
            ("wires-17", 3),
            ("lines-20", 3),
            ("wires-64", 7),
        ],
    )
    def test_residues_over_free_chunks(self, name, chunks):
        # non-contiguous free sets, and their separating indices split into balanced chunks whose tables hold at
        # most size^2 products; the determinant against the entry oracle's, whose entries residues_mod confirms
        f = _chunked_fibers()[name]
        m = build_matrix(f)
        separating, codes, parts, _ = m._core
        assert len(parts) == chunks
        sizes = [hi - lo for lo, hi, _ in parts]
        assert [lo for lo, _, _ in parts] == [0, *accumulate(sizes[:-1])] and sum(sizes) == len(separating)
        assert max(sizes) - min(sizes) <= 1
        assert sum(2**s for s in sizes) <= m.size**2
        assert (chunks == 1) == (2 ** len(separating) <= m.size**2)
        for lo, hi, part in parts:
            assert part == [c >> lo & (2 ** (hi - lo) - 1) for c in codes]
        rng = random.Random(name)
        for spec in (None, Specialization.of(m.nvars, {0: 0, 3: -3}), Specialization.collapse_all(m.nvars)):
            mapped = build_matrix(f, spec)
            prime = draw_prime(rng)
            at = {v: rng.randrange(prime) for v in range(mapped.nvars)}
            expected = entry_residues(mapped, mapped.values(at, prime), prime)
            if m.size <= 20:
                entries = m.entries if spec is None else [[spec.apply_poly(e) for e in row] for row in m.entries]
                residues = residues_mod([e for row in entries for e in row], at, prime)
                assert expected == [residues[r * m.size : (r + 1) * m.size] for r in range(m.size)], spec
            assert mapped.det_residue(at, prime) == row_det_mod(expected, prime), spec

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_support_matches_the_pair_loop(self, data):
        # the subset tables against one interpreted step per tope pair, maps with zeros included
        source = data.draw(st.sampled_from(["corpus", "wiring", "arrangement", "chunked"]))
        if source == "corpus":
            f = _corpus()[data.draw(st.sampled_from(sorted(_corpus())))]
        elif source == "chunked":
            f = _chunked_fibers()[data.draw(st.sampled_from(["affine", "fiber-subset", "wide", "wires-8", *_PAST]))]
        else:
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            f = faces(random_wiring(rng)) if source == "wiring" else checked_fiber(random_central_arrangement(rng))
        m = build_matrix(f)
        one_zero = st.integers(0, m.nvars - 1).map(lambda v: Specialization.of(m.nvars, {v: 0}))
        maps = (_mask_specializations(m.nvars, f.free), _zero_hyperplane_maps(m.nvars, f.free), one_zero)
        spec = data.draw(st.one_of(*maps))
        assert build_matrix(f, spec).support() == mask_support(m, spec)

    @pytest.mark.parametrize("name", _PAST)
    def test_support_past_the_one_table_bound(self, name):
        # under no map, the corpus maps and a map sending one hyperplane to 0
        f = _chunked_fibers()[name]
        m = build_matrix(f)
        specs = [None, Specialization.collapse_all(m.nvars), Specialization.of(m.nvars, {2: 0, 3: 0})]
        specs += [Specialization.of(m.nvars, _map_values(kind)) for kind in _MASK_MAPS if kind != "all=a"]
        for spec in specs:
            assert build_matrix(f, spec).support() == mask_support(m, spec), spec

    def test_randomized_verify_builds_no_entries(self, monkeypatch):
        f = faces(non_pappus())
        face_multiplicities(f)  # the face weights are polynomials; computed and cached first

        def no_entries(*args):
            raise AssertionError("a polynomial matrix entry was built")

        monkeypatch.setattr(IntPolynomial, "monomial", no_entries)
        for spec in (None, Specialization.of(2 * f.n, {0: 0, 3: -3}), Specialization.collapse_all(2 * f.n)):
            assert verify(f, mode="randomized", evals=2, specialize=spec).agreement
        assert verify(f).mode == "randomized"

    def test_unclosed_fiber_fails_before_the_multiplicities(self, monkeypatch):
        f = FiberView(fiber_of([sv("0+")]).base, frozenset({1, 2}), sv("0+"), (sv("0+"), sv("+0")))
        monkeypatch.setattr(omdet.varchenko, "_multiplicity", None)
        with pytest.raises(FiberError, match=r"^not closed under composition: 0\+ o \+0 = \+\+ missing$"):
            verify(f, mode="randomized")


def _zero_hyperplane_maps(nvars, free):
    """Maps sending both sides of one free hyperplane to 0, the other variables kept, collapsed or constant."""
    planes = sorted(free) or [1]
    rest = st.one_of(st.integers(-2, 2), st.just("a"), st.none())

    def build(args):
        plane, others = args
        values = {v: x for v, x in enumerate(others) if x is not None}
        if "a" in values.values():
            values = {v: values.get(v, "a") for v in range(nvars)}
        values[2 * plane - 2] = values[2 * plane - 1] = 0
        return Specialization.of(nvars, values)

    return st.tuples(st.sampled_from(planes), st.lists(rest, min_size=nvars, max_size=nvars)).map(build)


def _entry_det(m, at, prime: int) -> int:
    """det mod prime of the entry oracle's residues, by the packed elimination and by the row oracle."""
    entries = entry_residues(m, m.values(at, prime), prime)
    (det,) = _eliminate([pack_rows(entries, prime)], prime)
    assert det == row_det_mod(entries, prime)
    return det


def _all_plus_index_fiber():
    """concurrent_lines() with a fourth index, + on every member and free: no tope separates it."""
    s = concurrent_lines()
    lines = ["n=4", "I=1,2,3,4", f"u={topes(s)[0]}+", *(f"{m}+" for m in s.members)]
    return parse_cov("\n".join(lines) + "\n")


def _seeded_planes(seed: int, count: int) -> FiberView:
    """The fiber of count pairwise non-proportional planes in R^3, drawn from seed."""
    rng, normals = random.Random(seed), []
    while len(normals) < count:
        v = [rng.randint(-4, 4) for _ in range(3)]
        if any(v) and all(any(v[a] * w[b] != v[b] * w[a] for a, b in ((0, 1), (0, 2), (1, 2))) for w in normals):
            normals.append(v)
    return arrangement_fiber(RationalArrangement.of(normals))


class TestSymmetricCore:
    """det_residue through M(1, w) against the elimination of the entry residues, and the identities behind it."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    def test_matches_the_entry_residues(self, data):
        source = data.draw(st.sampled_from(["corpus", "wiring", "wide", "chunked"]))
        if source == "corpus":
            f = _corpus()[data.draw(st.sampled_from(sorted(_corpus())))]
        elif source == "wiring":
            f = faces(random_wiring(random.Random(data.draw(st.integers(0, 2**32)))))
        elif source == "chunked":
            f = _chunked_fibers()[data.draw(st.sampled_from(sorted(_chunked_fibers())))]
        else:
            f = _wide_fiber()
        m = build_matrix(f, data.draw(_mask_specializations(2 * f.n, f.free)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        prime = draw_prime(rng)
        at = {v: rng.randrange(prime) for v in range(m.nvars)}
        at.update(dict.fromkeys(data.draw(st.sets(st.integers(0, m.nvars - 1), max_size=2)), 0))
        assert m.det_residue(at, prime) == _entry_det(m, at, prime)

    def _check(self, m, at, prime: int):
        assert m.det_residue(at, prime) == _entry_det(m, at, prime)

    def test_zero_image(self):
        # w_1 = 0, so W(F) = 0 and the half-size split goes to M(1, w), which takes the zero
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f, Specialization.of(6, {0: 0}))
        prime = draw_prime(random.Random(1))
        self._check(m, {v: 2 + v for v in range(6)}, prime)

    def test_drawn_zero(self):
        m = build_matrix(faces(non_pappus()))
        prime = draw_prime(random.Random(2))
        at = {v: 3 + v for v in range(m.nvars)}
        # a3m = 0 makes w_3 = 0, an entry W(P_c - P_r) of M(1, w) like any other
        self._check(m, at | {5: 0}, prime)
        self._check(m, at, prime)

    def test_index_every_tope_agrees_on_is_dropped(self):
        f = _all_plus_index_fiber()
        m = build_matrix(f)
        assert m._core[0] == [1, 2, 3]
        prime = draw_prime(random.Random(3))
        at = {v: 5 + v for v in range(8)}
        # a4p and a4m appear in no entry, so a zero there changes nothing
        for values in (at, at | {6: 0}, at | {6: 0, 7: 0}):
            self._check(m, values, prime)

    @pytest.mark.parametrize("name", ["wires-8", "lines-9", "lines-10", "lines-20", "wires-17", "wires-64"])
    def test_past_the_one_table_bound(self, monkeypatch, name):
        # negation-closed fibers and others, under no map, zero images and all=a, with a drawn zero w_i; wires-8
        # sits at the bound, with one table of 2^8 = 16^2 products
        chunks = {"wires-8": 1, "lines-9": 2, "lines-10": 2, "lines-20": 3, "wires-17": 3, "wires-64": 7}[name]
        f = _chunked_fibers()[name]
        n2 = 2 * f.n
        closed = name.startswith("lines")
        rng = random.Random(name)
        for spec in (None, Specialization.of(n2, {0: 0}), Specialization.of(n2, {0: 0, 3: -3})):
            m = build_matrix(f, spec)
            assert len(m._core[2]) == chunks and (_half(m) is not None) == closed
            prime = draw_prime(rng)
            points = [{v: rng.randrange(prime) for v in range(m.nvars)} for _ in range(2)]
            points.append(points[0] | {2: 0})
            expected = [_entry_det(m, at, prime) for at in points]
            with monkeypatch.context() as patch:
                calls = _norm_calls(patch)
                assert m.det_residues([m.values(at, prime) for at in points], prime) == expected
            # a zero a_1^+ makes W(F) = 0 at every point, and the drawn a_2^+ = 0 at the last: M(1, w) takes them
            pairs = [] if spec is not None else [True, True]
            assert [[x is not None for x in call] for call in calls] == ([pairs] if closed else [])
        m = build_matrix(f, Specialization.collapse_all(n2))
        prime = draw_prime(rng)
        at = {0: rng.randrange(prime)}
        assert m.det_residue(at, prime) == _entry_det(m, at, prime)

    @pytest.mark.parametrize("name, chunks", [("lines-10", 2), ("lines-20", 3)])
    def test_zero_divisor_column(self, monkeypatch, name, chunks):
        # a_i^+ = -1, a_i^- = 1 at an even number of lines: W(F) = 1 and every top of A + sC is a zero divisor
        f = _chunked_fibers()[name]
        m = build_matrix(f)
        assert len(m._core[2]) == chunks and len(m._core[0]) % 2 == 0
        rng = random.Random(name)
        prime = draw_prime(rng)
        points = [{v: rng.randrange(prime) for v in range(m.nvars)}]
        points.append({v: 1 if v % 2 else prime - 1 for v in range(m.nvars)})
        expected = [_entry_det(m, at, prime) for at in points]
        calls = _norm_calls(monkeypatch)
        assert m.det_residues([m.values(at, prime) for at in points], prime) == expected
        assert [[x is None for x in call] for call in calls] == [[False, True]]

    def test_one_chunk_exactly_when_the_table_fits(self):
        for k in range(0, 50):
            for m in [*range(2, 70), *range(70, 3000, 37)]:
                bounds = _chunk_bounds(k, m)
                count = len(bounds) - 1
                assert (count == 1) == (2**k <= m * m), (k, m)
                sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
                assert bounds[0] == 0 and bounds[-1] == k and max(sizes) - min(sizes) <= 1
                assert sum(2**s for s in sizes) <= m * m or count == k, (k, m)
                if count > 1:  # the fewest: one chunk less overflows
                    fewer = [j * k // (count - 1) for j in range(count)]
                    assert sum(2 ** (hi - lo) for lo, hi in zip(fewer, fewer[1:])) > m * m, (k, m)

    def test_one_tope_fiber(self):
        s = coord_lines()
        m = build_matrix(topal_fiber(s, [], topes(s)[0]))
        assert m.size == 1 and m._core[0] == [] and len(m._core[2]) == 1
        self._check(m, {}, draw_prime(random.Random(4)))

    def test_verify_never_falls_back(self, monkeypatch):
        # randomized verify reads the codes alone: neither the polynomial entries nor a table of their terms
        # is built, at one table or over chunks, and the records are those of the polynomial entries
        def built(*args):
            raise AssertionError("the polynomial entries or a table of their terms were built")

        fibers = [faces(non_pappus()), _seeded_planes(25, 6), *map(_chunked_fibers().get, ["lines-20", "wires-64"])]
        reports = []
        with monkeypatch.context() as patch:
            patch.setattr(VarchenkoMatrix, "entries", property(built))
            patch.setattr(omdet.varchenko, "_subset_terms", built)
            for f in fibers:
                for values in ({}, {0: 0}, {0: 0, 3: -3}):
                    spec = Specialization.of(2 * f.n, values)
                    report = verify(f, mode="randomized", seed=7, evals=3, specialize=spec)
                    assert report.agreement and report.lines() and report.to_json()
                reports.append(verify(f, mode="randomized", seed=7, evals=3))
        for f, report in zip(fibers, reports):
            formula = product_formula(f)
            assert (report.prime, report.evals) == randomized_compare(build_matrix(f).entries, formula, seed=7, evals=3)

    def test_distance_matrix_factors_through_the_core(self):
        sympy = pytest.importorskip("sympy")
        m = build_matrix(whole_fiber(concurrent_lines()))
        u = {i: sympy.Symbol(f"a{i}p") for i in m.fiber.free}
        v = {i: sympy.Symbol(f"a{i}m") for i in m.fiber.free}
        plus = [{i for i in m.fiber.free if t.sign(i) > 0} for t in m.tope_order]
        entries = sympy.Matrix([[sympy.sympify(poly_str(e).replace("^", "**")) for e in row] for row in m.entries])
        d_u = sympy.diag(*[sympy.Mul(*[u[i] for i in p]) for p in plus])
        d_v = sympy.diag(*[sympy.Mul(*[v[i] for i in p]) for p in plus])
        g = sympy.Matrix(m.size, m.size, lambda r, c: 1 / sympy.Mul(*[u[i] * v[i] for i in plus[r] & plus[c]]))
        assert g == g.T
        assert (d_u * g * d_v - entries).applyfunc(sympy.cancel) == sympy.zeros(m.size)
        # so det = det(D_U) det(D_V) det(G), and det(D_U) det(D_V) = prod w_i^(n_i), n_i counting the topes + at i
        scale = sympy.Mul(*[(u[i] * v[i]) ** sum(i in p for p in plus) for i in m.fiber.free])
        assert d_u.det() * d_v.det() == scale

    @pytest.mark.parametrize("name", ["concurrent_lines", "reversal-3"])
    def test_determinant_depends_on_the_products_alone(self, name):
        # M(1, w) = G diag(W(P_c)), so det M(u, v) = prod_r W(P_r) det G = det M(1, uv), the topes paired or not
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        m = build_matrix(whole_fiber(concurrent_lines()) if name == "concurrent_lines" else faces(_reversal(3)))
        assert (_half(m) is not None) == (name == "concurrent_lines")
        free = sorted(m.fiber.free)
        u, v, w = ({i: sympy.Symbol(f"a{i}{side}") for i in free} for side in ("p", "m", "w"))
        plus = [{i for i in free if t.sign(i) > 0} for t in m.tope_order]
        entries = sympy.Matrix([[sympy.sympify(poly_str(e).replace("^", "**")) for e in row] for row in m.entries])
        at_one = entries.subs({**{u[i]: 1 for i in free}, **{v[i]: w[i] for i in free}})
        # entry (r, c) of M(1, w) is W(P_c - P_r)
        assert at_one == sympy.Matrix(m.size, m.size, lambda r, c: sympy.Mul(*[w[i] for i in plus[c] - plus[r]]))
        g = sympy.Matrix(m.size, m.size, lambda r, c: 1 / sympy.Mul(*[w[i] for i in plus[r] & plus[c]]))
        d_w = sympy.diag(*[sympy.Mul(*[w[i] for i in p]) for p in plus])
        assert (g * d_w - at_one).applyfunc(sympy.cancel) == sympy.zeros(m.size)
        # fraction-free determinants over the polynomial ring, which sympy's default method is slow to expand
        dets = [DomainMatrix.from_Matrix(x) for x in (entries, at_one)]
        det, det_at_one = (x.domain.to_sympy(x.det()) for x in dets)
        assert sympy.expand(det - det_at_one.subs({w[i]: u[i] * v[i] for i in free})) == 0

    def test_negation_closed_core_splits_by_a_norm(self):
        # det M = (prod_{r in T} W(P_r))^2 det(A + sC) det(A - sC) with s^2 = W(F), T one tope of each pair
        sympy = pytest.importorskip("sympy")
        m = build_matrix(whole_fiber(concurrent_lines()))
        free = frozenset(m.fiber.free)
        plus = [frozenset(i for i in free if t.sign(i) > 0) for t in m.tope_order]
        assert sorted(map(sorted, plus)) == sorted(sorted(free - p) for p in plus)
        half = [p for p in plus if max(free) not in p]
        w = {i: sympy.Symbol(f"a{i}p") * sympy.Symbol(f"a{i}m") for i in free}

        def weight(subset):
            return sympy.Mul(*[w[i] for i in subset])

        s = sympy.Symbol("s")
        a = sympy.Matrix(len(half), len(half), lambda r, c: 1 / weight(half[r] & half[c]))
        c = sympy.Matrix(len(half), len(half), lambda r, c: 1 / weight(half[r] | half[c]))
        num, den = sympy.fraction(sympy.cancel((a + s * c).det() * (a - s * c).det()))
        norm = sympy.rem(sympy.expand(num), s**2 - weight(free), s) / sympy.rem(sympy.expand(den), s**2 - weight(free), s)
        assert not norm.has(s)
        entries = sympy.Matrix([[sympy.sympify(poly_str(e).replace("^", "**")) for e in row] for row in m.entries])
        scale = sympy.Mul(*[weight(p) for p in half]) ** 2
        assert sympy.cancel(entries.det() - scale * norm) == 0


def _norm_calls(monkeypatch, fail: bool = False) -> list:
    """The results of _eliminate_norm, one list per call and one entry per evaluation in it, which still runs
    unless fail, when it raises."""
    results = []

    def spy(*args):
        if fail:
            raise AssertionError("a core took the half-size split")
        results.append(_eliminate_norm(*args))
        return results[-1]

    monkeypatch.setattr(omdet.varchenko, "_eliminate_norm", spy)
    return results


@cache
def _split_corpus() -> list[str]:
    """The corpus fibers whose separating-index codes are closed under complement."""
    return sorted(name for name, f in _corpus().items() if _half(build_matrix(f)) is not None)


def _half(m):
    """The matrix's half-size split, or None."""
    return m._core[3]


class TestNormSplit:
    """Half-size cores over R = F_p[s]/(s^2 - W(F)) against the entry residues, and the elimination over R
    against the field determinant of its regular representation."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_the_entry_residues(self, data):
        if data.draw(st.booleans()):
            f = _seeded_planes(data.draw(st.integers(0, 99)), data.draw(st.integers(3, 6)))
        else:
            f = _corpus()[data.draw(st.sampled_from(_split_corpus()))]
        m = build_matrix(f, data.draw(_mask_specializations(2 * f.n, f.free)))
        assert _half(m) is not None
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        prime = draw_prime(rng)
        at = {v: rng.randrange(prime) for v in range(m.nvars)}
        at.update(dict.fromkeys(data.draw(st.sets(st.integers(0, m.nvars - 1), max_size=1)), 0))
        assert m.det_residue(at, prime) == _entry_det(m, at, prime)

    def test_one_pair_fiber(self, monkeypatch):
        # h = 1: A = C = [[1]], so det = N(1 + s) = 1 - w, and 0 through M(1, w) when w = 1
        m = build_matrix(whole_fiber(one_line()))
        assert m.size == 2 and m._core[3][0] == [0]
        prime = draw_prime(random.Random(5))
        calls = _norm_calls(monkeypatch)
        points = [{0: 3, 1: 5}, {0: prime - 1, 1: prime - 1}]
        for at in points:
            assert m.det_residue(at, prime) == _entry_det(m, at, prime) == (1 - at[0] * at[1]) % prime
        assert calls == [[(1 - 15) % prime], [None]]
        # in one group, the evaluations at w = 1 alone fall back, each in its place
        calls.clear()
        assert m.det_residues([m.values(at, prime) for at in points[::-1] * 2], prime) == [0, (1 - 15) % prime] * 2
        assert calls == [[None, (1 - 15) % prime] * 2]

    def test_zero_divisor_tops_fall_back_to_the_core(self, monkeypatch):
        # every w_i = -1 on four planes: W(F) = 1, and every top (x, x) has norm 0
        f = _seeded_planes(8, 4)
        m = build_matrix(f, Specialization.of(2 * f.n, {v: 1 - 2 * (v % 2 == 0) for v in range(2 * f.n)}))
        assert len(m._core[0]) == 4
        prime = draw_prime(random.Random(6))
        calls, expected = _norm_calls(monkeypatch), _entry_det(m, {}, prime)
        assert m.det_residue({}, prime) == expected
        assert calls == [[None]]

    def test_wiring_fibers_never_split(self, monkeypatch):
        rng = random.Random(12)
        fibers = [faces(non_pappus())] + [faces(random_wiring(rng)) for _ in range(12)]
        _norm_calls(monkeypatch, fail=True)
        for f in fibers:
            assert _half(build_matrix(f)) is None
            assert verify(f, mode="randomized", seed=1, evals=2).agreement

    @pytest.mark.parametrize(
        "a, c, w, expected",
        [
            # the first top is 0, so the pivot is searched for: N(det) = N(-1) = 1, w = 3 a non-square mod 7
            ([[0, 1], [1, 0]], [[0, 0], [0, 0]], 3, 1),
            # w = 1: the tops (1 + s)/2 and (1 - s)/2 are zero divisors, but R = F_7 x F_7 carries the
            # identity and a swap, so N(det) = -1
            ([[4, 4], [4, 4]], [[4, 3], [3, 4]], 1, None),
            # sC with det C = -1: N(-s^2) = w^2
            ([[0, 0], [0, 0]], [[0, 1], [1, 0]], 3, 2),
            ([[0, 5], [0, 2]], [[0, 1], [0, 4]], 3, 0),
        ],
    )
    def test_fixed_columns(self, a, c, w, expected):
        prime, width = 7, _lane_bytes(7, 4)
        (result,) = _eliminate_norm([([_pack(r, width) for r in a], [_pack(r, width) for r in c])], [w], prime)
        assert result == expected
        if expected is None:
            assert norm_det_mod(a, c, w, prime) == 6
        else:
            assert norm_det_mod(a, c, w, prime) == expected

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_against_the_regular_representation(self, data):
        prime = data.draw(st.sampled_from((5, 7, 101, draw_prime(random.Random(8)))))
        h = data.draw(st.integers(1, 5))
        residues = st.one_of(st.just(0), st.integers(0, prime - 1))
        square = st.lists(st.lists(residues, min_size=h, max_size=h), min_size=h, max_size=h)
        if data.draw(st.booleans()):
            # w = r^2: R is F_p x F_p by s -> (r, -r), so draw the entries' two images, zeros often
            r = data.draw(st.integers(1, prime - 1))
            w, half = r * r % prime, pow(2, -1, prime)
            images = [list(zip(*rows)) for rows in zip(data.draw(square), data.draw(square))]
            a = [[(u + v) * half % prime for u, v in row] for row in images]
            c = [[(u - v) * half * pow(r, -1, prime) % prime for u, v in row] for row in images]
        else:
            w, a, c = data.draw(st.integers(0, prime - 1)), data.draw(square), data.draw(square)
        # lanes start anywhere below p^2
        lifts = data.draw(st.lists(st.integers(0, prime - 1), min_size=2 * h * h, max_size=2 * h * h))
        width = _lane_bytes(prime, 2 * h)
        xs = [_pack([x + prime * lifts[r * h + j] for j, x in enumerate(row)], width) for r, row in enumerate(a)]
        ys = [_pack([y + prime * lifts[(h + r) * h + j] for j, y in enumerate(row)], width) for r, row in enumerate(c)]
        (result,) = _eliminate_norm([(xs, ys)], [w], prime)
        if result is None:  # a zero divisor other than 0 needs a square w
            assert pow(w, (prime - 1) // 2, prime) in (0, 1)
        else:
            assert result == norm_det_mod(a, c, w, prime)


class TestLockstep:
    """Evaluations eliminated together against one at a time, and the groups that randomized verify draws."""

    # column 1 is twice column 0, so this one leaves at step 1 of 4 with determinant 0
    MIDDLE_SINGULAR = [[1, 2, 3, 4], [2, 4, 5, 6], [3, 6, 7, 9], [1, 2, 0, 1]]
    # the first top is 0, so step 0 swaps in row 1; the determinant is 67, a unit mod the primes drawn here
    SWAPPED = [[0, 1, 2, 3], [5, 0, 0, 1], [0, 0, 7, 2], [1, 1, 1, 1]]

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_eliminate_matches_one_matrix_at_a_time(self, data):
        prime = data.draw(st.sampled_from(DET_MOD_PRIMES[2:]))
        matrices = [_square(data, prime, 4) for _ in range(data.draw(st.integers(0, 4)))]
        for fixed in (self.MIDDLE_SINGULAR, self.SWAPPED):
            matrices.insert(data.draw(st.integers(0, len(matrices))), fixed)
        reduced = [[[x % prime for x in row] for row in rows] for rows in matrices]
        expected = [det_mod(rows, prime) for rows in matrices]
        assert _eliminate([pack_rows(rows, prime) for rows in reduced], prime) == expected
        assert expected == [row_det_mod(rows, prime) for rows in matrices]
        assert det_mod(self.MIDDLE_SINGULAR, prime) == 0 != det_mod(self.SWAPPED, prime)

    def test_eliminate_of_no_matrix(self):
        assert _eliminate([], 101) == [] == _eliminate_norm([], [], 101)
        assert _eliminate([[], []], 101) == [1, 1]

    def test_eliminate_norm_leaves_each_pair_at_its_own_column(self):
        # the fixed columns of TestNormSplit in one call: a pivot search, zero divisors, sC and a zero column
        prime, width = 7, _lane_bytes(7, 4)
        cases = [
            ([[0, 1], [1, 0]], [[0, 0], [0, 0]], 3),
            ([[4, 4], [4, 4]], [[4, 3], [3, 4]], 1),
            ([[0, 0], [0, 0]], [[0, 1], [1, 0]], 3),
            ([[0, 5], [0, 2]], [[0, 1], [0, 4]], 3),
        ]
        pairs = [([_pack(r, width) for r in a], [_pack(r, width) for r in c]) for a, c, _ in cases]
        assert _eliminate_norm(pairs, [w for _, _, w in cases], prime) == [1, None, 2, 0]

    def test_one_zero_divisor_evaluation_beside_units(self, monkeypatch):
        # a_i^+ = -1, a_i^- = 1 on four planes: W(F) = 1 and every top is a zero divisor, in that evaluation only
        f = _seeded_planes(8, 4)
        m = build_matrix(f)
        rng = random.Random(10)
        prime = draw_prime(rng)
        points = [{v: rng.randrange(prime) for v in range(m.nvars)} for _ in range(2)]
        points.insert(1, {v: 1 if v % 2 else prime - 1 for v in range(m.nvars)})
        expected = [_entry_det(m, at, prime) for at in points]
        calls, eliminations = _norm_calls(monkeypatch), _spy(monkeypatch, "_eliminate")
        assert m.det_residues([m.values(at, prime) for at in points], prime) == expected
        assert [[x is None for x in call] for call in calls] == [[False, True, False]]
        assert [len(matrices) for matrices, _ in eliminations] == [1]

    def test_one_elimination_at_every_chunk_count(self, monkeypatch):
        # a zero w_i stays on M(1, w) beside the unit evaluations, with one table or with three chunks
        prime = draw_prime(random.Random(2))
        for f, chunks in ((faces(non_pappus()), 1), (_chunked_fibers()["wires-17"], 3)):
            m = build_matrix(f)
            assert len(m._core[2]) == chunks
            at = {v: 3 + v for v in range(m.nvars)}
            points = [at, at | {5: 0}, at | {0: 7}]
            expected = [_entry_det(m, x, prime) for x in points]
            with monkeypatch.context() as patch:
                eliminations = _spy(patch, "_eliminate")
                assert m.det_residues([m.values(x, prime) for x in points], prime) == expected
            assert [len(matrices) for matrices, _ in eliminations] == [3]

    @pytest.mark.parametrize("name", ["non-pappus", "planes"])
    def test_verify_matches_one_evaluation_at_a_time(self, name):
        f = faces(non_pappus()) if name == "non-pappus" else _seeded_planes(25, 6)
        m, formula = build_matrix(f), product_formula(f)
        prime = draw_prime(random.Random(9))
        group = omdet.varchenko._group_size(prime, m.size)
        for k in (1, 5, group + 1):
            report = verify(f, mode="randomized", seed=9, evals=k)
            assert report.prime == prime and len(report.evals) == k and report.agreement
            for rec in report.evals:
                at = {var_index(label): value for label, value in rec.assignment.items()}
                assert rec.det_residue == m.det_residue(at, prime)
            assert (report.prime, report.evals) == randomized_compare(m.entries, formula, seed=9, evals=k)

    def test_groups_stay_within_the_byte_budget(self):
        prime = draw_prime(random.Random(11))
        group = omdet.varchenko._group_size
        assert group(prime, 134) == 6 and group(prime, 242) == 1 == group(prime, 2081)
        for m in (1, 16, 134, 242):
            assert group(prime, m) * m * m * _lane_bytes(prime, m) <= omdet.varchenko._GROUP_BYTES

    def test_a_huge_evals_draws_one_group_before_the_first_elimination(self, monkeypatch):
        f = _seeded_planes(25, 6)
        drawn = len(verify(f, mode="randomized", seed=1, evals=1).evals[0].assignment)
        draws, batches = [], []

        class Counting(random.Random):
            def randrange(self, *args):
                draws.append(args)
                if len(draws) > 10**5:
                    raise AssertionError("drew far past one group")
                return super().randrange(*args)

        class Stop(Exception):
            pass

        def first_elimination(matrices, *args):
            batches.append((len(draws), len(matrices)))
            raise Stop

        monkeypatch.setattr(omdet.varchenko, "random", SimpleNamespace(Random=Counting))
        monkeypatch.setattr(omdet.varchenko, "_eliminate", first_elimination)
        monkeypatch.setattr(omdet.varchenko, "_eliminate_norm", first_elimination)
        with pytest.raises(Stop):
            verify(f, mode="randomized", seed=1, evals=10**9)
        group = omdet.varchenko._group_size(draw_prime(random.Random(1)), build_matrix(f).size)
        # one draw for the prime, then one per variable of each evaluation in the group
        assert batches == [(1 + group * drawn, group)]


def _constant_pair_maps(nvars, free):
    """Maps sending both sides of one free hyperplane to integers in -2..2: constant bases such as 1 - 4, and
    the base 1 - 1 = 0 at an all-ones pair."""
    planes = sorted(free) or [1]
    return st.tuples(st.sampled_from(planes), st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda a: Specialization.of(nvars, {2 * a[0] - 2: a[1], 2 * a[0] - 1: a[2]})
    )


class TestFlats:
    """One weight per flat, and the formula's residues from the map's values against the polynomial formula."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    def test_flat_residues_match_the_formula(self, data):
        source = data.draw(st.sampled_from(["corpus", "wiring", "arrangement"]))
        if source == "corpus":
            f = _corpus()[data.draw(st.sampled_from(sorted(_corpus())))]
        else:
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            f = faces(random_wiring(rng)) if source == "wiring" else checked_fiber(random_central_arrangement(rng))
        nvars = 2 * f.n
        maps = [build(nvars, f.free) for build in (_mask_specializations, _zero_hyperplane_maps, _constant_pair_maps)]
        spec = data.draw(st.one_of(*maps))
        m = build_matrix(f, spec)
        formula = product_formula(f, spec)
        bases = [base for base, _ in formula.factors]
        targets, residue, degree = _flat_residues(m, _flat_betas(f))
        assert targets == set(used_variables(bases))
        assert degree == formula.total_degree()
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        prime = draw_prime(rng)
        for _ in range(3):
            # 0 and 1 make zero images and bases 1 - 1 at drawn points too
            at = {v: rng.choice([0, 1, prime - 1, rng.randrange(prime), rng.randrange(prime)]) for v in range(m.nvars)}
            assert residue(m.values(at, prime), prime) == formula.eval_mod(at, prime)
        # verify draws the variables of the nonzero entries and of the formula, in sorted order
        report = verify(f, mode="randomized", seed=data.draw(st.integers(0, 99)), evals=1, specialize=spec)
        order = sorted(set(m.support()[0]).union(used_variables(bases)))
        assert list(report.evals[0].assignment) == [var_label(v, m.nvars) for v in order]

    def test_faces_on_one_flat_share_one_weight(self):
        fibers = dict(corpus_fibers(), non_pappus=faces(non_pappus()), planes=_seeded_planes(3, 5))
        for name, f in fibers.items():
            shared = {}
            for u, weight, _ in face_multiplicities(f):
                assert shared.setdefault(u.zero_mask, weight) is weight, name
                assert weight == weight_monomial(u), name
            assert len(set(map(id, shared.values()))) == len(shared), name
            assert product_formula(f) == per_face_formula(f), name
            for spec in (Specialization.collapse_all(2 * f.n), Specialization.of(2 * f.n, {0: 1, 1: 1})):
                assert product_formula(f, spec) == spec.apply_factored(per_face_formula(f)), name

    def test_randomized_verify_evaluates_no_polynomial(self, monkeypatch):
        fibers = [faces(non_pappus()), _seeded_planes(11, 6)]

        def no_evaluation(*args):
            raise AssertionError("a polynomial was evaluated")

        monkeypatch.setattr(FactoredPoly, "eval_mod", no_evaluation)
        monkeypatch.setattr(omdet.polyring, "residues_mod", no_evaluation)
        monkeypatch.setattr(omdet.varchenko, "residues_mod", no_evaluation)
        for f in fibers:
            for spec in (None, Specialization.of(2 * f.n, {0: 0, 3: -3}), Specialization.collapse_all(2 * f.n)):
                assert verify(f, mode="randomized", seed=5, evals=3, specialize=spec).agreement


class TestLazyReport:
    """A randomized report builds its weights and formula only when a polynomial field is read, and its text
    builds neither."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(data=st.data())
    def test_polynomials_are_built_when_read(self, data):
        name = data.draw(st.sampled_from(sorted(_corpus())))
        f = _corpus()[name]
        family = data.draw(st.sampled_from([_mask_specializations, _zero_hyperplane_maps, _constant_pair_maps]))
        spec = data.draw(family(2 * f.n, f.free))
        read = data.draw(st.sampled_from(["faces", "formula", "lines", "to_json"]))
        fresh = FiberView(f.base, f.free, f.anchor, f.members)  # nothing cached
        with pytest.MonkeyPatch.context() as mp:
            calls = [_spy(mp, "weight_monomial"), _spy(mp, "product_formula")]
            calls += [_spy(mp, "apply_poly", Specialization), _spy(mp, "apply_factored", Specialization)]
            report = verify(fresh, mode="randomized", seed=data.draw(st.integers(0, 99)), evals=2, specialize=spec)
            assert report.agreement and calls == [[], [], [], []], name
            value = getattr(report, read)
            if callable(value):
                value()
                assert calls == [[], [], [], []], (name, read)  # the text is read from the zero masks
            else:
                assert calls[0] and bool(calls[1]) == (read == "formula"), (name, read)
        faces = face_multiplicities(f)
        if spec is not None:
            faces = tuple((u, spec.apply_poly(w), beta) for u, w, beta in faces)
        assert report.faces == faces, name
        assert report.formula == product_formula(f, spec), name

    def test_replace_keeps_the_fields(self):
        f = faces(non_pappus())
        spec = Specialization.of(2 * f.n, {0: 0, 3: -3})
        report = verify(f, mode="randomized", seed=2, evals=2, specialize=spec)
        copy = dataclasses.replace(report, agreement=False)
        assert copy.formula == report.formula and copy.faces == report.faces
        assert copy.to_json() == dict(report.to_json(), agreement=False)


def _distance_rows(m, spec):
    """The distance matrix by the distance oracle, under the optional map."""
    free = sorted(m.fiber.free)
    rows = [[distance(tr, tc, free, m.nvars) for tc in m.tope_order] for tr in m.tope_order]
    return tuple(tuple(e if spec is None else spec.apply_poly(e) for e in row) for row in rows)


_MASK_MAPS = ("all=a", "a1p=0,a2m=-3", "a1p=2,a1m=2,a2p=-1,a2m=-1")


class TestMaskPolynomials:
    """The entries built from the tope masks against the distance oracle."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["none", *_MASK_MAPS, "zero hyperplane"]), data=st.data()
    )
    def test_seeded_fibers(self, seed, kind, data):
        rng = random.Random(seed)
        f = faces(random_wiring(rng)) if seed % 2 else checked_fiber(random_central_arrangement(rng))
        m = build_matrix(f)
        if kind == "none":
            spec = None
        elif kind == "zero hyperplane":
            spec = data.draw(_zero_hyperplane_maps(m.nvars, f.free))
        elif kind == "all=a":
            spec = Specialization.collapse_all(m.nvars)
        else:
            values = _map_values(kind)
            assume(max(values) < m.nvars)
            spec = Specialization.of(m.nvars, values)
        assert build_matrix(f, spec).entries == _distance_rows(m, spec)
        assert m.entries == _distance_rows(m, None)

    @pytest.mark.parametrize("name", ["affine", "fiber-subset", "wide", "wires-8", *_PAST])
    def test_over_free_chunks(self, name):
        m = build_matrix(_chunked_fibers()[name])
        for spec in (None, Specialization.collapse_all(m.nvars), Specialization.of(m.nvars, {0: 0, 1: 0, 3: -3})):
            assert build_matrix(m.fiber, spec).entries == _distance_rows(m, spec), spec

    def test_determinant_builds_no_distance(self):
        # the distance oracle is not in the package; determinant eliminates the mask-built entries
        assert not hasattr(omdet.varchenko, "distance")
        f = whole_fiber(concurrent_lines())
        m = build_matrix(f)
        assert determinant(f) == permutation_determinant(_distance_rows(m, None), m.nvars)


def _seeded_fibers(count=32, max_topes=10):
    """Seeded random_wiring and arrangement fibers, alternating, of at most max_topes topes.

    The cap keeps the expanding oracle cheap: it spends seconds on one
    12-tope fiber in 8 or more variables.
    """
    rng = random.Random(77)
    out = []
    while len(out) < count:
        if len(out) % 2:
            f = faces(random_wiring(rng))
        else:
            f = checked_fiber(random_central_arrangement(rng))
        if len(f.topes) <= max_topes:
            out.append(f)
    return out


def _elimination_cases(f):
    """(name of the map, rows, formula) of a fiber's matrix under no map and each test map."""
    m = build_matrix(f)
    pf = product_formula(f)
    for spec in _specializations(m.nvars):
        if spec is None:
            yield "none", [list(r) for r in m.entries], pf
        else:
            rows = [[spec.apply_poly(e) for e in row] for row in m.entries]
            yield str(spec.images[:2]), rows, spec.apply_factored(pf)


def _bases(formula):
    return [base for base, _ in formula.factors]


def _no_fallback(*args):
    raise AssertionError("the leftover division needed the expanded fallback")


class TestFactoredBareissOracle:
    """Factored elimination against the fused kernel that expands every entry."""

    def _check(self, name, f):
        for label, rows, formula in _elimination_cases(f):
            expected = fused_bareiss(rows, formula.nvars)
            assert bareiss_determinant(rows, formula.nvars, _bases(formula)) == expected, (name, label)

    def test_corpus_fibers(self):
        for name, f in corpus_fibers().items():
            self._check(name, f)
            m = build_matrix(f)
            assert bareiss_determinant([list(r) for r in m.entries], m.nvars) == determinant(f), name

    def test_wrong_candidates_change_nothing(self):
        # the candidates steer how entries are stored, never their value
        m = build_matrix(parallel_affine())
        wrong = _bases(product_formula(whole_fiber(concurrent_lines())))
        assert set(wrong) != set(_bases(product_formula(parallel_affine())))
        rows = [list(r) for r in m.entries]
        assert bareiss_determinant(rows, m.nvars, wrong) == permutation_determinant(rows, m.nvars)

    def test_non_pappus_all_a(self):
        f = faces(non_pappus())
        m = build_matrix(f)
        spec = Specialization.collapse_all(m.nvars)
        rows = [[spec.apply_poly(e) for e in row] for row in m.entries]
        formula = spec.apply_factored(product_formula(f))
        det = bareiss_determinant(rows, 1, _bases(formula))
        assert det == fused_bareiss(rows, 1) == formula.expand()

    def test_seeded_fibers(self):
        fibers = _seeded_fibers()
        assert len(fibers) >= 30 and max(len(f.topes) for f in fibers) == 10
        for index, f in enumerate(fibers):
            self._check(index, f)

    def test_unspecialized_result_is_the_formula(self, monkeypatch):
        # distinct binomials 1 - b_v are coprime, so without a map the leftover
        # division never needs the fallback and the leftover ends at 1
        monkeypatch.setattr(omdet.varchenko, "_expanded_quotient", _no_fallback)
        fibers = dict(corpus_fibers(), non_pappus=faces(non_pappus()))
        fibers.update(enumerate(_seeded_fibers()))
        for name, f in fibers.items():
            m = build_matrix(f)
            pf = product_formula(f)
            assert factored_bareiss([list(r) for r in m.entries], m.nvars, _bases(pf)) == pf, name


def _index_dependent_fiber():
    """A seeded 5-wire fiber with the segment -0--- removed: still closed,
    but the multiplicity of 00--- depends on the index."""
    members = (
        "----- -+--- -+--0 -+--+ -+-0+ -+-++ -+0++ -++++ 0---- 00--- 0+--- 0+--0 0+--+ 0+00+ 0++++ +---- +0--- "
        "++--- ++--0 ++--+ ++0-- ++0-0 ++0-+ +++-- +++-0 +++-+ +++0- +++00 +++0+ ++++- ++++0 +++++"
    ).split()
    return fiber_of([sv(x) for x in members], anchor=sv("-----"))


class TestFactoredBareissEdges:
    def test_all_ones_map_gives_zero(self):
        f = whole_fiber(concurrent_lines())
        ones = Specialization.of(2 * f.n, dict.fromkeys(range(2 * f.n), 1))
        report = verify(f, mode="symbolic", specialize=ones)
        m = build_matrix(f)
        rows = [[ones.apply_poly(e) for e in row] for row in m.entries]
        assert all(e == 1 for row in rows for e in row)
        assert report.determinant == 0 == fused_bareiss(rows, ones.nvars)
        assert report.agreement

    @pytest.mark.parametrize(
        "texts",
        [
            # zero pivot at the first step
            [["0", "a1p", "1"], ["1 - a1p*a1m", "0", "a1m"], ["a1p", "1", "1 - a1p*a1m"]],
            # the first step leaves a zero pivot at the second
            [["1", "1", "a1p"], ["1", "1", "a1m"], ["a1p", "1 - a1p*a1m", "1"]],
        ],
    )
    def test_zero_pivot_row_swap(self, texts):
        rows = [[parse_poly(t, 2) for t in row] for row in texts]
        expected = permutation_determinant(rows, 2)
        assert expected != 0
        for bases in ([], [parse_poly("1 - a1p*a1m", 2)]):
            assert bareiss_determinant(rows, 2, bases) == expected == fused_bareiss(rows, 2)

    @staticmethod
    def _permuted(seed):
        """(permuted rows, nvars, formula) of the corpus and eight seeded fibers."""
        rng = random.Random(seed)
        for f in list(corpus_fibers().values()) + _seeded_fibers(count=8):
            m = build_matrix(f)
            order = list(range(m.size))
            rng.shuffle(order)
            yield [[m.entries[r][c] for c in order] for r in order], m.nvars, product_formula(f)

    def test_permuted_tope_order(self, monkeypatch):
        monkeypatch.setattr(omdet.varchenko, "_expanded_quotient", _no_fallback)
        for rows, nvars, pf in self._permuted(19):
            assert factored_bareiss(rows, nvars, _bases(pf)) == pf
            assert bareiss_determinant(rows, nvars) == pf.expand()

    def test_permuted_tope_order_all_a(self):
        for rows, nvars, pf in self._permuted(19):
            collapse = Specialization.collapse_all(nvars)
            rows_a = [[collapse.apply_poly(e) for e in row] for row in rows]
            formula_a = collapse.apply_factored(pf)
            assert bareiss_determinant(rows_a, 1, _bases(formula_a)) == fused_bareiss(rows_a, 1) == formula_a.expand()

    def test_inexact_leftover_fallback(self, monkeypatch):
        # The first pivot's leftover 1 - a^2 is not a candidate, yet it divides
        # the kept (1 - a^4)^2 of the last update, so that update's numerator
        # has no 1 - a^2 left: the leftover division fails and the kept
        # binomials are multiplied back in.
        calls = []
        fallback = omdet.varchenko._expanded_quotient

        def spy(*args):
            calls.append(args)
            return fallback(*args)

        monkeypatch.setattr(omdet.varchenko, "_expanded_quotient", spy)
        texts = [["1 - a^2", "0", "2"], ["1", "1 + a^2", "a"], ["1 - a^6", "0", "2"]]
        rows = [[parse_poly(t, 1) for t in row] for row in texts]
        bases = [parse_poly("1 - a^4", 1), parse_poly("1 - a^6", 1)]
        det = bareiss_determinant(rows, 1, bases)
        assert calls
        assert det == fused_bareiss(rows, 1) == permutation_determinant(rows, 1)
        assert det == parse_poly("-2*a^2 - 2*a^4 + 2*a^6 + 2*a^8", 1)

    def test_ill_defined_multiplicity_takes_the_members_bases(self, monkeypatch):
        # with no formula the candidates are the distinct 1 - b_v of the non-tope members
        f = _index_dependent_fiber()
        with pytest.raises(FiberError, match="depends on the index choice"):
            face_multiplicities(f)
        calls = _spy(monkeypatch, "bareiss_determinant")
        m = build_matrix(f)
        one = P.one(m.nvars)
        weights = {one - weight_monomial(u) for u in f.members if not u.is_tope}
        collapse = Specialization.collapse_all(m.nvars)
        for spec in (None, collapse):
            det = determinant(f, spec)
            rows, nvars, bases = calls.pop()
            expected = {poly_str(b if spec is None else spec.apply_poly(b)) for b in weights}
            assert sorted(map(poly_str, bases)) == sorted(expected)
            rng = random.Random(5)
            for _ in range(3):
                prime = draw_prime(rng)
                at = {v: rng.randrange(prime) for v in range(nvars)}
                values = [[residue_oracle(e, at, prime) for e in row] for row in rows]
                assert residue_oracle(det, at, prime) == row_det_mod(values, prime)

    def test_ill_defined_multiplicity_fails_verify_before_the_elimination(self, monkeypatch):
        calls = _spy(monkeypatch, "_bareiss")
        with pytest.raises(FiberError, match="depends on the index choice"):
            verify(_index_dependent_fiber(), mode="symbolic")
        assert calls == []

    def test_ill_defined_multiplicity_fails_randomized_verify_before_the_elimination(self, monkeypatch):
        calls = [_spy(monkeypatch, name) for name in ("_eliminate", "_eliminate_norm")]
        with pytest.raises(FiberError, match="depends on the index choice"):
            verify(_index_dependent_fiber(), mode="randomized")
        assert calls == [[], []]

    def test_ill_defined_multiplicity_keeps_the_determinant(self):
        # closed under composition, so the determinant exists, but the
        # boundary count of 0-0 is odd: the candidates are the members' bases
        members = ["+++", "++-", "++0", "+-+", "+--", "+-0", "--+", "0-+", "0-0", "00+", "000"]
        f = fiber_of([sv(s) for s in members], anchor=sv("+++"))
        with pytest.raises(FiberError):
            face_multiplicities(f)
        m = build_matrix(f)
        expected = permutation_determinant(m.entries, m.nvars)
        assert determinant(f) == expected
        collapse = Specialization.collapse_all(m.nvars)
        rows = [[collapse.apply_poly(e) for e in row] for row in m.entries]
        assert determinant(f, collapse) == permutation_determinant(rows, 1)


def _mirror_maps(nvars: int, kind: str, rng: random.Random):
    """A specialization of the given kind: none, all=a, constant on both sides of
    some hyperplanes (it commutes with the side swap), or constant on one side."""
    if kind == "none":
        return None
    if kind == "all=a":
        return Specialization.collapse_all(nvars)
    planes = rng.sample(range(nvars // 2), rng.randint(1, nvars // 2))
    if kind == "commuting":
        values = {}
        for i in planes:
            values[2 * i] = values[2 * i + 1] = rng.randint(-2, 2)
    else:
        values = {2 * i + rng.randrange(2): rng.randint(-3, 3) for i in planes}
    return Specialization.of(nvars, values)


def _random_poly(rng: random.Random, nvars: int, bases) -> IntPolynomial:
    """A few small terms, times one of the bases now and then."""
    p = P.zero(nvars)
    for _ in range(rng.randint(1, 3)):
        exps = {v: rng.randint(0, 1) for v in range(nvars)}
        p = p + P.monomial(nvars, exps, rng.choice((-2, -1, 1, 2)))
    return p * rng.choice(bases) if rng.random() < 0.5 else p


class TestMirroredBareiss:
    """The upper-triangle elimination against the full-loop and permutation oracles.

    sigma(M) = M^T for the side swap sigma (the identity when M is
    symmetric), and the Bareiss intermediates are minors, so the full loop's
    intermediates satisfy a_ji = sigma(a_ij): the mirrored pass reads the
    lower triangle off the upper one.
    """

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["none", "all=a", "commuting", "one-sided"]),
    )
    def test_seeded_fibers(self, seed, kind):
        rng = random.Random(seed)
        f = faces(random_wiring(rng, max_wires=4)) if seed % 2 else checked_fiber(random_central_arrangement(rng))
        assume(len(f.topes) <= 10)
        m = build_matrix(f)
        spec = _mirror_maps(m.nvars, kind, rng)
        formula = product_formula(f, spec)
        rows = [list(r) for r in m.entries]
        if spec is not None:
            rows = [[spec.apply_poly(e) for e in row] for row in rows]
        if kind != "one-sided":
            assert _mirror(rows, formula.nvars) is not None
        det = factored_bareiss(rows, formula.nvars, _bases(formula)).expand()
        assert det == fused_bareiss(rows, formula.nvars) == formula.expand()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
    def test_swap_symmetric_matrices(self, seed, m):
        # none of these bases is fixed by the swap, so the mirror moves the binomials' keys
        bases = [parse_poly(t, 4) for t in ("1 - a1p", "1 + 2*a1p*a2m", "1 - a2m^2", "1 - a1m*a2p")]
        rng = random.Random(seed)
        rows = [[None] * m for _ in range(m)]
        for r in range(m):
            # a zero on the diagonal now and then makes a zero pivot, and the mirrored pass restarts
            q = _random_poly(rng, 4, bases) if rng.random() < 0.8 else P.zero(4)
            rows[r][r] = q * swap_sides(q) if rng.random() < 0.5 else q + swap_sides(q)
            for c in range(r + 1, m):
                rows[r][c] = _random_poly(rng, 4, bases)
                rows[c][r] = swap_sides(rows[r][c])
        assert _mirror(rows, 4) is not None
        expected = permutation_determinant(rows, 4)
        assert factored_bareiss(rows, 4, bases).expand() == expected == fused_bareiss(rows, 4)
        assert bareiss_determinant(rows, 4) == expected

    def test_diagonal_the_swap_moves_has_no_mirror(self):
        # the off-diagonal entries mirror, but sigma(a1p) = a1m != a1p on the diagonal
        rows = [[parse_poly(t, 2) for t in row] for row in (["a1p", "a1p", "0"], ["a1m", "1", "1"], ["0", "1", "1"])]
        assert _mirror(rows, 2) is None
        assert bareiss_determinant(rows, 2) == permutation_determinant(rows, 2) == parse_poly("-a1p*a1m", 2)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 4))
    def test_swap_symmetric_off_the_diagonal_only(self, seed, m):
        bases = [parse_poly(t, 4) for t in ("1 - a1p", "1 + 2*a1p*a2m", "1 - a2m^2", "1 - a1m*a2p")]
        rng = random.Random(seed)
        rows = [[None] * m for _ in range(m)]
        for r in range(m):
            q = _random_poly(rng, 4, bases)
            rows[r][r] = q * swap_sides(q)
            for c in range(r + 1, m):
                rows[r][c] = _random_poly(rng, 4, bases)
                rows[c][r] = swap_sides(rows[r][c])
        moved = rng.randrange(m)
        rows[moved][moved] = rows[moved][moved] + parse_poly("a1p", 4)
        # only the identity mirror (sigma-fixed entries off the diagonal) may remain
        symmetric = all(rows[r][c] == rows[c][r] for r in range(m) for c in range(m))
        assert symmetric or _mirror(rows, 4) is None
        expected = permutation_determinant(rows, 4)
        assert factored_bareiss(rows, 4, bases).expand() == expected == fused_bareiss(rows, 4)

    def test_full_loop_intermediates_are_mirrored(self):
        # the lemma behind the mirrored pass, on the full loop's own intermediates
        for f in [whole_fiber(concurrent_lines())] + _seeded_fibers(count=8):
            m = build_matrix(f)
            collapse = Specialization.collapse_all(m.nvars)
            cases = [([list(r) for r in m.entries], m.nvars, swap_sides)]
            cases.append(([[collapse.apply_poly(e) for e in row] for row in m.entries], 1, lambda p: p))
            for rows, nvars, sigma in cases:
                for sub in bareiss_minors(rows, nvars):
                    for i, row in enumerate(sub):
                        assert all(sub[j][i] == sigma(x) for j, x in enumerate(row))
        # and they are the minors: det rows[{0..k, k+1+i}, {0..k, k+1+j}]
        rows = build_matrix(whole_fiber(concurrent_lines())).entries
        for k, sub in enumerate(bareiss_minors(rows, 6)):
            for i, row in enumerate(sub):
                for j, x in enumerate(row):
                    keep_r, keep_c = [*range(k + 1), k + 1 + i], [*range(k + 1), k + 1 + j]
                    assert x == permutation_determinant([[rows[r][c] for c in keep_c] for r in keep_r], 6)


class TestStaleRows:
    """A row whose multiplier is zero is skipped and rescaled when it is read, at the pass's edges.

    Each matrix plants one such read on random entries: a skipped row becomes
    the pivot row (row 1 is zero in column 0); a skipped row is swapped in at
    a zero pivot on the full loop, in place of a row updated at step 0 (rows
    0 and 1 agree in columns 0 and 1, row 2 is zero in column 0); or the last
    row ends skipped (it is row 0 in every column but the last, so step 0
    leaves it zero there).  Each rescales an entry by an update with zero
    cofactors.
    """

    @settings(derandomize=True, max_examples=90, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(3, 5),
        kind=st.sampled_from(["identity", "swap", "none"]),
        read=st.sampled_from(["pivot row", "swapped in", "last entry"]),
        bases=st.sampled_from([(), ("1 - a1p*a1m",), ("1 - a1p*a1m", "1 - a1p")]),
    )
    def test_planted_zero_multipliers(self, seed, m, kind, read, bases):
        rng = random.Random(seed)
        sigma = {"identity": lambda p: p, "swap": swap_sides, "none": None}[kind]
        a = [[None] * m for _ in range(m)]

        def put(r, c, text_or_poly):
            a[r][c] = parse_poly(text_or_poly, 2) if isinstance(text_or_poly, str) else text_or_poly
            if sigma:
                a[c][r] = sigma(a[r][c])

        fixed = ("1", "1 - a1p*a1m")  # nonzero and fixed by the swap, for the diagonal
        for r in range(m):
            for c in range(r if sigma else 0, m):
                put(r, c, rng.choice(fixed + ("0",) if r == c else ("0", "1", "a1p", "a1m", "1 - a1p*a1m")))
        put(0, 0, rng.choice(fixed))
        if read == "pivot row":
            put(1, 0, "0")
            put(1, 1, rng.choice(fixed))
        elif read == "swapped in":
            for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
                put(r, c, "1 - a1p*a1m")
            put(2, 0, "0")
            put(2, 1, rng.choice(("1", "a1p", "a1m", "1 - a1p*a1m")))
        else:
            for j in range(m - 1):
                put(m - 1, j, a[0][j])
            assume(all(permutation_determinant([r[:k] for r in a[:k]], 2) != 0 for k in range(2, m)))
        if sigma:
            assert _mirror(a, 2) is not None
        else:
            assume(_mirror(a, 2) is None)
        calls = []
        update = omdet.varchenko._update
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(omdet.varchenko, "_update", lambda *args: calls.append(args) or update(*args))
            det = factored_bareiss(a, 2, [parse_poly(b, 2) for b in bases]).expand()
        assert det == permutation_determinant(a, 2) == fused_bareiss(a, 2)
        # the multiplier is never zero in an elimination update, so a zero one marks a rescale
        assert any(not args[3][0] for args in calls)


def _counted_updates(monkeypatch) -> list:
    calls = []
    update = omdet.varchenko._update
    monkeypatch.setattr(omdet.varchenko, "_update", lambda *args: calls.append(None) or update(*args))
    return calls


def _telescoped_updates(rows, nvars: int, steps: int, mirrored: bool) -> int:
    """The updates of a pass's first ``steps`` steps with no row swap, read off the minors.

    Row i is updated at step t only when its multiplier, the minor on rows
    0..t-1, i and columns 0..t, is nonzero.  A row last updated before step t
    is rescaled when it becomes the pivot row (m - t entries), and a mirrored
    pass also rescales its multiplier (one more update).  A complete pass
    (m - 1 steps) rescales a stale last entry too.
    """
    m = len(rows)
    at, count = [0] * m, 0
    for t in range(steps):
        count += (m - t) * (at[t] < t)
        for i in range(t + 1, m):
            if permutation_determinant([[rows[r][c] for c in range(t + 1)] for r in [*range(t), i]], nvars) != 0:
                count += m - i + (at[i] < t) if mirrored else m - t - 1
                at[i] = t + 1
    return count + (steps == m - 1 and at[m - 1] < m - 1)


class TestMirroredUpdateCount:
    """Rows whose multiplier is zero are skipped, so a pass makes fewer updates than the eager
    loops, whose counts are (m-1)m(m+1)/6 for the mirrored pass and (m-1)m(2m-1)/6 for the full one."""

    @pytest.mark.parametrize(
        "fiber, values",
        [
            ("three lines", None),  # the side swap
            ("three lines", "all=a"),  # the identity
            ("non-Pappus", "all=a"),
        ],
    )
    def test_mirrored(self, monkeypatch, fiber, values):
        expected = {"three lines": 34, "non-Pappus": 3906}[fiber]
        f = whole_fiber(concurrent_lines()) if fiber == "three lines" else faces(non_pappus())
        spec = None if values is None else Specialization.collapse_all(2 * f.n)
        calls = _counted_updates(monkeypatch)
        determinant(f, spec, force=True)
        m = len(f.topes)
        assert len(calls) == expected <= (m - 1) * m * (m + 1) // 6
        if m <= 6:
            rows = [[e if spec is None else spec.apply_poly(e) for e in row] for row in build_matrix(f).entries]
            nvars = 2 * f.n if spec is None else 1
            assert expected == _telescoped_updates(rows, nvars, m - 1, True)

    def test_one_sided_map_runs_the_full_loop(self, monkeypatch):
        f = whole_fiber(concurrent_lines())
        spec = Specialization.of(6, {0: 0, 3: -3})
        calls = _counted_updates(monkeypatch)
        determinant(f, spec)
        m = len(f.topes)
        assert len(calls) == 22 <= (m - 1) * m * (2 * m - 1) // 6
        rows = [[spec.apply_poly(e) for e in row] for row in build_matrix(f).entries]
        assert _mirror(rows, 6) is None
        assert len(calls) == _telescoped_updates(rows, 6, m - 1, False)

    def test_zero_pivot_restarts_on_the_full_loop(self, monkeypatch):
        f = whole_fiber(concurrent_lines())
        spec = Specialization.of(6, {0: 1, 1: 1})
        rows = [[spec.apply_poly(e) for e in row] for row in build_matrix(f).entries]
        m = len(rows)
        # the mirrored pass stops at step k, whose pivot is the leading (k+1)-minor
        k = next(k for k in range(1, m) if permutation_determinant([r[: k + 1] for r in rows[: k + 1]], 6) == 0)
        calls = _counted_updates(monkeypatch)
        assert determinant(f, spec) == 0
        mirrored = len(calls)
        calls.clear()
        monkeypatch.setattr(omdet.varchenko, "_mirror", lambda *args: None)
        assert determinant(f, spec) == 0
        assert mirrored == _telescoped_updates(rows, 6, k, True) + len(calls)
        assert (mirrored, len(calls)) == (70, 43)


# lane values at both ends of the range, and anywhere in it
_EXPONENTS = st.one_of(st.sampled_from([0, 1, MAX_EXPONENT - 1, MAX_EXPONENT]), st.integers(0, MAX_EXPONENT))


def _pack_lanes(exponents) -> int:
    """A binomial multiset with exponents[j] in lane n - 1 - j."""
    return sum(e << LANE_BITS * (len(exponents) - 1 - j) for j, e in enumerate(exponents))


class TestPackedMultisets:
    """Binomial multisets as one int with a 16-bit lane per candidate."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(*[_EXPONENTS] * 2),
            min_size=1,
            max_size=120,
        )
    )
    def test_lane_min_is_the_per_lane_min(self, pairs):
        xs, ys = zip(*pairs)
        guard = _guard_mask(len(pairs))
        assert _lane_min(_pack_lanes(xs), _pack_lanes(ys), guard) == _pack_lanes([min(x, y) for x, y in pairs])

    def test_lane_sum_past_the_limit_raises(self):
        guard = _guard_mask(3)
        full = _pack_lanes([0, MAX_EXPONENT - 1, 7])
        assert _lane_check(full + _pack_lanes([2, 1, 0]), guard) == _pack_lanes([2, MAX_EXPONENT, 7])
        with pytest.raises(ExponentOverflowError, match=f"exceeds exponent limit {MAX_EXPONENT}"):
            _lane_check(full + _pack_lanes([0, 2, 0]), guard)
        # in an update, whose products add their factors' multisets, on either side
        one = {0: 1}
        unit, top, step = (one, 0), (one, _pack_lanes([0, MAX_EXPONENT, 0])), (one, _pack_lanes([0, 1, 0]))
        candidates = [(pack_monomial(1, {0: k}), 1) for k in (1, 2, 3)]
        # in the first, the products cancel, so only the update's own check sees the sum
        for args in ((top, step, top, step), (top, step, unit, unit), (unit, unit, step, top)):
            with pytest.raises(ExponentOverflowError, match=f"exceeds exponent limit {MAX_EXPONENT}"):
                _update(1, *args, unit, candidates, guard)

    def test_non_pappus_all_a(self):
        # pinned: under all=a, smallest-first trial division leaves a degree-32 leftover
        f = faces(non_pappus())
        m = build_matrix(f)
        spec = Specialization.collapse_all(m.nvars)
        rows = [list(row) for row in build_matrix(f, spec).entries]
        result = factored_bareiss(rows, 1, _bases(product_formula(f, spec)))
        assert str(result) == (
            "(1 - a^2)^55 * (1 + 8*a^2 + 36*a^4 + 112*a^6 + 266*a^8 + 504*a^10 + 784*a^12 + 1016*a^14 + 1107*a^16"
            " + 1016*a^18 + 784*a^20 + 504*a^22 + 266*a^24 + 112*a^26 + 36*a^28 + 8*a^30 + a^32)"
        )

    def test_three_lines(self):
        m = build_matrix(whole_fiber(concurrent_lines()))
        result = factored_bareiss([list(row) for row in m.entries], m.nvars, _bases(product_formula(m.fiber)))
        assert str(result) == "(1 - a1p*a1m)^2 * (1 - a2p*a2m)^2 * (1 - a3p*a3m)^2 * (1 - a1p*a1m*a2p*a2m*a3p*a3m)"


def _full_reversal_all_a(wires: int):
    """(rows, formula) of the full reversal of ``wires`` wires under all=a."""
    f = faces(WiringDiagram(wires, [(k, k + 1) for i in range(wires) for k in range(wires - 1 - i)]))
    spec = Specialization.collapse_all(2 * f.n)
    return [list(row) for row in build_matrix(f, spec).entries], product_formula(f, spec)


def _sylvester(order: int) -> list[list[int]]:
    rows = [[1]]
    while len(rows) < order:
        rows = [r + r for r in rows] + [r + [-x for x in r] for r in rows]
    return rows


class TestKroneckerLeftovers:
    """Univariate determinants on the integers L(2^K) against the expanding oracles and term dicts."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 5),
        entries=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 6),
                    st.one_of(st.integers(-3, 3), st.sampled_from([-(2**70) - 1, 2**64, 2**90 + 3])),
                ),
                max_size=3,
            ),
            min_size=25,
            max_size=25,
        ),
        zero_pivot=st.booleans(),
        bases=st.sampled_from([(), ("1 - a",), ("1 - a^2", "1 + a", "1 - 3*a^2"), ("1 - a^4", "1 - a^6", "2 - a")]),
    )
    def test_random_matrices(self, m, entries, zero_pivot, bases):
        # multi-term entries, constants 0, negative and large, no mirror as a rule, and a zero
        # first pivot now and then, which forces a row swap
        rows = [[P(1, {}) for _ in range(m)] for _ in range(m)]
        for r in range(m):
            for c in range(m):
                for degree, coefficient in entries[r * 5 + c]:
                    rows[r][c] = rows[r][c] + P.monomial(1, {0: degree}, coefficient)
        if zero_pivot:
            rows[0][0] = P.zero(1)
        candidates = [parse_poly(b, 1) for b in bases]
        assert _kronecker_width(rows, 1) is not None
        expected = fused_bareiss(rows, 1)
        if m <= 4:
            assert expected == permutation_determinant(rows, 1)
        assert bareiss_determinant(rows, 1, candidates) == expected
        assert factored_bareiss(rows, 1, candidates).expand() == expected

    @pytest.mark.parametrize("power", ["none", "r + c", "r * c mod 5"])
    def test_sylvester_reaches_the_hadamard_bound(self, monkeypatch, power):
        # det = 4096 = 8^(8/2) is the Hadamard bound itself, so it pins the decode width
        exponent = {"none": lambda r, c: 0, "r + c": lambda r, c: r + c, "r * c mod 5": lambda r, c: r * c % 5}[power]
        signs = _sylvester(8)
        rows = [[P.monomial(1, {0: exponent(r, c)}, x) for c, x in enumerate(row)] for r, row in enumerate(signs)]
        assert _kronecker_width(rows, 1) == 15
        passes = _spy(monkeypatch, "_eliminated")
        expected = fused_bareiss(rows, 1)
        assert max(map(abs, expected._terms.values())) <= 4096
        if power != "r * c mod 5":
            assert expected == P.monomial(1, {0: 2 * sum(range(8)) if power == "r + c" else 0}, 4096)
        assert bareiss_determinant(rows, 1) == expected
        assert [call[3:] for call in passes] == [(15,)]
        assert factored_bareiss(rows, 1).expand() == expected

    @pytest.mark.parametrize("wires, side", [(8, "integers"), (11, "term dicts")])
    def test_full_reversal_either_side_of_the_rule(self, monkeypatch, wires, side):
        rows, formula = _full_reversal_all_a(wires)
        width = _kronecker_width(rows, 1)
        assert (width is not None) == (side == "integers")
        passes = _spy(monkeypatch, "_eliminated")
        assert bareiss_determinant(rows, 1, _bases(formula)) == formula.expand()
        assert [call[3:] for call in passes] == [(width,) if width else ()]
        assert str(factored_bareiss(rows, 1, _bases(formula))) == f"(1 - a^2)^{wires * wires}"

    def test_selection(self):
        rows, _ = _full_reversal_all_a(10)
        width = _kronecker_width(rows, 1)
        degree = sum(max(e.total_degree() for e in row) for row in rows)
        assert width == 165 and degree * width <= _KRONECKER_BITS
        m = build_matrix(whole_fiber(concurrent_lines()))
        assert _kronecker_width([list(row) for row in m.entries], m.nvars) is None


def _univariate(terms) -> IntPolynomial:
    return sum((P.monomial(1, {0: degree}, c) for degree, c in terms), P.zero(1))


def _map(text, nvars: int):
    """The map a --specialize value names: None for no map, False when it names a variable past nvars."""
    if text is None:
        return None
    if text == "all=a":
        return Specialization.collapse_all(nvars)
    values = {var_index(k): v if v == "a" else int(v) for k, v in (item.split("=") for item in text.split(","))}
    return Specialization.of(nvars, values) if max(values) < nvars else False


def _tampered(formula: FactoredPoly, kind: str, j: int) -> FactoredPoly:
    """The formula with factor j's exponent raised or lowered by 1, or factor j dropped."""
    factors = list(formula.factors)
    base, e = factors[j]
    if kind == "drop":
        del factors[j]
    else:
        factors[j] = (base, e + (1 if kind == "raise" else -1))
    return FactoredPoly(formula.nvars, factors)


_coefficients = st.one_of(st.integers(-3, 3), st.sampled_from([2**40, -(2**64) - 1]))
_terms = st.lists(st.tuples(st.integers(0, 6), _coefficients), max_size=4)
_SWEEP_MAPS = (None, "all=a", "a1p=0", "a1p=0,a2m=-3", "a1p=2,a1m=2,a2p=-1,a2m=-1", "a1p=1,a1m=1")


class TestSymbolicAgreement:
    """Symbolic verify's agreement, decided without expanding the formula, against det == formula.expand()."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        p_terms=_terms,
        factors=st.lists(st.tuples(_terms, st.integers(0, 3)), max_size=3),
        constant=st.sampled_from([None, 0, 1, -1, 2, -3]),
        relation=st.sampled_from(["random", "equal", "off by one", "alias"]),
        shift=st.tuples(st.integers(0, 6), st.sampled_from([-1, 1])),
    )
    def test_one_variable_rule(self, p_terms, factors, constant, relation, shift):
        # constant and zero factors, the empty product, and coefficients past P's
        factors = [(_univariate(t), e) for t, e in factors]
        formula = FactoredPoly(1, factors + ([] if constant is None else [(P.monomial(1, {}, constant), 1)]))
        p = _univariate(p_terms)
        if relation == "equal":
            p = formula.expand()
        elif relation == "off by one":
            p = formula.expand() + P.monomial(1, {0: shift[0]}, shift[1])
        elif relation == "alias":
            # a base equal to P at 2^K, K the width P alone gives: only the formula's norms tell them apart
            width = max(map(abs, p._terms.values()), default=0).bit_length() + 2
            base = p + (P.monomial(1, {}, 2**width) - P.monomial(1, {0: 1})) * P.monomial(1, {0: shift[0]})
            assert _value_at(base._terms, width) == _value_at(p._terms, width)
            formula = FactoredPoly(1, [(base, 1)])
        expected = p == formula.expand()
        assert _agrees(p, None, formula) == expected
        assert expected == (relation == "equal") or relation == "random"

    @pytest.mark.parametrize(
        "det, factors, expected",
        [
            ("1", [], True),
            ("0", [], False),
            ("0", [("0", 2), ("1 - a", 1)], True),
            ("-8 + 8*a", [("2", 3), ("a - 1", 1)], True),
            ("0", [("4 - a", 1)], False),  # both vanish at a = 4, the width det alone gives
            ("1 - 2*a + a^2", [("1 - a", 2)], True),
            ("1 - 2*a + a^2", [("1 - a", 3)], False),
        ],
    )
    def test_one_variable_edges(self, det, factors, expected):
        formula = FactoredPoly(1, [(parse_poly(b, 1), e) for b, e in factors])
        assert _agrees(parse_poly(det, 1), None, formula) == expected == (parse_poly(det, 1) == formula.expand())

    @pytest.mark.parametrize(
        "factored, formula",
        [
            ([("9", 1), ("1 - a1p*a2m", 2)], [("-3", 2), ("1 - a1p*a2m", 2)]),
            ([("9", 1), ("1 - a1p*a2m", 2)], [("-3", 3), ("1 - a1p*a2m", 2)]),  # a beta raised on a constant
            ([("9", 1), ("1 - a1p*a2m", 2)], [("-3", 1), ("1 - a1p*a2m", 2)]),  # and lowered
            ([("-8", 1), ("1 - a1p", 1)], [("2", 3), ("-1", 1), ("1 - a1p", 1)]),
            ([("0", 1)], [("0", 2), ("1 - a1p", 1)]),
            ([("4", 1), ("1 - a1p", 1)], [("0", 1), ("1 - a1p", 1)]),
            ([("0", 1)], [("4", 1), ("1 - a1p", 1)]),
            ([("4 - 4*a1p", 1)], [("4", 1), ("1 - a1p", 1)]),  # a leftover with a constant content: expanded
            ([("3", 1), ("1 - a1p", 1)], [("3", 1), ("1 - a2m", 1)]),
        ],
    )
    def test_constants_against_expansion(self, monkeypatch, factored, formula):
        factored, formula = (FactoredPoly(4, [(parse_poly(b, 4), e) for b, e in fs]) for fs in (factored, formula))
        expand = FactoredPoly.expand
        expanded = []
        monkeypatch.setattr(FactoredPoly, "expand", lambda self: expanded.append(self) or expand(self))
        det = expand(factored)
        assert _agrees(det, factored, formula) == (det == expand(formula))
        # only where the non-constant factors differ
        rest = [[(base, e) for base, e in f.factors if base.total_degree()] for f in (factored, formula)]
        assert bool(expanded) == (rest[0] != rest[1] and all(base for base, _ in formula.factors))

    def test_sweep_against_expansion(self, monkeypatch):
        # the formula is never expanded: under the maps that send a_i^+ a_i^- to a constant other than 1,
        # the leftover keeps the constants, whose product decides, and a zero base agrees with det == 0
        expand = FactoredPoly.expand
        expanded = []
        monkeypatch.setattr(FactoredPoly, "expand", lambda self: expanded.append(self) or expand(self))
        fibers = dict(corpus_fibers(), **{str(i): f for i, f in enumerate(_seeded_fibers())})
        fell_back = {}
        for name, f in fibers.items():
            for text in _SWEEP_MAPS:
                spec = _map(text, 2 * f.n)
                if spec is False:
                    continue
                expanded.clear()
                report = verify(f, mode="symbolic", specialize=spec, force_symbolic=True)
                assert report.agreement and report.determinant == expand(report.formula), (name, text)
                if any(x is report.formula for x in expanded):
                    assert report.determinant.nvars > 1, (name, text)
                    fell_back[text] = fell_back.get(text, 0) + 1
        assert fell_back == {}

    @pytest.mark.parametrize("spec", [None, "a1p=2,a1m=2", "all=a", "a1p=2,a1m=a,a2p=a,a2m=a,a3p=a,a3m=a"])
    def test_tampered_formula(self, monkeypatch, spec):
        # several variables with no map, the same under a constant map whose leftover keeps the
        # constants, and two one-variable maps
        f = whole_fiber(concurrent_lines())
        spec = _map(spec, 2 * f.n)
        honest = product_formula(f, spec)
        calls = _spy(monkeypatch, "product_formula")
        expand = FactoredPoly.expand
        expanded = []
        monkeypatch.setattr(FactoredPoly, "expand", lambda self: expanded.append(self) or expand(self))
        report = verify(f, mode="symbolic", specialize=spec)
        assert report.agreement and len(calls) == 1
        assert not any(x is report.formula for x in expanded)
        monkeypatch.undo()
        cases = [("raise", j) for j in range(len(honest.factors))] + [("lower", j) for j in range(len(honest.factors))]
        cases += [("drop", j) for j, (base, _) in enumerate(honest.factors) if base.total_degree()]
        for kind, j in cases:
            tampered = lambda *args: _tampered(product_formula(*args), kind, j)  # noqa: E731
            monkeypatch.setattr(omdet.varchenko, "product_formula", tampered)
            report = verify(f, mode="symbolic", specialize=spec)
            assert report.formula == _tampered(honest, kind, j)
            assert report.agreement == (report.determinant == report.formula.expand()), (kind, j)
            assert not report.agreement, (kind, j)


def _named_maps(nvars, free):
    """The maps of the symbolic sweep that fit nvars variables."""
    return st.sampled_from([spec for spec in (_map(text, nvars) for text in _SWEEP_MAPS) if spec is not False])


@cache
def _text_fibers():
    return dict(_corpus(), non_pappus=faces(non_pappus()), **{str(i): f for i, f in enumerate(_seeded_fibers())})


class TestFlatText:
    """The weight and formula text read from the zero masks against poly_str and factored_str of the polynomials."""

    @staticmethod
    def _check(f, spec):
        text = _FlatText(*_map_of(f.n, spec))
        for (_, mask, _), (_, weight, _) in zip(_face_masks(f), face_multiplicities(f)):
            assert text.weight(mask) == poly_str(weight if spec is None else spec.apply_poly(weight))
        assert text.formula(_flat_betas(f)) == factored_str(product_formula(f, spec))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_against_the_polynomials(self, data):
        # no map, all=a, zero images, coefficients and signs, constant pairs, and images c*x_v built directly
        fibers = _text_fibers()
        f = fibers[data.draw(st.sampled_from(sorted(fibers)))]
        families = [_named_maps, _mask_specializations, _zero_hyperplane_maps, _constant_pair_maps]
        family = data.draw(st.sampled_from(families))
        self._check(f, data.draw(family(2 * f.n, f.free)))

    @pytest.mark.parametrize("text", _SWEEP_MAPS)
    def test_named_maps_on_every_fiber(self, text):
        for f in _text_fibers().values():
            spec = _map(text, 2 * f.n)
            if spec is not False:
                self._check(f, spec)

    def test_images_that_merge_and_vanish(self):
        # flats {1} and {2} both go to -a1m, and a3p -> 0 drops every base on plane 3
        f = faces(non_pappus())
        images = [(1, v) for v in range(2 * f.n)]
        images[0], images[2], images[3], images[4] = (-1, None), (-1, 1), (1, None), (0, None)
        spec = Specialization(tuple(images), 2 * f.n)
        self._check(f, spec)
        betas = _flat_betas(f)
        assert str(product_formula(f, spec)).startswith(f"(1 + a1m)^{betas[1] + betas[2]} * ")
