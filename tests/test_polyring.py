import random

import pytest
from hypothesis import given, settings, strategies as st

from omdet.polyring import (
    ExactDivisionError,
    ExponentOverflowError,
    FactoredPoly,
    IntPolynomial,
    MAX_EXPONENT,
    Specialization,
    _divide_exact,
    divide_binomial,
    factored_str,
    pack_monomial,
    poly_str,
    unpack_monomial,
    var_index,
    var_label,
)

from oracle import exact_div, mul_sub_div, parse_poly, specialization_mapping, substitute, substitute_factored

P = IntPolynomial


def b1(nvars=2):
    """The pair monomial a1p*a1m."""
    return P.monomial(nvars, {0: 1, 1: 1})


def random_poly(rng, nvars, max_terms=5, max_exp=3, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in range(nvars)}
        key = pack_monomial(nvars, exps)
        terms[key] = rng.randint(-max_coeff, max_coeff)
    return P(nvars, terms)


class TestVarIndex:
    def test_round_trip(self):
        # every universe of whole a_i^+/a_i^- pairs, up to the 64-hyperplane cap
        for nvars in range(2, 129, 2):
            for idx in range(nvars):
                assert var_index(var_label(idx, nvars)) == idx
        assert var_index("a1p") == 0
        assert var_index("a1m") == 1
        assert var_index("a3p") == 4

    def test_labels(self):
        assert var_label(0, 2) == "a1p"
        assert var_label(3, 4) == "a2m"
        assert var_label(5, 6) == "a3m"
        assert var_label(0, 1) == "a"

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^hyperplane index must be >= 1, got 0$"):
            var_index("a0p")
        for label in ("a1q", "x1p", "a", "a-1p"):
            with pytest.raises(ValueError, match=r"^unknown variable .* \(expected a<i>p or a<i>m\)$"):
                var_index(label)


class TestPacking:
    def test_round_trip(self):
        exps = {0: 3, 2: 1, 5: 7}
        key = pack_monomial(6, exps)
        assert unpack_monomial(6, key) == exps
        assert list(unpack_monomial(6, key)) == [0, 2, 5]  # ascending, as poly_str prints them

    def test_zero_exponents_dropped(self):
        assert pack_monomial(3, {0: 0, 1: 2}) == pack_monomial(3, {1: 2})

    def test_graded_lex_is_integer_order(self):
        n = 3
        lo = pack_monomial(n, {2: 1})       # a2p
        hi = pack_monomial(n, {0: 1})       # a1p, same degree, earlier variable
        sq = pack_monomial(n, {2: 2})       # degree 2 beats degree 1
        assert lo < hi < sq


class TestArithmetic:
    def test_addition_cancels(self):
        one = P.one(2)
        p = one - b1()
        assert p + b1() == one

    def test_product_example(self):
        one = P.one(2)
        assert (one - b1()) * (one + b1()) == one - b1() * b1()

    def test_pow_example(self):
        one = P.one(2)
        sq = (one - b1()) ** 2
        assert sq == one - 2 * b1() + b1() * b1()
        assert poly_str(sq) == "1 - 2*a1p*a1m + a1p^2*a1m^2"

    def test_pow_edge_cases(self):
        assert P.zero(1) ** 0 == P.one(1)
        assert (P.variable(1, 0)) ** 1 == P.variable(1, 0)
        with pytest.raises(ValueError):
            P.one(1) ** -1

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            P.one(2) + P.one(4)

    def test_ring_axioms_randomized(self):
        rng = random.Random(11)
        for _ in range(60):
            p, q, r = (random_poly(rng, 3) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r

    def test_int_coercion(self):
        p = P.variable(1, 0)
        assert 1 - p == P.one(1) - p
        assert p * 3 == P.const(1, 3) * p
        assert P.const(1, 5) == 5


class TestExactDiv:
    def test_example(self):
        one = P.one(2)
        p = one - b1() * b1()  # 1 - (a1p*a1m)^2
        q = one - b1()
        assert exact_div(p, q) == one + b1()

    def test_identity_divisor(self):
        p = P.one(2) - b1()
        assert exact_div(p, P.one(2)) == p
        assert exact_div(p, 1) == p

    def test_inexact_raises(self):
        two = P.variable(4, 0) + P.variable(4, 2)
        with pytest.raises(ExactDivisionError):
            exact_div(two, P.variable(4, 0))

    def test_coefficient_inexactness_raises(self):
        with pytest.raises(ExactDivisionError):
            exact_div(P.const(1, 3), P.const(1, 2))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            exact_div(P.one(1), P.zero(1))

    def test_round_trip_randomized(self):
        rng = random.Random(23)
        checked = 0
        while checked < 40:
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            if q.is_zero:
                continue
            assert exact_div(p * q, q) == p
            checked += 1

    def test_fused_kernel_matches_separate_ops(self):
        # (p*(q*d) - r*(s*d)) / d == p*q - r*s
        rng = random.Random(5)
        for _ in range(40):
            p, q, r, s = (random_poly(rng, 2) for _ in range(4))
            d = random_poly(rng, 2)
            if d.is_zero:
                continue
            assert mul_sub_div(p, q * d, r, s * d, d) == p * q - r * s


class TestMonomialDivisor:
    """_divide_exact by a one-term divisor: exact quotients, and the error the leading term raises."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), coeff=st.sampled_from([-3, -1, 1, 2, 7]))
    def test_round_trip(self, seed, coeff):
        rng = random.Random(seed)
        p = random_poly(rng, 3)
        m = P.monomial(3, {rng.randrange(3): rng.randint(0, 2), rng.randrange(3): rng.randint(0, 2)}, coeff)
        assert _divide_exact(3, dict((p * m)._terms), m._terms) == p._terms

    @pytest.mark.parametrize(
        "dividend, divisor, message",
        [
            ("3*a1p^2", "2*a1p", "leading coefficient not divisible"),
            ("a1m*a1p + a1m", "a1p", "leading monomial not divisible"),
            ("a1p^2", "a1m", "leading monomial not divisible"),  # the a1m lane borrows
            # the leading term fails first, wherever the dict holds it
            ("a1m + 3*a1p^2", "2*a1p", "leading coefficient not divisible"),
            # a term failing both checks reports its monomial
            ("3*a1m + 4*a1p^2", "2*a1p", "leading monomial not divisible"),
            ("a1m^2 + 4*a1p^2 + 3*a1p", "2*a1p", "leading monomial not divisible"),
        ],
    )
    def test_errors_of_the_leading_term(self, dividend, divisor, message):
        terms = dict(sorted(parse_poly(dividend, 2)._terms.items()))  # lowest key first
        with pytest.raises(ExactDivisionError, match=f"^{message}$"):
            _divide_exact(2, terms, parse_poly(divisor, 2)._terms)


class TestDivideBinomial:
    """divide_binomial(nvars, terms, b, c): exact quotient by 1 - c*x^b."""

    @staticmethod
    def binomial(nvars, b, c):
        return P(nvars, {0: 1, b: -c})

    def test_exact_quotient(self):
        rng = random.Random(8)
        for _ in range(30):
            q = random_poly(rng, 3)
            b = pack_monomial(3, {rng.randrange(3): rng.randint(1, 2), rng.randrange(3): 1})
            p = q * self.binomial(3, b, 1)
            assert divide_binomial(3, p._terms, b) == q._terms

    def test_nonzero_remainder_raises(self):
        b = pack_monomial(2, {0: 1, 1: 1})
        p = self.binomial(2, b, 1) * parse_poly("1 + a1p", 2) + 1
        with pytest.raises(ExactDivisionError):
            divide_binomial(2, p._terms, b)

    def test_negative_coefficient(self):
        # 1 - c*x^b with c = -2 is 1 + 2*x^b
        b = pack_monomial(2, {1: 2})
        q = parse_poly("3 - a1p + 5*a1p*a1m^3", 2)
        p = q * parse_poly("1 + 2*a1m^2", 2)
        assert divide_binomial(2, p._terms, b, -2) == q._terms

    def test_borrow_in_the_leading_key_is_rejected(self):
        # a1p - a1m is a nonnegative integer whose a1m lane borrows
        p = P.variable(2, 0)._terms
        b = pack_monomial(2, {1: 1})
        assert max(p) - b > 0
        with pytest.raises(ExactDivisionError, match="leading monomial not divisible"):
            divide_binomial(2, p, b)

    def test_quotient_key_above_the_leading_bound(self):
        # (1 + x^2) / (1 - x): the quotient would run on past x = max(p) - b
        p = parse_poly("1 + a^2", 1)._terms
        with pytest.raises(ExactDivisionError, match="nonzero remainder"):
            divide_binomial(1, p, pack_monomial(1, {0: 1}))

    def test_empty_dividend(self):
        assert divide_binomial(2, {}, pack_monomial(2, {0: 1})) == {}


class TestOverflowDetection:
    def test_multiplication_overflow(self):
        big = P.monomial(1, {0: MAX_EXPONENT})
        with pytest.raises(ExponentOverflowError):
            big * P.variable(1, 0)

    def test_pack_overflow(self):
        with pytest.raises(ExponentOverflowError):
            pack_monomial(1, {0: MAX_EXPONENT + 1})


class TestSubstitution:
    def test_collapse_weight_of_triple_point(self):
        # weight of a covector vanishing on three hyperplanes, all vars -> a
        w = P.monomial(6, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
        spec = Specialization.collapse_all(6)
        image = spec.apply_poly(w)
        assert image == P.monomial(1, {0: 6})
        assert poly_str(image) == "a^6"

    def test_collapsed_image_prints_as_a(self):
        a1p_a2m = P.monomial(4, {0: 1, 3: 1})
        assert str(Specialization.collapse_all(4).apply_poly(a1p_a2m)) == "a^2"

    def test_identity_map(self):
        p = P.one(4) - P.monomial(4, {0: 1, 3: 2})
        spec = Specialization.of(4, {})
        assert spec.nvars == 4
        assert spec.apply_poly(p) == p
        assert spec.apply_factored(FactoredPoly(4, [(p, 3)])) == FactoredPoly(4, [(p, 3)])

    def test_numeric_substitution(self):
        p = P.one(2) - b1()
        assert Specialization.of(2, {0: 2, 1: 3}).apply_poly(p) == P.const(2, -5)
        pinned = Specialization.of(2, {1: -3})
        assert pinned.apply_poly(p) == P.one(2) + 3 * P.variable(2, 0)

    def test_homomorphism_randomized(self):
        # the reference substitution with non-monomial images
        rng = random.Random(31)
        images = {0: P.one(2) - b1(), 1: b1(), 2: P.const(2, 3)}
        for _ in range(25):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            lhs = substitute(p * q, images, 2)
            rhs = substitute(p, images, 2) * substitute(q, images, 2)
            assert lhs == rhs

    def test_partial_map_to_new_universe_rejected(self):
        with pytest.raises(ValueError, match="cover every variable"):
            Specialization.of(4, {0: "a", 1: 2, 2: "a"})
        with pytest.raises(ValueError):
            Specialization.of(4, {4: 1})
        with pytest.raises(ValueError):
            Specialization.of(2, {0: 1}).apply_poly(P.variable(4, 0))

    def test_key_map_is_a_homomorphism(self):
        rng = random.Random(37)
        spec = Specialization.of(3, {0: "a", 1: -2, 2: "a"})
        for _ in range(25):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            assert spec.apply_poly(p * q) == spec.apply_poly(p) * spec.apply_poly(q)
            assert spec.apply_poly(p - q) == spec.apply_poly(p) - spec.apply_poly(q)

    @pytest.mark.parametrize(
        "values",
        [
            {v: "a" for v in range(4)},
            {0: 0},
            {1: -3, 2: 0},
            {v: (v % 3) - 1 for v in range(4)},
            {0: "a", 1: -2, 2: 0, 3: "a"},
            {0: 5, 1: "a", 2: "a", 3: -1},
        ],
    )
    def test_key_map_matches_substitution_oracle(self, values):
        rng = random.Random(41)
        spec = Specialization.of(4, values)
        mapping, nvars = specialization_mapping(4, values)
        assert spec.nvars == nvars
        for _ in range(40):
            p = random_poly(rng, 4, max_terms=8, max_exp=5, max_coeff=50)
            assert spec.apply_poly(p) == substitute(p, mapping, nvars)
            f = FactoredPoly(4, [(P.one(4) - random_poly(rng, 4), rng.randint(1, 3)) for _ in range(3)])
            assert spec.apply_factored(f) == substitute_factored(f, mapping, nvars)

    def test_collapse_past_exponent_cap(self):
        p = P.monomial(2, {0: 20000, 1: 20000})
        with pytest.raises(ExponentOverflowError):
            Specialization.collapse_all(2).apply_poly(p)


class TestEvalMod:
    def test_constant(self):
        assert P.one(2).eval_mod({0: 5, 1: 7}, 101) == 1

    def test_example(self):
        p = P.one(2) - b1()
        assert p.eval_mod({0: 2, 1: 3}, 101) == 96

    def test_requires_prime_gt_two(self):
        with pytest.raises(ValueError):
            P.one(1).eval_mod({0: 1}, 2)

    def test_missing_assignment(self):
        with pytest.raises(KeyError):
            b1().eval_mod({0: 1}, 11)

    def test_commutes_with_ring_ops(self):
        rng = random.Random(47)
        prime = 10007
        for _ in range(40):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            at = {v: rng.randrange(prime) for v in range(3)}
            assert (p + q).eval_mod(at, prime) == (p.eval_mod(at, prime) + q.eval_mod(at, prime)) % prime
            assert (p * q).eval_mod(at, prime) == (p.eval_mod(at, prime) * q.eval_mod(at, prime)) % prime
            assert (p ** 3).eval_mod(at, prime) == pow(p.eval_mod(at, prime), 3, prime)

    def test_commutes_with_substitution(self):
        # evaluating a specialized polynomial equals evaluating the original
        # at the images' values
        rng = random.Random(59)
        prime = 10007
        spec = Specialization.of(3, {0: "a", 1: 4, 2: "a"})
        for _ in range(25):
            p = random_poly(rng, 3)
            x = rng.randrange(prime)
            lifted = {0: x, 1: 4, 2: x}
            assert spec.apply_poly(p).eval_mod({0: x}, prime) == p.eval_mod(lifted, prime)

    def test_factored_matches_expansion(self):
        rng = random.Random(53)
        one = P.one(2)
        f = FactoredPoly(2, [(one - b1(), 3), (one + b1(), 2)])
        prime = 10007
        expanded = f.expand()
        for _ in range(10):
            at = {v: rng.randrange(prime) for v in range(2)}
            assert f.eval_mod(at, prime) == expanded.eval_mod(at, prime)


class TestFactoredPoly:
    def test_expand_examples(self):
        one = P.one(2)
        single = FactoredPoly(2, [(one - b1(), 1)])
        assert single.expand() == one - b1()
        assert FactoredPoly(2, []).expand() == one

    def test_merge_and_sort(self):
        one = P.one(2)
        f = FactoredPoly(2, [(one - b1(), 1), (one - b1(), 2)])
        assert f.factors == ((one - b1(), 3),)
        assert factored_str(f) == "(1 - a1p*a1m)^3"

    def test_zero_exponent_dropped(self):
        one = P.one(2)
        f = FactoredPoly(2, [(one - b1(), 0)])
        assert f.factors == ()
        assert factored_str(f) == "1"

    def test_univariate_expansion_degree(self):
        a = P.variable(1, 0)
        one = P.one(1)
        f = FactoredPoly(1, [(one - a**2, 2), (one - a**6, 1)])
        direct = (one - a**2) * (one - a**2) * (one - a**6)
        assert f.expand() == direct
        assert f.expand().total_degree() == 10
        assert f.total_degree() == 10

    def test_canonical_factor_order(self):
        one = P.one(4)
        b_1 = P.monomial(4, {0: 1, 1: 1})
        b_2 = P.monomial(4, {2: 1, 3: 1})
        f = FactoredPoly(4, [(one - b_2, 2), (one - b_1, 2), (one - b_1 * b_2, 1)])
        assert factored_str(f) == "(1 - a1p*a1m)^2 * (1 - a2p*a2m)^2 * (1 - a1p*a1m*a2p*a2m)"


class TestPrinting:
    def test_canonical_strings(self):
        one = P.one(2)
        assert poly_str(P.zero(2)) == "0"
        assert poly_str(one) == "1"
        assert poly_str(-one) == "-1"
        assert poly_str(one - b1()) == "1 - a1p*a1m"
        assert poly_str(b1() - one) == "-1 + a1p*a1m"

    def test_equal_polys_print_identically(self):
        rng = random.Random(61)
        for _ in range(25):
            p = random_poly(rng, 3)
            q = random_poly(rng, 3)
            assert poly_str((p + q) - q) == poly_str(p)

    def test_terms_order_earlier_variables_first(self):
        p = P.monomial(4, {0: 1, 1: 1}) + P.monomial(4, {2: 1, 3: 1}) + 1
        assert poly_str(p) == "1 + a1p*a1m + a2p*a2m"

    def test_parse_round_trip_randomized(self):
        rng = random.Random(67)
        for _ in range(40):
            p = random_poly(rng, 4)
            assert parse_poly(poly_str(p), 4) == p

    @settings(derandomize=True, max_examples=150)
    @given(data=st.data())
    def test_parse_round_trip_hypothesis(self, data):
        nvars = data.draw(st.integers(0, 6))
        monomial = st.lists(st.integers(0, MAX_EXPONENT), min_size=nvars, max_size=nvars)
        terms = data.draw(st.lists(st.tuples(monomial, st.integers(-(10**30), 10**30)), max_size=8))
        p = sum((P.monomial(nvars, dict(enumerate(e)), c) for e, c in terms), P.zero(nvars))
        assert parse_poly(poly_str(p), p.nvars) == p
        if nvars == 1 and p.total_degree():
            # "a" names the one-variable universe, so the text alone restores it
            assert parse_poly(poly_str(p)) == p

    def test_parse_collapsed_variable(self):
        p = parse_poly("1 - 2*a^2 + a^6")
        a = P.variable(1, 0)
        assert p == P.one(1) - 2 * a**2 + a**6

    def test_parse_rejects_mixed_universes(self):
        with pytest.raises(ValueError):
            parse_poly("a + a1p")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("1 + ?")
        with pytest.raises(ValueError):
            parse_poly("a1p ^ x")
