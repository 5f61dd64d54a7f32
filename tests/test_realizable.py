import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from omdet import realizable
from omdet.realizable import (
    RationalArrangement,
    _cocircuits,
    _integer_rows,
    arrangement_fiber,
    enumerate_covectors,
    homogenize,
    sign_feasible,
)
from omdet.signvec import CovectorSet, SignVector, _cocircuit_check, _maximal, composition_closure, topes
from omdet.varchenko import determinant, product_formula
from omdet.polyring import IntPolynomial

from oracle import (
    checked_covectors, cocircuits_per_subset, exhaustive_covectors, fm_covectors, fraction_feasible,
    random_central_arrangement
)

sv = SignVector.from_string
P = IntPolynomial


def grid_feasible(arr, sigma, span=4, den=3):
    """Sample oracle: search a rational grid for a witness point.

    Complete only for the small fixed corpus cases below (their cells are
    all wide enough to contain a grid point).
    """
    d = arr.dim
    values = [Fraction(num, den) for num in range(-span * den, span * den + 1)]
    for point in product(values, repeat=d):
        ok = True
        for i, (normal, offset) in enumerate(arr.hyperplanes, start=1):
            value = sum(c * x for c, x in zip(normal, point)) - offset
            target = sigma.sign(i)
            if (value > 0) != (target > 0) or (value < 0) != (target < 0):
                ok = False
                break
        if ok:
            return True
    return False


class TestSignFeasible:
    def test_two_coordinate_lines(self):
        arr = RationalArrangement.of([[1, 0], [0, 1]])
        assert sign_feasible(arr, sv("++"))
        assert sign_feasible(arr, sv("00"))

    def test_dependent_forms(self):
        arr = RationalArrangement.of([[1], [2]])
        assert not sign_feasible(arr, sv("+-"))
        assert sign_feasible(arr, sv("++"))
        assert sign_feasible(arr, sv("00"))

    def test_three_concurrent_lines(self):
        arr = RationalArrangement.of([[1, 0], [0, 1], [1, -1]])
        # x>0, y>0, x<y is realized (e.g. x=1, y=2)
        assert sign_feasible(arr, sv("++-"))
        # x>0, y<0 forces x-y>0
        assert not sign_feasible(arr, sv("+--"))
        assert not sign_feasible(arr, sv("0+0"))

    def test_matches_grid_oracle(self):
        arr = RationalArrangement.of([[1, 0], [0, 1], [1, -1]])
        for signs in product("+-0", repeat=3):
            sigma = sv("".join(signs))
            assert sign_feasible(arr, sigma) == grid_feasible(arr, sigma), str(sigma)

    def test_rejects_affine(self):
        arr = RationalArrangement.of([[1]], [1], affine=True)
        with pytest.raises(ValueError):
            sign_feasible(arr, sv("+"))


class TestEnumerate:
    def test_single_hyperplane(self):
        s = enumerate_covectors(RationalArrangement.of([[1]]))
        assert [str(m) for m in s.members] == ["-", "0", "+"]

    def test_two_coordinate_lines(self):
        s = enumerate_covectors(RationalArrangement.of([[1, 0], [0, 1]]))
        assert len(s) == 9

    def test_three_concurrent(self):
        s = enumerate_covectors(RationalArrangement.of([[1, 0], [0, 1], [1, -1]]))
        assert len(s) == 13

    def test_output_is_verified_and_symmetric(self):
        rng = random.Random(101)
        for _ in range(8):
            arr = random_central_arrangement(rng)
            s = checked_covectors(arr)
            assert SignVector.zero(s.n) in s
            for m in s.members:
                assert -m in s

    def test_generic_position_tope_count(self):
        # 2 * sum_{k < d} C(n-1, k) chambers for central arrangements in
        # general position
        rng = random.Random(7)
        found = 0
        while found < 6:
            d = rng.choice((2, 3))
            n = rng.randint(d, 5)
            normals = []
            while len(normals) < n:
                vec = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
                if any(vec):
                    normals.append(vec)
            if not _in_general_position(normals, d):
                continue
            arr = RationalArrangement.of(normals)
            s = checked_covectors(arr)
            expected = 2 * sum(comb(n - 1, k) for k in range(d))
            assert len(topes(s)) == expected, normals
            found += 1


class TestEnumerationOracle:
    """enumerate_covectors against one fraction_feasible call per sign vector,
    which computes no cocircuit (sign_feasible shares them with the code under test)."""

    def test_random_central(self):
        rng = random.Random(2003)
        proportional = 0
        for _ in range(200):
            arr = random_central_arrangement(rng)
            normals = [normal for normal, _ in arr.hyperplanes]
            proportional += any(_rank([a, b]) == 1 for a, b in combinations(normals, 2))
            assert checked_covectors(arr).members == exhaustive_covectors(arr, fraction_feasible), normals
        assert proportional >= 20

    def test_four_dimensions(self):
        rng = random.Random(4)
        cases = [
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1]],
            [[1, 1, 0, 0], [0, 1, 1, 0], [1, 2, 1, 0], [0, 0, 1, 1], [2, 2, 0, 0], [1, 0, 0, -1]],
        ]
        while len(cases) < 6:
            normals = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(rng.randint(4, 6))]
            if all(any(normal) for normal in normals):
                cases.append(normals)
        for normals in cases:
            arr = RationalArrangement.of(normals)
            assert checked_covectors(arr).members == exhaustive_covectors(arr, fraction_feasible), normals

    @pytest.mark.parametrize(
        "normals, offsets",
        [
            ([[1], [1], [1]], [0, 1, -2]),
            ([[1, 0], [1, 0], [0, 1], [0, 1]], [0, 1, 0, 1]),
            ([[1, 0], [1, 0], [1, 1], [1, -1], [2, 2], [0, 1]], [0, 2, 1, 0, 1, -1]),
        ],
    )
    def test_homogenized_parallel_lines(self, normals, offsets):
        central, _, _ = homogenize(RationalArrangement.of(normals, offsets, affine=True))
        assert enumerate_covectors(central).members == exhaustive_covectors(central, fraction_feasible)

    def test_fraction_oracle_mixed_denominators(self):
        # fractional normals reach the integer rows only through the lcm
        # scaling; a dependent normal makes a form vanish on a cell's span
        rng = random.Random(7)
        dependent = 0
        for _ in range(40):
            d = rng.randint(1, 4)
            n = rng.randint(2, 6)
            normals = []
            while len(normals) < n:
                vec = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7))) for _ in range(d)]
                if any(vec):
                    normals.append(vec)
            if rng.random() < 0.4:
                normals[rng.randrange(1, n)] = [Fraction(-3, 7) * c for c in normals[0]]
                dependent += 1
            arr = RationalArrangement.of(normals)
            expected = exhaustive_covectors(arr, fraction_feasible)
            assert exhaustive_covectors(arr) == expected, normals
            assert checked_covectors(arr).members == expected, normals
        assert dependent >= 10

    def test_output_sensitive_twelve_planes(self):
        # moment-curve normals (1, t, t^2) are in general position; the work
        # must follow the 531 covectors, not the 3^12 sign patterns
        arr = RationalArrangement.of([[1, t, t * t] for t in range(1, 13)])
        s = enumerate_covectors(arr)
        assert len(s) == 531
        assert len(topes(s)) == 134 == 2 * sum(comb(11, k) for k in range(3))
        assert s.verified


def _drawn_arrangement(data) -> RationalArrangement:
    """A central arrangement with d <= 4 and n <= 6, or the homogenization of
    an affine one with d <= 3 and n <= 5.  The normals are combinations of a
    drawn number of base vectors, so inputs of lower rank (with dependent
    leading columns when a base vector starts with zeros) come up, and a
    normal may repeat an earlier one times 1, 2, -1 or -1/3."""
    affine = data.draw(st.booleans(), label="affine")
    d = data.draw(st.integers(1, 3 if affine else 4), label="d")
    vector = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    bases = data.draw(st.lists(vector.filter(any), min_size=1, max_size=d), label="bases")
    normals = []
    for _ in range(data.draw(st.integers(1, 5 if affine else 6), label="n")):
        if normals and data.draw(st.booleans()):
            scale = data.draw(st.sampled_from((1, 2, -1, Fraction(-1, 3))))
            normal = [scale * c for c in data.draw(st.sampled_from(normals))]
        else:
            weights = data.draw(st.lists(st.integers(-2, 2), min_size=len(bases), max_size=len(bases)))
            normal = [sum(w * base[k] for w, base in zip(weights, bases)) for k in range(d)]
        normals.append(normal if any(normal) else bases[0])
    if not affine:
        return RationalArrangement.of(normals)
    offsets = data.draw(st.lists(st.integers(-2, 2), min_size=len(normals), max_size=len(normals)))
    return homogenize(RationalArrangement.of(normals, offsets, affine=True)).central


class TestCocircuitEnumeration:
    """The cocircuit closure against enumerations that compute no cocircuit."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_oracle(self, data):
        arr = _drawn_arrangement(data)
        assert checked_covectors(arr).members == exhaustive_covectors(arr, fraction_feasible)

    @pytest.mark.parametrize(
        "normals",
        [
            [[0, 1], [0, 2], [0, -1]],
            [[0, 0, 1], [0, 1, 1], [0, 2, 2], [0, -1, 1], [0, 1, -3]],
            [[1, 2, 3], [-1, -2, -3], [2, 4, 6], [1, 0, 0], [0, 0, 1]],
            [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 3], [1, -1, 0, 0], [2, 0, 0, 2]],
            [[Fraction(1, 2), Fraction(-1, 3)], [3, -2], [Fraction(-3, 7), Fraction(2, 7)], [1, 1]],
            # rank 3 with a negative head in the first row: previous < 0 at the last step
            [[-2, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [4, -2, 0]],
        ],
    )
    def test_sign_feasible_matches_fraction_oracle(self, normals):
        # every one of the 3^n sign vectors, feasible or not
        arr = RationalArrangement.of(normals)
        for signs in product("-0+", repeat=arr.n):
            sigma = sv("".join(signs))
            assert sign_feasible(arr, sigma) == fraction_feasible(arr, sigma), str(sigma)

    def test_matches_incremental_fourier_motzkin(self):
        rng = random.Random(1407)
        cases = []
        for n in (7, 7, 7, 8, 8, 8):
            cases.append(RationalArrangement.of([[rng.randint(-4, 4) or 1 for _ in range(3)] for _ in range(n)]))
        for _ in range(4):
            normals = [[rng.randint(-3, 3) or -1 for _ in range(3)] for _ in range(6)]
            normals[5] = [-2 * c for c in normals[rng.randrange(5)]]
            offsets = [rng.randint(-3, 3) for _ in range(6)]
            cases.append(homogenize(RationalArrangement.of(normals, offsets, affine=True)).central)
        # 16 hyperplanes on 6 lines in R^5: the subsets run over the lines
        lines = [[rng.randint(-3, 3) or 2 for _ in range(5)] for _ in range(6)]
        scales = [rng.choice((1, 3, -1)) for _ in range(16)]
        cases.append(RationalArrangement.of([[k * c for c in lines[i % 6]] for i, k in enumerate(scales)]))
        for arr in cases:
            assert checked_covectors(arr).members == fm_covectors(arr), arr


# rank 3 whose first row heads with -2, and rank 4 whose second row is reduced to a negative head:
# previous < 0 at the last step of every subset they start
PREVIOUS_NEGATIVE = (
    [[-2, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1], [4, -2, 0]],
    [[1, 0, 0, 0], [3, -1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1], [-1, 2, 0, 1]],
)


def _column_scaled(data, arr: RationalArrangement) -> RationalArrangement:
    """arr with each coordinate column times a drawn positive fraction, and each row times another: the
    same covectors, from normals with mixed denominators."""
    fraction = st.builds(Fraction, st.integers(1, 5), st.sampled_from((1, 2, 3, 5, 7)))
    columns = data.draw(st.lists(fraction, min_size=arr.dim, max_size=arr.dim), label="column scales")
    rows = data.draw(st.lists(fraction, min_size=arr.n, max_size=arr.n), label="row scales")
    normals = [normal for normal, _ in arr.hyperplanes]
    return RationalArrangement.of([[r * c * s for c, s in zip(normal, columns)] for normal, r in zip(normals, rows)])


class TestCocircuitOracle:
    """_cocircuits, which shares prefixes, against one elimination per subset."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_subset_oracle(self, data):
        # ranks 1-4, parallel and repeated normals (_drawn_arrangement), then mixed denominators
        arr = _drawn_arrangement(data)
        scaled = _column_scaled(data, arr)
        assert _cocircuits(arr) == cocircuits_per_subset(arr)
        assert _cocircuits(scaled) == cocircuits_per_subset(scaled) == _cocircuits(arr)

    @pytest.mark.parametrize(
        "normals",
        [
            [[2], [-1], [Fraction(1, 3)]],
            [[1, 2, 3], [-2, -4, -6], [Fraction(1, 2), 1, Fraction(3, 2)]],
            [[1, 0], [2, 0], [0, 1], [-1, 1], [Fraction(1, 2), Fraction(-1, 2)], [0, 1]],
            [[0, 0, 1], [0, 1, 1], [0, 2, 2], [0, -1, 1], [0, 1, -3]],
            [[Fraction(1, 2), 0, Fraction(-2, 3), 1], [0, 1, 1, Fraction(1, 5)], [1, 1, 0, 0],
             [Fraction(-1, 7), 0, 1, 1], [1, -1, 1, -1], [2, 2, 0, 0]],
            *PREVIOUS_NEGATIVE,
        ],
    )
    def test_named_cases(self, normals):
        arr = RationalArrangement.of(normals)
        assert _cocircuits(arr) == cocircuits_per_subset(arr)
        assert checked_covectors(arr).members == exhaustive_covectors(arr, fraction_feasible)

    def test_previous_is_negative_at_the_last_step(self):
        rank3, rank4 = (_integer_rows(RationalArrangement.of(normals)) for normals in PREVIOUS_NEGATIVE)
        assert rank3[0][0] < 0
        # the second row less 3 times the first, over previous = 1: its head is -1 in column 2
        assert rank4[0][0] * rank4[1][1] - rank4[1][0] * rank4[0][1] < 0


def _four_lines():
    """Four lines through the origin of R^2, their cocircuits, and one vector of each pair X, -X."""
    arr = RationalArrangement.of([[1, 0], [0, 1], [1, 1], [1, -1]])
    cocircuits = _cocircuits(arr)
    return arr, cocircuits, sorted(c for c in cocircuits if c[0] > c[1])


def _flip(vector, bit):
    plus, minus = vector
    return plus ^ bit, minus ^ bit


class TestEnumerationGuard:
    """enumerate_covectors checks its own cocircuits; each way they can be wrong must raise."""

    def _raises(self, monkeypatch, arr, cocircuits):
        monkeypatch.setattr(realizable, "_cocircuits", lambda _: set(cocircuits))
        with pytest.raises(AssertionError, match="bug in the enumeration"):
            enumerate_covectors(arr)

    def test_true_cocircuits_pass(self, monkeypatch):
        arr, cocircuits, _ = _four_lines()
        monkeypatch.setattr(realizable, "_cocircuits", lambda _: set(cocircuits))
        assert enumerate_covectors(arr).members == exhaustive_covectors(arr, fraction_feasible)

    def test_one_sign_flipped(self, monkeypatch):
        arr, cocircuits, (x, *_) = _four_lines()
        self._raises(monkeypatch, arr, cocircuits - {x} | {_flip(x, x[0] & -x[0])})

    def test_extra_composite(self, monkeypatch):
        # X o Y is a tope: its empty zero set lies inside X's, so it is no cocircuit, though it
        # comes with its negative and the closure is unchanged
        arr, cocircuits, (x, y, *_) = _four_lines()
        composite = (x[0] | (y[0] & ~(x[0] | x[1])), x[1] | (y[1] & ~(x[0] | x[1])))
        self._raises(monkeypatch, arr, cocircuits | {composite, composite[::-1]})

    def test_two_pairs_on_one_zero_set(self, monkeypatch):
        arr, cocircuits, (x, *_) = _four_lines()
        other = _flip(x, x[0] & -x[0])
        self._raises(monkeypatch, arr, cocircuits | {other, other[::-1]})

    def test_fails_modular_elimination(self, monkeypatch):
        # one pair per zero set, the zero sets incomparable, but X and -X both flipped at one
        # element: no longer the cocircuits of an oriented matroid
        arr, cocircuits, (x, *_) = _four_lines()
        flipped = _flip(x, x[0] & -x[0])
        mutated = cocircuits - {x, x[::-1]} | {flipped, flipped[::-1]}
        full = (1 << arr.n) - 1
        zeros = {full & ~(p | m) for p, m in mutated}
        assert len(zeros) * 2 == len(mutated) and len(_maximal(zeros)) == len(zeros)
        self._raises(monkeypatch, arr, mutated)
        # the closure of these vectors fails the full check too, so the two verdicts agree
        codes = composition_closure(arr.n, [p | m << arr.n for p, m in mutated])
        closed = CovectorSet.of([SignVector(arr.n, code & full, code >> arr.n) for code in codes])
        assert not _cocircuit_check(closed)


def _rank(rows):
    rows = [list(r) for r in rows]
    m = len(rows)
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                ratio = rows[i][c] / rows[r][c]
                rows[i] = [a - ratio * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _in_general_position(normals, d):
    n = len(normals)
    for size in range(1, min(n, d) + 1):
        for subset in combinations(normals, size):
            if _rank(subset) != size:
                return False
    if n > d:
        for subset in combinations(normals, d + 1):
            for drop in range(d + 1):
                sub = subset[:drop] + subset[drop + 1 :]
                if _rank(sub) != d:
                    return False
    return True


class TestHomogenize:
    def test_affine_point_example(self):
        arr = RationalArrangement.of([[1]], [1], affine=True)
        central, free, infinity = homogenize(arr)
        assert central.n == 2 and central.dim == 2
        assert central.hyperplanes[0][0] == (Fraction(1), Fraction(-1))
        assert central.hyperplanes[1][0] == (Fraction(0), Fraction(1))
        assert free == frozenset({1}) and infinity == 2

    def test_two_parallel_affine_lines(self):
        arr = RationalArrangement.of([[1], [1]], [0, 1], affine=True)
        fiber = arrangement_fiber(arr)
        assert len(fiber.topes) == 3
        assert all(m.sign(3) > 0 for m in fiber.members)

    def test_empty_affine_arrangement(self):
        arr = RationalArrangement.of([], affine=True, dim=1)
        central, free, infinity = homogenize(arr)
        assert central.n == 1
        fiber = arrangement_fiber(arr)
        assert [str(t) for t in fiber.topes] == ["+"]

    def test_parallel_fiber_determinant(self):
        fiber = arrangement_fiber(RationalArrangement.of([[1], [1]], [0, 1], affine=True))
        det = determinant(fiber)
        one = P.one(6)
        b = lambda i: P.monomial(6, {2 * (i - 1): 1, 2 * (i - 1) + 1: 1})
        assert det == (one - b(1)) * (one - b(2))
        assert det == product_formula(fiber).expand()

    def test_rejects_central(self):
        with pytest.raises(ValueError):
            homogenize(RationalArrangement.of([[1]]))


class TestJson:
    def test_round_trip(self):
        arr = RationalArrangement.of(
            [[Fraction(1), Fraction(-2, 3)], [Fraction(0), Fraction(1)]],
            [Fraction(1, 2), Fraction(0)],
            affine=True,
        )
        again = RationalArrangement.loads(arr.dumps())
        assert again == arr

    @pytest.mark.parametrize("normals, offsets", [([[0.5, 1]], None), ([[True, 1]], None), ([[1]], [0.5])])
    def test_rejects_inexact_coordinates(self, normals, offsets):
        with pytest.raises(ValueError):
            RationalArrangement.of(normals, offsets, affine=True)

    def test_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            RationalArrangement.of([[0, 0]])

    def test_rejects_offset_on_central(self):
        with pytest.raises(ValueError):
            RationalArrangement.of([[1]], [1], affine=False)
