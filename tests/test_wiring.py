import random
from fractions import Fraction as F

import pytest

from omdet.polyring import IntPolynomial
from omdet.realizable import RationalArrangement, arrangement_fiber, enumerate_covectors
from omdet.signvec import SignVector, compose, leq, validate_fiber
from omdet.varchenko import build_matrix, determinant, face_multiplicities, product_formula, verify
from omdet.wiring import WiringDiagram, face_census, faces, non_pappus, validate

from oracle import (
    column_sweep, lines_to_wiring, random_affine_lines, random_blocks_wiring, random_wiring, substitute_factored,
    sweep_events
)

sv = SignVector.from_string


class TestValidate:
    def test_single_crossing(self):
        rep = validate(WiringDiagram.of(2, [[0, 1]]))
        assert rep.ok and rep.parallel_pairs == ()

    def test_double_crossing_rejected(self):
        rep = validate(WiringDiagram.of(2, [[0, 1], [0, 1]]))
        assert not rep.ok
        assert any("cross 2 times" in p for p in rep.problems)

    def test_triple_point(self):
        rep = validate(WiringDiagram.of(3, [[0, 2]]))
        assert rep.ok and rep.parallel_pairs == ()

    def test_out_of_bounds_block(self):
        rep = validate(WiringDiagram.of(3, [[1, 3]]))
        assert not rep.ok

    def test_parallel_pairs_recorded(self):
        rep = validate(WiringDiagram.of(3, [[0, 1]]))
        assert rep.ok
        assert set(rep.parallel_pairs) == {(1, 3), (2, 3)}


class TestFaces:
    def test_one_crossing_counts(self):
        f = faces(WiringDiagram.of(2, [[0, 1]]))
        cells = [m for m in f.members if m.is_tope]
        edges = [m for m in f.members if len(m.zero_set()) == 1]
        vertices = [m for m in f.members if len(m.zero_set()) == 2]
        assert (len(cells), len(edges), len(vertices)) == (4, 4, 1)

    def test_triple_point_counts(self):
        f = faces(WiringDiagram.of(3, [[0, 2]]))
        assert len(f) == 13 and len(f.topes) == 6

    def test_no_event_parallel_wires(self):
        f = faces(WiringDiagram.of(2, []))
        assert {str(m) for m in f.members} == {"--", "0-", "+-", "+0", "++"}

    def test_matches_realizable_one_crossing(self):
        # wires y = x (bottom at -inf) and y = -x; "+ above" means the form
        # y - f(x), so the central arrangement {y - x, y + x} has the same
        # sign convention
        f = faces(WiringDiagram.of(2, [[0, 1]]))
        s = enumerate_covectors(RationalArrangement.of([[-1, 1], [1, 1]]))
        assert set(f.members) == set(s.members)

    def test_matches_realizable_triple_point(self):
        f = faces(WiringDiagram.of(3, [[0, 2]]))
        s = enumerate_covectors(
            RationalArrangement.of([[-1, 1], [0, 1], [1, 1]])
        )
        assert set(f.members) == set(s.members)

    def test_matches_homogenized_parallels(self):
        # two horizontal wires at heights 0 and 1: affine forms y and y - 1
        f = faces(WiringDiagram.of(2, []))
        fiber = arrangement_fiber(
            RationalArrangement.of([[0, 1], [0, 1]], [0, 1], affine=True)
        )
        stripped = {str(m)[:2] for m in fiber.members}
        assert {str(m) for m in f.members} == stripped

    def test_edges_have_exactly_two_adjacent_cells(self):
        for wd in (WiringDiagram.of(2, [[0, 1]]), WiringDiagram.of(3, [[0, 2]]), non_pappus()):
            f = faces(wd)
            cells = [m for m in f.members if m.is_tope]
            for e in f.members:
                if len(e.zero_set()) == 1:
                    adjacent = [c for c in cells if leq(e, c)]
                    assert len(adjacent) == 2, str(e)

    def test_vertex_zero_sets_match_blocks(self):
        wd = WiringDiagram.of(3, [[0, 2]])
        f = faces(wd)
        vertices = [m for m in f.members if len(m.zero_set()) > 1]
        assert len(vertices) == 1 and vertices[0].zero_set() == {1, 2, 3}

    def test_invalid_diagram_raises(self):
        with pytest.raises(ValueError):
            faces(WiringDiagram.of(2, [[0, 1], [0, 1]]))

    def test_random_diagrams_give_valid_fibers(self):
        rng = random.Random(71)
        for _ in range(15):
            wd = random_wiring(rng, max_wires=5)
            f = faces(wd)
            assert validate_fiber(f) == ()
            # each event splits one more cell than the block has wires minus one
            cells = 1 + wd.wires + sum(hi - lo for lo, hi in wd.events)
            assert len(f.topes) == cells


class TestSweep:
    def test_code_sweep_matches_the_column_sweep(self):
        # one SignVector per distinct face code, against one per cell, segment and vertex of every column
        rng = random.Random(32)
        diagrams = [non_pappus(), WiringDiagram.of(1, []), WiringDiagram.of(64, [(0, 63)])]
        diagrams += [random_blocks_wiring(rng, rng.randint(2, 9), rng.randint(0, 16)) for _ in range(60)]
        diagrams += [random_wiring(rng) for _ in range(20)]
        for wd in diagrams:
            assert faces(wd).members == tuple(sorted(column_sweep(wd), key=SignVector.sort_key)), wd
        assert sum(any(hi - lo >= 2 for lo, hi in wd.events) for wd in diagrams) >= 20
        assert sum(any(hi - lo >= 3 for lo, hi in wd.events) for wd in diagrams) >= 10
        assert sum(bool(validate(wd).parallel_pairs) for wd in diagrams) >= 20


class TestCensus:
    def test_one_crossing(self):
        census = face_census(faces(WiringDiagram.of(2, [[0, 1]])))
        assert census.tope_count == 4
        assert census.as_dict() == {(2, 1): 4, (4, 0): 1}

    def test_triple_point(self):
        census = face_census(faces(WiringDiagram.of(3, [[0, 2]])))
        assert census.tope_count == 6
        assert census.as_dict() == {(2, 1): 6, (6, 1): 1}


class TestNonPappus:
    def test_fixture_is_valid(self):
        wd = non_pappus()
        rep = validate(wd)
        assert rep.ok
        sizes = sorted(hi - lo + 1 for lo, hi in wd.events)
        assert sizes.count(3) == 8 and sizes.count(2) == 7
        assert len(rep.parallel_pairs) == 5

    def test_census(self):
        census = face_census(faces(non_pappus()))
        assert census.tope_count == 33
        assert census.as_dict() == {(2, 1): 47, (4, 0): 7, (6, 1): 8}

    def test_transcription_matches_geometry(self):
        assert non_pappus().events == tuple(_transcribe_non_pappus())

    def test_theorem_holds(self):
        f = faces(non_pappus())
        report = verify(f, mode="randomized", seed=0, evals=5)
        assert report.agreement


class TestJson:
    def test_round_trip(self):
        wd = non_pappus()
        assert WiringDiagram.loads(wd.dumps()) == wd


def _transcribe_non_pappus():
    """Rebuild the event list from exact coordinates of the classical figure.

    Eight straight lines: two horizontal triples of points at y = 1 and
    y = -1 joined by six cross lines (the classical two-triangle picture);
    a ninth pseudoline runs along y = 0 through the two outer inner points
    and dips below the middle one (any straight line through two of the
    three inner points would contain the third).
    """
    lines = {
        "L1": (F(0), F(1)),
        "L2": (F(0), F(-1)),
        "Ab": (F(-2), F(-1)),
        "Ac": (F(-1), F(0)),
        "Ba": (F(2), F(1)),
        "Bc": (F(-2), F(1)),
        "Ca": (F(1), F(0)),
        "Cb": (F(2), F(-1)),
    }
    bend_l, bend_r, dip = F(-1, 8), F(1, 8), F(-1, 16)
    pieces = [
        (None, bend_l, F(0), F(0)),
        (bend_l, F(0), (dip - 0) / (0 - bend_l), dip),
        (F(0), bend_r, (0 - dip) / (bend_r - 0), dip),
        (bend_r, None, F(0), F(0)),
    ]

    def l3_y(x):
        for lo, hi, m, b in pieces:
            if (lo is None or x >= lo) and (hi is None or x <= hi):
                return m * x + b
        raise AssertionError

    points = {}

    def add(x, y, name):
        points.setdefault((x, y), set()).add(name)

    names = list(lines)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            m1, b1 = lines[names[i]]
            m2, b2 = lines[names[j]]
            if m1 == m2:
                continue
            x = (b2 - b1) / (m1 - m2)
            add(x, m1 * x + b1, names[i])
            add(x, m1 * x + b1, names[j])
    for name, (m, b) in lines.items():
        for lo, hi, ms, bs in pieces:
            if m == ms:
                continue
            x = (bs - b) / (m - ms)
            inside = (lo is None or x > lo) and (hi is None or x < hi)
            at_joint = (lo is not None and x == lo) or (hi is not None and x == hi)
            if inside or at_joint:
                add(x, m * x + b, name)
                add(x, m * x + b, "L3")

    far_left = F(-10**6)

    def height(nm):
        if nm == "L3":
            return l3_y(far_left)
        m, b = lines[nm]
        return m * far_left + b

    return sweep_events(sorted(list(lines) + ["L3"], key=height), points)


class TestAgainstArrangements:
    """The two generators check each other: seeded affine lines in R^2, swept into a wiring diagram."""

    def test_faces_match_the_arrangement_fiber(self):
        rng = random.Random(31)
        concurrent = parallel = 0
        for _ in range(60):
            arr = random_affine_lines(rng)
            wd, wire, flipped = lines_to_wiring(arr)
            concurrent += any(hi - lo > 1 for lo, hi in wd.events)
            parallel += bool(validate(wd).parallel_pairs)
            n = arr.n

            def relabeled(v):
                plus = minus = 0
                for i in range(n):
                    sign = -v.sign(i + 1) if flipped[i] else v.sign(i + 1)
                    plus |= (sign > 0) << (wire[i] - 1)
                    minus |= (sign < 0) << (wire[i] - 1)
                return SignVector(n, plus, minus)

            lines, swept = arrangement_fiber(arr), faces(wd)
            assert sorted(map(relabeled, lines.members), key=SignVector.sort_key) == list(swept.members)
            assert {relabeled(u): beta for u, _, beta in face_multiplicities(lines)} == {
                u: beta for u, _, beta in face_multiplicities(swept)
            }
            mapping = {
                2 * i + side: IntPolynomial.variable(2 * n, 2 * (wire[i] - 1) + (side ^ flipped[i]))
                for i in range(n)
                for side in (0, 1)
            }
            formula = substitute_factored(product_formula(lines), mapping, 2 * n)
            assert formula.factors == product_formula(swept).factors
        assert concurrent >= 10 and parallel >= 10, (concurrent, parallel)
