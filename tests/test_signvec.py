import random

import pytest
from hypothesis import given, settings, strategies as st

import omdet.signvec
from omdet.realizable import RationalArrangement, _cocircuits
from omdet.signvec import (
    CovectorSet,
    FiberError,
    FiberView,
    SignVector,
    _cocircuit_check,
    _composition_gap,
    _elimination_witness,
    check_covector_axioms,
    compose,
    composition_closure,
    fiber_of,
    format_cov,
    leq,
    loops,
    multiplicity,
    negate,
    parse_cov,
    separation,
    topal_fiber,
    topes,
    validate_fiber,
    weight_exponents,
)
from omdet.varchenko import face_multiplicities
from omdet.wiring import faces, non_pappus

from oracle import (
    bmax_table,
    boundary_multiplicity,
    chain_ranks,
    checked_covectors,
    closure,
    concurrent_lines,
    coord_lines,
    corpus_fibers,
    corpus_sets,
    first_composition_gap,
    first_elimination_failure,
    naive_axiom_check,
    one_line,
    random_central_arrangement,
    random_wiring,
    sign_text_loop,
    whole_fiber,
)

sv = SignVector.from_string


def members(strings):
    return CovectorSet.of([sv(s) for s in strings])


class TestSignVector:
    def test_round_trip(self):
        for text in ("+", "-0+", "000", "+-+-"):
            assert sv(text).to_string() == text

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sv("+x")
        with pytest.raises(ValueError):
            SignVector(2, 0b11, 0b01)  # overlapping masks
        with pytest.raises(ValueError):
            SignVector(65, 0, 0)

    def test_sign_lookup_is_one_based(self):
        u = sv("+0-")
        assert (u.sign(1), u.sign(2), u.sign(3)) == (1, 0, -1)
        with pytest.raises(ValueError):
            u.sign(0)

    def test_canonical_order(self):
        ordered = sorted([sv("+0"), sv("-+"), sv("0-"), sv("--")], key=SignVector.sort_key)
        assert [str(u) for u in ordered] == ["--", "-+", "0-", "+0"]

    @settings(derandomize=True, max_examples=200)
    @given(text=st.integers(1, 64).flatmap(lambda n: st.text("+-0", min_size=n, max_size=n)))
    def test_mask_reads_match_per_index_signs(self, text):
        # sort_key and to_string read the masks in one pass; per index they
        # must agree with sign(i)
        u = sv(text)
        assert u.sort_key() == tuple(1 + u.sign(i) for i in range(1, u.n + 1))
        assert u.to_string() == "".join("-0+"[1 + u.sign(i)] for i in range(1, u.n + 1)) == text

    @settings(derandomize=True, max_examples=400)
    @given(
        text=st.one_of(
            st.just(""),
            st.text("+-0", min_size=1, max_size=64),
            st.text("+-0", min_size=65, max_size=90),
            st.text("+-0x1_ \t", max_size=70),
            st.text(max_size=8),
        )
    )
    def test_from_string_matches_the_loop(self, text):
        # the same vector, or the same ValueError text: the first invalid character, else the size
        try:
            expected = sign_text_loop(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                SignVector.from_string(text)
            assert str(caught.value) == str(exc)
        else:
            assert SignVector.from_string(text) == expected

    @settings(derandomize=True, max_examples=200)
    @given(texts=st.integers(1, 64).flatmap(lambda n: st.lists(st.text("+-0", min_size=n, max_size=n), min_size=1)))
    def test_rank_bytes_sort_as_the_sort_key(self, texts):
        vectors = [sv(t) for t in texts]
        assert sorted(vectors, key=SignVector._ranks) == sorted(vectors, key=SignVector.sort_key)
        assert CovectorSet.of(vectors).members == tuple(sorted(set(vectors), key=SignVector.sort_key))


class TestOperations:
    def test_compose_examples(self):
        assert compose(sv("+0"), sv("0-")) == sv("+-")
        assert compose(sv("+-"), sv("+-")) == sv("+-")
        assert compose(sv("00"), sv("-+")) == sv("-+")

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            compose(sv("+"), sv("+-"))

    def test_separation_examples(self):
        assert separation(sv("+-"), sv("--")) == {1}
        u = sv("+0-")
        assert separation(u, u) == frozenset()
        assert separation(sv("+0-"), sv("-0+")) == {1, 3}

    def test_negate_examples(self):
        assert negate(sv("+0-")) == sv("-0+")
        assert negate(sv("00")) == sv("00")
        assert negate(negate(sv("++"))) == sv("++")
        assert -sv("+-") == sv("-+")

    def test_leq_examples(self):
        assert leq(sv("0+"), sv("++"))
        assert not leq(sv("++"), sv("0+"))
        for text in ("--", "0+", "+0", "00"):
            assert leq(sv("00"), sv(text))

    def test_compose_properties_on_corpus(self):
        rng = random.Random(7)
        s = concurrent_lines()
        zero = SignVector.zero(s.n)
        pool = list(s.members)
        for _ in range(200):
            u, v, w = (rng.choice(pool) for _ in range(3))
            assert compose(compose(u, v), w) == compose(u, compose(v, w))
            assert compose(u, u) == u
            assert compose(zero, u) == u == compose(u, zero)
            assert separation(u, v) == separation(v, u)
            assert separation(u, -u) == u.support()
            assert leq(u, v) == leq(-u, -v)


class TestAxioms:
    def test_single_line_passes(self):
        report = check_covector_axioms(members(["0", "+", "-"]))
        assert report.ok

    def test_missing_negation(self):
        report = check_covector_axioms(members(["0", "+"]))
        assert not report.negation_ok
        assert report.negation_witness == sv("+")

    def test_elimination_failure_with_witness(self):
        s = members(["00", "++", "--", "+-", "-+"])
        report = check_covector_axioms(s)
        assert report.zero_ok and report.negation_ok and report.composition_ok
        assert not report.elimination_ok
        u, v, j = report.elimination_witness
        # re-verify the witness: no member eliminates index j between u and v
        sep = separation(u, v)
        assert j in sep
        comp = compose(u, v)
        for w in s.members:
            if w.sign(j) == 0 and all(
                w.sign(i) == comp.sign(i) for i in range(1, 3) if i not in sep
            ):
                raise AssertionError(f"witness {u},{v},{j} is not a real violation: {w}")

    def test_verified_flag_set(self):
        s = members(["0", "+", "-"])
        assert not s.verified
        check_covector_axioms(s)
        assert s.verified

    def test_agrees_with_naive_oracle_on_small_sets(self):
        rng = random.Random(3)
        base = concurrent_lines()
        assert naive_axiom_check(base.members)
        for _ in range(20):
            strings = rng.sample([str(m) for m in base.members], rng.randint(2, 12))
            if "000" not in strings:
                strings.append("000")
            subset = members(strings)
            assert check_covector_axioms(subset).ok == naive_axiom_check(subset.members)

    def test_mutation_rejected_on_corpus(self):
        for name, s in corpus_sets().items():
            tope_set = set(topes(s))
            zero = SignVector.zero(s.n)
            for removed in s.members:
                if removed in tope_set or removed == zero:
                    continue
                mutated = CovectorSet.of([m for m in s.members if m != removed])
                assert not check_covector_axioms(mutated).ok, (name, str(removed))


def _small_arrangement(rng: random.Random) -> RationalArrangement:
    d, n = rng.choice((2, 3, 3)), rng.randint(2, 5)
    normals = []
    while len(normals) < n:
        normal = [rng.randint(-2, 2) for _ in range(d)]
        if any(normal):
            normals.append(normal)
    return RationalArrangement.of(normals)


def _cocircuit_vectors(rng: random.Random) -> list[SignVector]:
    arr = _small_arrangement(rng)
    return [SignVector(arr.n, plus, minus) for plus, minus in sorted(_cocircuits(arr))]


def _random_vector(rng: random.Random, n: int, within: int | None = None) -> SignVector:
    plus = minus = 0
    for i in range(n):
        if within is None or within >> i & 1:
            sign = rng.choice((-1, 0, 1) if within is None else (-1, 1))
            plus |= (sign > 0) << i
            minus |= (sign < 0) << i
    return SignVector(n, plus, minus)


def _arrangement(rng):
    return closure(_cocircuit_vectors(rng))


def _cocircuit_subset(rng):
    cocircuits = _cocircuit_vectors(rng)
    return closure(rng.sample(cocircuits, rng.randint(1, len(cocircuits))))


def _one_sign_flipped(rng):
    cocircuits = _cocircuit_vectors(rng)
    x = rng.choice(cocircuits)
    bit = 1 << (rng.choice(sorted(x.support())) - 1)
    kept = [c for c in cocircuits if c not in (x, -x)]
    return closure(kept + [SignVector(x.n, x.plus ^ bit, x.minus ^ bit)])


def _random_vectors(rng):
    n = rng.randint(1, 4)
    return closure(_random_vector(rng, n) for _ in range(rng.randint(1, 4)))


def _three_patterns(rng):
    # x and y share the minimal support but y is neither x nor -x; the
    # other generators' supports contain it
    n = rng.randint(2, 4)
    support = 0
    while support.bit_count() < 2:
        support = rng.getrandbits(n)
    x = _random_vector(rng, n, support)
    flip = 1 << rng.choice([i for i in range(n) if support >> i & 1])
    y = SignVector(n, x.plus ^ flip, x.minus ^ flip)
    wider = [_random_vector(rng, n, support | rng.getrandbits(n)) for _ in range(rng.randint(0, 2))]
    return closure([x, y, *wider])


def _with_loops(rng):
    base = rng.choice(FAMILIES[:-1])[1](rng)
    width = base.n + rng.randint(1, 2)
    kept = sorted(rng.sample(range(width), base.n))

    def widen(m):
        text = ["0"] * width
        for pos, ch in zip(kept, str(m)):
            text[pos] = ch
        return sv("".join(text))

    return CovectorSet.of(map(widen, base.members), n=width)


FAMILIES = [
    ("arrangement", _arrangement),
    ("cocircuit subset", _cocircuit_subset),
    ("one sign flipped", _one_sign_flipped),
    ("random vectors", _random_vectors),
    ("three sign patterns", _three_patterns),
    ("loops", _with_loops),
]


def _cocircuit_verdict(s: CovectorSet) -> bool:
    """The cocircuit check's verdict on s, after comparing it with the pairwise scans."""
    fast = _cocircuit_check(s)
    witness = first_elimination_failure(s.members)
    assert _elimination_witness(s) == witness
    assert fast == (witness is None)
    report = check_covector_axioms(s)
    assert report.zero_ok and report.negation_ok and report.composition_ok
    assert report.elimination_witness == witness
    if len(s) <= 40:
        assert naive_axiom_check(s.members) == fast
    return fast


class TestCocircuitCheck:
    """The cocircuit check against the pairwise scans on sets that hold 0
    and are closed under negation and composition."""

    @pytest.mark.parametrize("family", [name for name, _ in FAMILIES])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_agrees_with_pairwise_scans(self, family, seed):
        _cocircuit_verdict(dict(FAMILIES)[family](random.Random(seed)))

    def test_families_reach_both_verdicts(self):
        verdicts = {
            name: {_cocircuit_verdict(build(random.Random(seed))) for seed in range(25)}
            for name, build in FAMILIES
        }
        assert verdicts == {
            "arrangement": {True},
            "cocircuit subset": {True, False},
            "one sign flipped": {True, False},
            "random vectors": {True, False},
            "three sign patterns": {False},
            "loops": {True, False},
        }

    def test_closure_stops_outside_the_set(self):
        # the unit vectors' closure is all 3^n sign vectors; the check must
        # stop at the first composition that is not a member
        n = 9
        units = [SignVector(n, 1 << i, 0) for i in range(n)] + [SignVector(n, 0, 1 << i) for i in range(n)]
        codes = {u.plus | u.minus << n for u in units}
        assert composition_closure(n, codes, codes | {0}) is None
        assert len(composition_closure(n, codes)) == 3**n
        report = check_covector_axioms(CovectorSet.of(units + [SignVector.zero(n)]))
        assert report.composition_witness == (units[n], units[n + 1])

    def test_pairwise_scan_never_runs_on_passing_sets(self, monkeypatch):
        def scan(s):
            raise AssertionError("the pairwise scan ran on a passing set")

        monkeypatch.setattr(omdet.signvec, "_elimination_witness", scan)
        for name, s in corpus_sets().items():
            assert check_covector_axioms(CovectorSet.of(s.members, n=s.n)).ok, name
        rng = random.Random(24)
        normals = [[rng.randint(-9, 9) or 1 for _ in range(3)] for _ in range(24)]
        assert checked_covectors(RationalArrangement.of(normals)).verified


class TestStructure:
    def test_loops(self):
        assert loops(members(["0", "+", "-"])) == frozenset()
        assert loops(members(["00", "+0", "-0"])) == {2}
        assert loops(coord_lines()) == frozenset()

    def test_rank_examples(self):
        # the oracle's longest-chain ranks, which its witt_check relies on
        assert max(chain_ranks(one_line().members).values()) == 1
        assert max(chain_ranks(coord_lines().members).values()) == 2
        assert max(chain_ranks(concurrent_lines().members).values()) == 2

    def test_poset_rank_examples(self):
        s = coord_lines()
        ranks = chain_ranks(s.members)
        assert ranks[SignVector.zero(2)] == 0
        assert ranks[sv("0+")] == 1
        for t in topes(s):
            assert ranks[t] == 2

    def test_topes_examples(self):
        assert [str(t) for t in topes(one_line())] == ["-", "+"]
        assert len(topes(coord_lines())) == 4


class TestFibers:
    def test_whole_set_fiber(self):
        s = coord_lines()
        f = topal_fiber(s, [1, 2], s.members[0])
        assert set(f.members) == set(s.members)

    def test_empty_free_set_pins_everything(self):
        s = coord_lines()
        t = topes(s)[0]
        f = topal_fiber(s, [], t)
        assert f.members == (t,)

    def test_restriction_example(self):
        s = coord_lines()
        f = topal_fiber(s, [1], sv("++"))
        assert {str(m) for m in f.members} == {"++", "0+", "-+"}

    def test_anchor_must_be_member_and_nonzero_outside(self):
        s = coord_lines()
        with pytest.raises(ValueError):
            topal_fiber(s, [1], sv("+-") if sv("+-") not in s else sv("+0"))
        with pytest.raises(ValueError):
            topal_fiber(s, [1], sv("+0"))  # zero at the fixed index 2

    def test_validate_fiber_reports_every_problem(self):
        # a FiberView built directly, so that topal_fiber's own checks do not stop it first
        raw = CovectorSet.of([sv("++"), sv("+-"), sv("-+")])
        assert validate_fiber(FiberView(raw, frozenset({2}), sv("0+"), raw.members)) == (
            "anchor is not a fiber member",
            "anchor is zero at fixed indices [1]",
            "member -+ disagrees with the anchor on a fixed index",
        )

    def test_boundary_max_examples(self):
        # the oracle's boundary maxima, which the multiplicity tests count
        f1 = whole_fiber(one_line())
        assert bmax_table(f1, 1)[sv("+")] == sv("0")
        f2 = whole_fiber(coord_lines())
        assert bmax_table(f2, 1)[sv("++")] == sv("0+")
        f3 = whole_fiber(concurrent_lines())
        # topes not adjacent to line 1 only reach it at the center
        zero = SignVector.zero(3)
        vals = list(bmax_table(f3, 1).values())
        assert vals.count(zero) == 2

    def test_boundary_max_unique_or_error(self):
        # a composition-closed member set always has unique boundary maxima
        # (candidates below a tope agree in sign, so their composite tops
        # them all), so reaching the defensive error needs a raw FiberView
        # built around the validation
        raw = CovectorSet.of([sv("+++"), sv("0+0"), sv("00+")])
        bad = FiberView(raw, frozenset({1, 2, 3}), raw.members[0], raw.members)
        with pytest.raises(FiberError) as exc:
            multiplicity(bad, sv("0+0"))
        assert str(exc.value) == (
            "boundary of tope +++ at index 1 has no unique maximum "
            "(0+0 and 00+ are incomparable); not a valid fiber"
        )

    def test_multiplicity_examples(self):
        assert multiplicity(whole_fiber(one_line()), sv("0")) == 1
        assert multiplicity(whole_fiber(coord_lines()), sv("00")) == 0
        assert multiplicity(whole_fiber(concurrent_lines()), SignVector.zero(3)) == 1

    def test_multiplicity_rejects_topes(self):
        with pytest.raises(ValueError):
            multiplicity(whole_fiber(one_line()), sv("+"))

    def test_multiplicity_odd_count_is_an_error(self):
        bad = fiber_of([sv("0"), sv("+")])
        with pytest.raises(FiberError):
            multiplicity(bad, sv("0"))

    def test_counting_identity_on_corpus(self):
        # for each free index i: sum of 2*beta over faces vanishing at i
        # equals the number of topes whose i-boundary is nonempty
        for name, f in corpus_fibers().items():
            for i in sorted(f.free):
                table = bmax_table(f, i)
                lhs = sum(
                    2 * multiplicity(f, u)
                    for u in f.members
                    if not u.is_tope and u.sign(i) == 0
                )
                rhs = sum(1 for w in table.values() if w is not None)
                assert lhs == rhs, (name, i)

    def test_weight_exponents(self):
        assert weight_exponents(sv("0+")) == (0, 1)
        assert weight_exponents(sv("+0-0")) == (2, 3, 6, 7)
        assert weight_exponents(sv("00")) == (0, 1, 2, 3)
        with pytest.raises(ValueError):
            weight_exponents(sv("++"))


class TestCovFormat:
    def test_round_trip_set(self):
        s = concurrent_lines()
        text = format_cov(s)
        again = parse_cov(text)
        assert isinstance(again, CovectorSet)
        assert again.members == s.members
        assert format_cov(again) == text

    def test_round_trip_fiber(self):
        f = corpus_fibers()["parallel_affine"]
        text = format_cov(f)
        again = parse_cov(text)
        assert again.members == f.members
        assert again.free == f.free
        assert again.anchor == f.anchor
        assert format_cov(again) == text

    @settings(derandomize=True)
    @given(data=st.data())
    def test_round_trip_set_hypothesis(self, data):
        n = data.draw(st.integers(1, 6))
        rows = data.draw(st.lists(st.text("+-0", min_size=n, max_size=n), max_size=20))
        s = CovectorSet.of([sv(r) for r in rows], n=n)
        assert parse_cov(format_cov(s)) == s

    @settings(derandomize=True)
    @given(data=st.data())
    def test_round_trip_fiber_hypothesis(self, data):
        # members agree with fixed nonzero signs outside I and are closed under
        # composition, so the parsed file passes fiber validation
        n = data.draw(st.integers(1, 4))
        free = data.draw(st.frozensets(st.integers(1, n)))
        fixed = {i: data.draw(st.sampled_from("+-")) for i in range(1, n + 1) if i not in free}
        free_signs = st.text("+-0", min_size=len(free), max_size=len(free))
        free_rows = data.draw(st.lists(free_signs, min_size=1, max_size=4))
        members = set()
        for row in free_rows:
            signs = iter(row)
            members.add(sv("".join(next(signs) if i in free else fixed[i] for i in range(1, n + 1))))
        anchor = min(members, key=SignVector.sort_key)
        while True:
            closed = members | {compose(u, v) for u in members for v in members}
            if closed == members:
                break
            members = closed
        f = fiber_of(members, free, anchor)
        assert parse_cov(format_cov(f)) == f

    def test_comments_and_blanks_ignored(self):
        text = "# heading\nn=2\n\n++  # a tope\n00\n"
        s = parse_cov(text)
        assert {str(m) for m in s.members} == {"++", "00"}

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            parse_cov("n=1\n+\n+\n")

    def test_header_pairing_enforced(self):
        with pytest.raises(ValueError):
            parse_cov("n=2\nI=1\n++\n")

    def test_oversized_ground_set_rejected(self):
        with pytest.raises(ValueError):
            parse_cov("n=65\n")

    def test_fiber_validation_on_parse(self):
        f = parse_cov("n=2\nI=1,2\nu=++\n++\n0+\n-+\n00\n+0\n0-\n+-\n--\n-0\n")
        assert validate_fiber(f) == ()


def _closure_inputs():
    """Corpus sets and fibers plus seeded wiring fibers, as FiberViews."""
    views = {name: whole_fiber(s) for name, s in corpus_sets().items()}
    views.update({f"fiber:{name}": f for name, f in corpus_fibers().items()})
    rng = random.Random(4)
    for k in range(20):
        views[f"wiring:{k}"] = faces(random_wiring(rng, max_wires=5))
    return views


CLOSURE_INPUTS = _closure_inputs()


class TestClosureOracle:
    """Both closure scans report the oracle's first missing composition."""

    @staticmethod
    def assert_matches_oracle(f: FiberView):
        gap = first_composition_gap(f.members)
        closure = [p for p in validate_fiber(f) if p.startswith("not closed")]
        witness = check_covector_axioms(CovectorSet.of(f.members, n=f.n)).composition_witness
        if gap is None:
            assert closure == [] and witness is None
        else:
            u, v, w = gap
            assert closure == [f"not closed under composition: {u} o {v} = {w} missing"]
            assert witness == (u, v)

    @pytest.mark.parametrize("name", sorted(CLOSURE_INPUTS))
    def test_unmutated_inputs_are_closed(self, name):
        f = CLOSURE_INPUTS[name]
        assert first_composition_gap(f.members) is None
        self.assert_matches_oracle(f)

    @staticmethod
    def mutants(f: FiberView):
        """f with one non-tope member removed, for each non-tope in turn."""
        for drop in f.members:
            if not drop.is_tope:
                kept = tuple(m for m in f.members if m != drop)
                yield FiberView(CovectorSet.of(kept, n=f.n), f.free, f.anchor, kept)

    @pytest.mark.parametrize("name", sorted(CLOSURE_INPUTS))
    def test_one_face_removed(self, name):
        for mutant in self.mutants(CLOSURE_INPUTS[name]):
            self.assert_matches_oracle(mutant)

    def test_mutants_open_gaps(self):
        # rank-2 inputs stay closed when a face goes; the wiring fibers must not
        gaps = sum(
            first_composition_gap(m.members) is not None
            for name, f in CLOSURE_INPUTS.items()
            if name.startswith("wiring:")
            for m in self.mutants(f)
        )
        assert gaps >= 20

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_sets(self, data):
        # raw draws are rarely closed; their closures are, and a closure with
        # one member dropped usually fails late in member order
        n = data.draw(st.integers(1, 5))
        vector = st.text(alphabet="+-0", min_size=n, max_size=n).map(sv)
        drawn = data.draw(st.lists(vector, min_size=1, max_size=12, unique=True))
        kind = data.draw(st.sampled_from(["raw", "closed", "closed, one dropped"]))
        if kind != "raw":
            closed = set(drawn)
            while True:
                grown = closed | {compose(u, v) for u in closed for v in closed}
                if grown == closed:
                    break
                closed = grown
            drawn = data.draw(st.permutations(sorted(closed, key=SignVector.sort_key)))
            if kind == "closed, one dropped" and len(drawn) > 1:
                del drawn[data.draw(st.integers(0, len(drawn) - 1))]
        gap = first_composition_gap(drawn)
        assert _composition_gap(drawn) == gap
        if kind == "closed":
            assert gap is None
        s = CovectorSet.of(drawn, n=n)
        canonical = first_composition_gap(s.members)
        assert check_covector_axioms(s).composition_witness == (None if canonical is None else canonical[:2])


def _bmax_inputs():
    """Corpus fibers, non-Pappus, and seeded wiring and arrangement fibers."""
    views = dict(corpus_fibers(), non_pappus=faces(non_pappus()))
    rng = random.Random(12)
    for k in range(8):
        views[f"wiring:{k}"] = faces(random_wiring(rng, max_wires=6))
    for k in range(8):
        views[f"arrangement:{k}"] = whole_fiber(checked_covectors(random_central_arrangement(rng)))
    return views


BMAX_INPUTS = _bmax_inputs()


def _outcome(fn, *args):
    """fn(*args), or the text of the FiberError it raises."""
    try:
        return fn(*args)
    except FiberError as exc:
        return f"FiberError: {exc}"


def _fresh(f: FiberView) -> FiberView:
    """The same fiber with an empty cache."""
    return FiberView(f.base, f.free, f.anchor, f.members)


class TestBoundaryMaxOracle:
    """The one-sweep boundary maxima against the per-index pairwise scan."""

    @staticmethod
    def assert_matches_oracle(f: FiberView) -> list:
        """Compares tables and multiplicities; returns the oracle's outcomes."""
        tables = {i: _outcome(bmax_table, f, i) for i in f.free}

        def table(f, i):
            if isinstance(tables[i], str):
                raise FiberError(tables[i].removeprefix("FiberError: "))
            return tables[i]

        fast = _fresh(f)
        faces_ = [u for u in f.members if not u.is_tope]
        expected = [_outcome(boundary_multiplicity, f, u, table) for u in faces_]
        assert [_outcome(multiplicity, fast, u) for u in faces_] == expected
        # the face loop in member order raises the first failure, from a cold cache too
        first = next((e for e in expected if isinstance(e, str)), expected)
        assert _outcome(lambda g: [multiplicity(g, u) for u in faces_], _fresh(f)) == first
        return expected

    @pytest.mark.parametrize("name", sorted(BMAX_INPUTS))
    def test_valid_fibers(self, name):
        f = BMAX_INPUTS[name]
        expected = self.assert_matches_oracle(f)
        assert [beta for _, _, beta in face_multiplicities(_fresh(f))] == expected

    def test_one_member_removed(self):
        errors = []
        for f in BMAX_INPUTS.values():
            for drop in f.members:
                kept = tuple(m for m in f.members if m != drop)
                mutant = FiberView(CovectorSet.of(kept, n=f.n), f.free, f.anchor, kept)
                errors += [e for e in self.assert_matches_oracle(mutant) if isinstance(e, str)]
        for kind in ("no unique maximum", "odd boundary count", "depends on the index choice"):
            assert any(kind in e for e in errors), kind
