import contextlib
import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import omdet.cli
import omdet.varchenko
import omdet.wiring
from omdet.cli import main
from omdet.polyring import ExponentOverflowError, FactoredPoly
from omdet.realizable import RationalArrangement
from omdet.signvec import _json_text, format_cov, parse_cov
from omdet.wiring import faces, non_pappus

from oracle import concurrent_lines, coord_lines, corpus_fibers, corpus_sets, random_wiring


_json_chars = st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ud800\U0001d11e\u00e9'), st.characters())
_json_scalars = st.one_of(
    st.text(_json_chars, max_size=8),
    st.integers(),
    st.sampled_from([2**64, -(2**64) - 1, 10**40, 0, -1]),
    st.booleans(),
    st.none(),
)
_json_docs = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(_json_chars, max_size=6), inner, max_size=4),
    ),
    max_leaves=40,
)


class TestJsonText:
    """The one-pass JSON writer against json.dumps with an indent of 2."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(doc=_json_docs)
    def test_against_json_dumps(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [{}, [], (), "", {"a": {}}, {"a": [[], {}]}, [None, True, False, 0, -0]])
    def test_empty_and_scalar_edges(self, doc):
        assert _json_text(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize("doc", [1.5, {1: "a"}, {"a": {None: 1}}, [set()]])
    def test_other_values_raise(self, doc):
        with pytest.raises(TypeError):
            _json_text(doc)


@pytest.fixture()
def three_lines_json(tmp_path):
    path = tmp_path / "three.json"
    arr = RationalArrangement.of([[1, 0], [0, 1], [1, -1]])
    path.write_text(arr.dumps())
    return str(path)


@pytest.fixture()
def one_line_cov(tmp_path):
    path = tmp_path / "one.cov"
    path.write_text("n=1\n-\n0\n+\n")
    return str(path)


@pytest.fixture()
def nonpappus_cov(tmp_path):
    path = tmp_path / "np.cov"
    path.write_text(format_cov(faces(non_pappus())))
    return str(path)


GUARD_LINE = (
    "error: symbolic determinant of 33 topes exceeds the guard of 16; "
    "use randomized mode or force it (--force-symbolic on the command line)\n"
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_pass(self, capsys, one_line_cov):
        code, out, _ = run(capsys, "check", one_line_cov)
        assert code == 0
        assert out.startswith("axioms: PASS")

    def test_fail_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.cov"
        path.write_text("n=1\n0\n+\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert "axioms: FAIL" in out and "negation" in out

    def test_fiber_file(self, capsys, nonpappus_cov):
        code, out, _ = run(capsys, "check", nonpappus_cov)
        assert code == 0
        assert out.startswith("fiber: PASS")

    def test_json_format(self, capsys, one_line_cov):
        code, out, _ = run(capsys, "check", one_line_cov, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True

    def test_unreadable_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "missing.cov"))
        assert code == 2
        assert "error:" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "bad.cov"
        path.write_text("n=2\n+\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2


class TestPipelines:
    def test_from_arrangement_then_det(self, capsys, tmp_path, three_lines_json):
        out_path = str(tmp_path / "three.cov")
        code, _, _ = run(capsys, "from-arrangement", three_lines_json, "-o", out_path)
        assert code == 0
        # round trip: the written file passes check
        code, out, _ = run(capsys, "check", out_path)
        assert code == 0 and "PASS" in out
        code, out, _ = run(capsys, "det", out_path)
        assert code == 0
        from omdet.varchenko import determinant
        from omdet.signvec import topal_fiber
        from omdet.polyring import poly_str

        s = concurrent_lines()
        f = topal_fiber(s, range(1, 4), s.members[0])
        assert out.strip() == poly_str(determinant(f))

    def test_from_wiring_round_trip(self, capsys, tmp_path):
        wd_path = tmp_path / "np.json"
        wd_path.write_text(non_pappus().dumps())
        out_path = str(tmp_path / "np.cov")
        code, _, _ = run(capsys, "from-wiring", str(wd_path), "-o", out_path)
        assert code == 0
        reparsed = parse_cov(open(out_path).read())
        assert format_cov(reparsed) == open(out_path).read()
        code, out, _ = run(capsys, "check", out_path)
        assert code == 0

    def test_from_wiring_validates_once(self, capsys, monkeypatch, tmp_path):
        # the CLI's own check, then the sweep that faces() runs after its check
        calls = []
        real = omdet.wiring.validate
        spy = lambda wd: calls.append(wd) or real(wd)  # noqa: E731
        monkeypatch.setattr(omdet.wiring, "validate", spy)
        monkeypatch.setattr(omdet.cli, "wiring_validate", spy)
        wd_path = tmp_path / "np.json"
        wd_path.write_text(non_pappus().dumps())
        code, out, err = run(capsys, "from-wiring", str(wd_path))
        assert (code, err) == (0, "") and len(calls) == 1
        assert out == format_cov(faces(non_pappus())) and len(calls) == 2

    def test_topes(self, capsys, one_line_cov):
        code, out, _ = run(capsys, "topes", one_line_cov)
        assert code == 0
        assert out.splitlines() == ["-", "+"]

    def test_faces_census(self, capsys, nonpappus_cov):
        code, out, _ = run(capsys, "faces", nonpappus_cov)
        assert code == 0
        assert "topes: 33" in out
        assert "weight a^2, beta 1: 47 faces" in out

    def test_formula_specialized(self, capsys, nonpappus_cov):
        code, out, _ = run(capsys, "formula", nonpappus_cov, "--specialize", "all=a")
        assert code == 0
        assert out.strip() == "(1 - a^2)^47 * (1 - a^6)^8"


class TestVerifyCommand:
    def test_symbolic_one_line(self, capsys, one_line_cov):
        code, out, _ = run(capsys, "verify", one_line_cov, "--mode", "symbolic")
        assert code == 0
        assert "agreement: true" in out

    def test_randomized_nonpappus(self, capsys, nonpappus_cov):
        code, out, _ = run(
            capsys, "verify", nonpappus_cov, "--specialize", "all=a", "--mode", "randomized"
        )
        assert code == 0
        assert "formula: (1 - a^2)^47 * (1 - a^6)^8" in out
        assert "agreement: true" in out

    def test_json_report(self, capsys, one_line_cov):
        code, out, _ = run(capsys, "verify", one_line_cov, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["agreement"] is True
        assert doc["mode"] == "symbolic"

    def test_guard_requires_flag(self, capsys, nonpappus_cov):
        code, out, err = run(capsys, "verify", nonpappus_cov, "--mode", "symbolic")
        assert code == 2
        assert out == ""
        assert err == GUARD_LINE

    def test_auto_past_guard_is_randomized(self, capsys, nonpappus_cov):
        code, out, err = run(capsys, "verify", nonpappus_cov, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["mode"] == "randomized"

    def test_seeded_determinism(self, capsys, nonpappus_cov):
        args = ("verify", nonpappus_cov, "--specialize", "all=a", "--format", "json", "--seed", "5")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert (code_a, out_a) == (code_b, out_b)

    def test_worker_invariance(self, capsys, nonpappus_cov):
        base = ("verify", nonpappus_cov, "--specialize", "all=a", "--format", "json")
        _, out_1, _ = run(capsys, *base, "--workers", "1")
        _, out_4, _ = run(capsys, *base, "--workers", "4")
        assert out_1 == out_4


class TestFlags:
    def test_fiber_flags_on_plain_file(self, capsys, tmp_path):
        path = tmp_path / "coord.cov"
        path.write_text(format_cov(coord_lines()))
        code, out, _ = run(
            capsys, "topes", str(path), "--fiber", "1", "--anchor", "++"
        )
        assert code == 0
        assert out.splitlines() == ["-+", "++"]

    def test_conflicting_fiber_flags(self, capsys, nonpappus_cov):
        code, _, err = run(
            capsys, "topes", nonpappus_cov, "--fiber", "1,2", "--anchor", "+" * 9
        )
        assert code == 2
        assert "conflict" in err

    def test_fiber_flag_needs_anchor(self, capsys, tmp_path):
        path = tmp_path / "coord.cov"
        path.write_text(format_cov(coord_lines()))
        code, _, err = run(capsys, "topes", str(path), "--fiber", "1")
        assert code == 2

    def test_loops_rejected_for_det(self, capsys, tmp_path):
        path = tmp_path / "loop.cov"
        path.write_text("n=2\n00\n+0\n-0\n")
        # the wording of the library's error, raised for the set before its fiber is built
        assert run(capsys, "det", str(path)) == (2, "", "error: the covector set has loops at indices [2]\n")

    def test_bad_specialization(self, capsys, one_line_cov):
        code, _, err = run(capsys, "det", one_line_cov, "--specialize", "a9p=1")
        assert code == 2

    def test_oversized_ground_set(self, capsys, tmp_path):
        path = tmp_path / "big.cov"
        path.write_text("n=65\n" + "+" * 65 + "\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2

    def test_affine_arrangement_writes_fiber(self, capsys, tmp_path):
        arr_path = tmp_path / "parallel.json"
        arr_path.write_text(
            RationalArrangement.of([[1], [1]], [0, 1], affine=True).dumps()
        )
        out_path = str(tmp_path / "parallel.cov")
        code, _, _ = run(capsys, "from-arrangement", str(arr_path), "-o", out_path)
        assert code == 0
        text = open(out_path).read()
        assert "I=1,2" in text and text.startswith("n=3")
        code, out, _ = run(capsys, "formula", out_path)
        assert code == 0
        assert out.strip() == "(1 - a1p*a1m) * (1 - a2p*a2m)"


class TestLimits:
    def test_det_past_guard(self, capsys, nonpappus_cov):
        code, out, err = run(capsys, "det", nonpappus_cov)
        assert code == 2
        assert out == ""
        assert err == GUARD_LINE

    def test_out_of_memory_exits_two(self, capsys, monkeypatch, nonpappus_cov):
        def exhausted(*args, **kwargs):
            raise MemoryError

        # verify eliminates through _bareiss, det through determinant
        monkeypatch.setattr(omdet.varchenko, "_bareiss", exhausted)
        monkeypatch.setattr(omdet.cli, "determinant", exhausted)
        for argv in (["verify", "--mode", "symbolic"], ["det"]):
            code, out, err = run(capsys, *argv, nonpappus_cov, "--force-symbolic")
            assert code == 2, argv
            assert out == "", argv
            assert err.startswith("error: out of memory") and len(err.splitlines()) == 1, argv
            assert "--mode randomized" in err, argv

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_evals(self, capsys, nonpappus_cov, count):
        code, out, err = run(
            capsys, "verify", nonpappus_cov, "--mode", "randomized", "--evals", count
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "spec", ['{"a1p": [1]}', '{"a1p": 1.5}', '{"a1p": true}', '{"a1p": null}', '{"a1p": "x"}', "a1p=1.5"]
    )
    def test_specialize_rejects_non_integers(self, capsys, one_line_cov, spec):
        code, out, err = run(capsys, "det", one_line_cov, "--specialize", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("spec", ["a1p=1,a1p=a", "a1p=2,a1p=3", '{"a1p": "a", "a1p": 1}', "a1p=1,a01p=2"])
    def test_specialize_rejects_duplicates(self, capsys, one_line_cov, spec):
        code, out, err = run(capsys, "det", one_line_cov, "--specialize", spec)
        assert code == 2
        assert out == ""
        assert err == "error: variable a1p is specialized more than once\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("a0p=1", "hyperplane index must be >= 1, got 0"),
            ("x1p=2", "unknown variable 'x1p' (expected a<i>p or a<i>m)"),
            ("a1q=3", "unknown variable 'a1q' (expected a<i>p or a<i>m)"),
        ],
        ids=["a0p=1", "x1p=2", "a1q=3"],
    )
    def test_specialize_rejects_bad_labels(self, capsys, one_line_cov, spec, message):
        code, out, err = run(capsys, "det", one_line_cov, "--specialize", spec)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ('{"a1p": 2}', "1 - 2*a1m"),
            ('{"a1p": "-2"}', "1 + 2*a1m"),
            ('{"a1p": "a", "a1m": 3}', "1 - 3*a"),
        ],
    )
    def test_specialize_accepts_integers(self, capsys, one_line_cov, spec, expected):
        code, out, _ = run(capsys, "det", one_line_cov, "--specialize", spec)
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "doc",
        [
            "[1]",
            '{"hyperplanes": 5}',
            '{"dim": 2, "hyperplanes": [{"normal": [[1], 2]}]}',
            '{"dim": 2, "hyperplanes": [{"normal": [1, 2], "offset": null}]}',
            '{"dim": 2, "hyperplanes": [{"normal": ["1/0", 2]}]}',
            '{"dim": 2, "hyperplanes": [{"normal": [1e400, 2]}]}',
            '{"dim": 2.7, "hyperplanes": [{"normal": [1, 2]}]}',
            '{"dim": 3, "hyperplanes": [{"normal": [1, 0, 0.1]}, {"normal": [0, 1, 0.2]}, {"normal": [1, 1, 0.3]}]}',
            '{"dim": 2, "hyperplanes": [{"normal": [true, 2]}]}',
            json.dumps({"dim": 1, "hyperplanes": [{"normal": [k]} for k in range(1, 66)]}),
        ],
    )
    def test_from_arrangement_malformed_shape(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run(capsys, "from-arrangement", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            '{"wires": 3, "events": [1]}',
            "[3]",
            '{"wires": 3, "events": [[null, 1]]}',
            '{"wires": 1e400, "events": []}',
            '{"wires": 3, "events": [[0.5, 1.9]]}',
            '{"wires": true, "events": []}',
            '{"wires": 65, "events": []}',
        ],
    )
    def test_from_wiring_malformed_shape(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run(capsys, "from-wiring", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("from-arrangement", '{"dim": 2, "hyperplanes": [{"normal": ["1/0", 2]}]}',
             'hyperplanes[0].normal[0]: zero denominator in "1/0"'),
            ("from-arrangement", "[1]", "expected a JSON object, got a list of 1"),
            ("from-wiring", "[3]", "expected a JSON object, got a list of 1"),
            ("from-wiring", '{"wires": 3, "events": [[0, 1, 2]]}', "events[0]: expected a [lo, hi] pair, got a list of 3"),
            ("from-wiring", '{"wires": 3}', "events: required field missing"),
        ],
        ids=["zero-denominator", "arrangement-list", "wiring-list", "three-element-event", "missing-events"],
    )
    def test_malformed_json_names_the_field(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: {message}\n")

    def test_from_wiring_at_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text('{"wires": 64, "events": [[0, 1]]}')
        out_path = str(tmp_path / "wide.cov")
        code, _, _ = run(capsys, "from-wiring", str(path), "-o", out_path)
        assert code == 0
        code, out, _ = run(capsys, "verify", out_path, "--mode", "randomized", "--evals", "1")
        assert code == 0
        assert "agreement: true" in out

    def test_from_arrangement_at_cap(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"dim": 1, "hyperplanes": [{"normal": [k]} for k in range(1, 65)]}))
        code, out, _ = run(capsys, "from-arrangement", str(path))
        assert code == 0
        assert out.splitlines() == ["n=64", "-" * 64, "0" * 64, "+" * 64]

    def test_exponent_overflow_exits_two(self, capsys, monkeypatch, one_line_cov):
        # no input reaches the exponent lane cap in test time, so the
        # determinant is replaced by one that overflows
        def overflow(*args, **kwargs):
            raise ExponentOverflowError("exponent overflow during division")

        monkeypatch.setattr(omdet.cli, "determinant", overflow)
        code, out, err = run(capsys, "det", one_line_cov)
        assert code == 2
        assert out == ""
        assert err == "error: exponent overflow during division\n"

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_fiber_file_missing_composition(self, capsys, tmp_path, command):
        path = tmp_path / "np.cov"
        path.write_text(format_cov(faces(non_pappus())).replace("\n---0---+-\n", "\n"))
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {path}: not closed under composition: "
            "---0--0+0 o 0--0---0- = ---0---+- missing\n"
        )

    @pytest.mark.parametrize(
        "args, message",
        [
            (["from-wiring", "{cross}"], "wires 1 and 2 cross 2 times"),
            (["from-arrangement", "{empty}"], "cannot enumerate covectors of an empty arrangement"),
            (["from-wiring", "{ok}", "-o", "{missing}/x.cov"], "cannot write {missing}/x.cov: No such file or directory"),
            (["det", "{one}", "--specialize", '{{"a1p": 0'],
             "bad JSON specialization map: Expecting ',' delimiter: line 1 column 10 (char 9)"),
            (["det", "{one}", "--specialize", "a1p"], "bad specialization entry 'a1p' (expected var=value)"),
            (["det", "{one}", "--specialize", "a1p=a"],
             "a specialization using the collapsed symbol 'a' must cover every variable"),
            (["topes", "{anchor}"], "{anchor}: anchor is not a fiber member"),
            (["topes", "{elim}", "--fiber", "1", "--anchor", "0-"], "fiber anchor is not a member of the covector set"),
        ],
        ids=["crossing-twice", "empty-arrangement", "unwritable", "bad-json-map", "bad-entry", "partial-collapse",
             "anchor-not-member", "flag-anchor-not-member"],
    )
    def test_input_errors_exit_two(self, capsys, tmp_path, args, message):
        inputs = {
            "cross": ("cross.json", '{"wires": 3, "events": [[0,1],[0,1]]}'),
            "empty": ("empty.json", '{"dim": 2, "hyperplanes": []}'),
            "ok": ("ok.json", non_pappus().dumps()),
            "one": ("one.cov", "n=1\n-\n0\n+\n"),
            "anchor": ("anchor.cov", "n=2\nI=1,2\nu=++\n00\n+0\n"),
            "elim": ("elim.cov", "n=2\n+-\n-+\n"),
        }
        paths = {"missing": tmp_path / "no-such-dir"}
        for key, (name, text) in inputs.items():
            paths[key] = tmp_path / name
            paths[key].write_text(text)
        argv = [arg.format(**paths) for arg in args]
        assert run(capsys, *argv) == (2, "", f"error: {message.format(**paths)}\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "fmt, spec, name",
    [
        ("text", None, "verify_three_lines_plain.txt"),
        ("json", None, "verify_three_lines_plain.json"),
        ("text", "all=a", "verify_three_lines_all_a.txt"),
        ("json", "all=a", "verify_three_lines_all_a.json"),
        # n = 9: one residue chunk holds all nine free indices of the 33 topes; the map pins a zero and a negative image
        ("text", None, "verify_non_pappus_plain.txt"),
        ("json", None, "verify_non_pappus_plain.json"),
        ("text", "a1p=0,a2m=-3", "verify_non_pappus_a1p_0_a2m_neg3.txt"),
        ("json", "a1p=0,a2m=-3", "verify_non_pappus_a1p_0_a2m_neg3.json"),
    ],
)
def test_randomized_verify_golden(capsys, tmp_path, fmt, spec, name):
    _check_verify_golden(capsys, tmp_path, ["--mode", "randomized", "--seed", "0", "--evals", "2"], fmt, spec, name)


@pytest.mark.parametrize(
    "fmt, name", [("text", "verify_three_lines_symbolic_all_a.txt"), ("json", "verify_three_lines_symbolic_all_a.json")]
)
def test_symbolic_verify_golden(capsys, tmp_path, fmt, name):
    _check_verify_golden(capsys, tmp_path, ["--mode", "symbolic"], fmt, "all=a", name)


@pytest.mark.parametrize(
    "fmt, spec, name",
    [
        # the factored elimination mirrors the upper triangle through the side swap
        ("text", None, "verify_three_lines_symbolic_plain.txt"),
        ("json", None, "verify_three_lines_symbolic_plain.json"),
        # a zero pivot restarts it on the full loop; the determinant is 0
        ("text", "a1p=1,a1m=1", "verify_three_lines_symbolic_a1p_1_a1m_1.txt"),
        ("json", "a1p=1,a1m=1", "verify_three_lines_symbolic_a1p_1_a1m_1.json"),
        # no mirror: the full loop
        ("text", "a1p=0,a2m=-3", "verify_three_lines_symbolic_a1p_0_a2m_neg3.txt"),
        ("json", "a1p=0,a2m=-3", "verify_three_lines_symbolic_a1p_0_a2m_neg3.json"),
        # the swap mirror with candidates whose c is not 1 (1 - 4*a3p*a3m)
        ("text", "a1p=2,a1m=2,a2p=-1,a2m=-1", "verify_three_lines_symbolic_a1p_2_a1m_2_a2p_neg1_a2m_neg1.txt"),
        ("json", "a1p=2,a1m=2,a2p=-1,a2m=-1", "verify_three_lines_symbolic_a1p_2_a1m_2_a2p_neg1_a2m_neg1.json"),
    ],
)
def test_symbolic_verify_mirror_golden(capsys, tmp_path, fmt, spec, name):
    _check_verify_golden(capsys, tmp_path, ["--mode", "symbolic"], fmt, spec, name)


@pytest.mark.parametrize(
    "args, name",
    [
        # 56 topes under a map whose weights carry coefficients and signs, printed from the zero masks
        (
            ["verify", "--mode", "randomized", "--seed", "3", "--format", "json", "--specialize", "a1p=2,a2m=-3"],
            "verify_full_reversal_10_seed3_a1p_2_a2m_neg3.json",
        ),
        (["faces", "--format", "json"], "faces_full_reversal_10.json"),
    ],
)
def test_full_reversal_10_golden(capsys, tmp_path, args, name):
    wires = 10
    source, cov = tmp_path / "fr10.json", str(tmp_path / "fr10.cov")
    events = [[k, k + 1] for i in range(wires) for k in range(wires - 1 - i)]
    source.write_text(json.dumps({"wires": wires, "events": events}))
    assert run(capsys, "from-wiring", str(source), "-o", cov)[0] == 0
    assert run(capsys, args[0], cov, *args[1:]) == (0, (GOLDEN / name).read_text(), "")


def test_det_non_pappus_all_a_golden(capsys, nonpappus_cov):
    # 33 topes under all=a: a symmetric matrix, mirrored by the identity
    code, out, _ = run(capsys, "det", nonpappus_cov, "--specialize", "all=a", "--force-symbolic")
    assert code == 0
    assert out == (GOLDEN / "det_non_pappus_all_a.txt").read_text()


def _check_verify_golden(capsys, tmp_path, mode_args, fmt, spec, name):
    path = tmp_path / "input.cov"
    path.write_text(format_cov(faces(non_pappus()) if "non_pappus" in name else concurrent_lines()))
    args = ["verify", str(path), *mode_args, "--format", fmt]
    if spec is not None:
        args += ["--specialize", spec]
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("fmt, name", [("text", "check_closure_gap.txt"), ("json", "check_closure_gap.json")])
def test_fiber_closure_gap_golden(capsys, fmt, name):
    args = ["check", str(GOLDEN / "closure_gap_set.cov"), "--fiber", "1,2,3", "--anchor", "++++"]
    code, out, _ = run(capsys, *args, "--format", fmt)
    assert code == 1
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("fmt", ["txt", "json"])
@pytest.mark.parametrize(
    "command, source, code",
    [
        ("faces", "non_pappus", 0),
        ("check", "non_pappus", 0),
        # -0 o 0- = -- is missing
        ("check", "composition_gap", 1),
        # no zero vector, and nothing eliminates index 1 between -+ and +-
        ("check", "elimination_gap", 1),
    ],
)
def test_report_golden(capsys, nonpappus_cov, command, source, code, fmt):
    path = nonpappus_cov if source == "non_pappus" else str(GOLDEN / f"{source}_set.cov")
    result = run(capsys, command, path, "--format", "text" if fmt == "txt" else "json")
    assert result == (code, (GOLDEN / f"{command}_{source}.{fmt}").read_text(), "")


@pytest.mark.parametrize(
    "command",
    [["topes"], ["faces", "--format", "json"], ["det"], ["formula"], ["verify", "--format", "json"]],
    ids=["topes", "faces", "det", "formula", "verify"],
)
@pytest.mark.parametrize(
    "args, name",
    [
        (["composition_gap_set.cov"], "check_composition_gap"),
        (["closure_gap_set.cov", "--fiber", "1,2,3", "--anchor", "++++"], "check_closure_gap"),
    ],
    ids=["axioms", "fiber"],
)
def test_failing_input_prints_the_check_report(capsys, command, args, name):
    # check's report in the command's --format, and exit 1
    path, *flags = args
    result = run(capsys, command[0], str(GOLDEN / path), *flags, *command[1:])
    suffix = ".json" if "json" in command else ".txt"
    assert result == (1, (GOLDEN / f"{name}{suffix}").read_text(), "")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_disagreement_exits_one_with_the_report(capsys, monkeypatch, one_line_cov, fmt):
    # no input disagrees, so the verdict is replaced by a disagreeing one
    real = omdet.cli.verify
    monkeypatch.setattr(omdet.cli, "verify", lambda *a, **kw: dataclasses.replace(real(*a, **kw), agreement=False))
    code, out, err = run(capsys, "verify", one_line_cov, "--mode", "randomized", "--format", fmt)
    assert (code, err) == (1, "")
    if fmt == "text":
        assert out.splitlines()[-1] == "agreement: false"
    else:
        assert json.loads(out)["agreement"] is False


@pytest.mark.parametrize("spec", [None, "all=a"])
def test_symbolic_disagreement_exits_one(capsys, monkeypatch, three_lines_json, tmp_path, spec):
    # the formula that verify builds, with one exponent raised, no longer matches the determinant
    real = omdet.varchenko.product_formula

    def raised(*args):
        formula = real(*args)
        (base, e), *rest = formula.factors
        return FactoredPoly(formula.nvars, [(base, e + 1), *rest])

    cov = str(tmp_path / "three.cov")
    assert run(capsys, "from-arrangement", three_lines_json, "-o", cov)[0] == 0
    monkeypatch.setattr(omdet.varchenko, "product_formula", raised)
    args = ["verify", cov, "--mode", "symbolic"] + ([] if spec is None else ["--specialize", spec])
    code, out, err = run(capsys, *args)
    assert (code, err) == (1, "")
    assert out.splitlines()[-1] == "agreement: false"


@pytest.mark.parametrize("flag", ["--anchor", "--anch"])
@pytest.mark.parametrize("command", ["check", "topes"])
def test_anchor_with_leading_minus(capsys, command, flag):
    path = str(GOLDEN / "closure_gap_set.cov")
    joined = run(capsys, command, path, "--fiber", "1,2", f"{flag}=----")
    spaced = run(capsys, command, path, "--fiber", "1,2", flag, "----")
    assert joined[0] == 0
    assert spaced == joined


def _fresh_process(args):
    env = dict(os.environ, PYTHONPATH=str(Path(omdet.cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "omdet.cli", *args], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("case", ["flushed-at-the-end", "written-while-printing", "help", "det-help"])
def test_closed_stdout_exits_two(tmp_path, nonpappus_cov, case):
    # 256 bytes stay in the buffer until main flushes; the 18-wire reversal's 12,404 bytes overflow it;
    # --help's text is still in the buffer when argparse exits
    if case == "written-while-printing":
        w = 18
        wiring = tmp_path / "fr18.json"
        wiring.write_text(json.dumps({"wires": w, "events": [[k, k + 1] for i in range(w) for k in range(w - 1 - i)]}))
        args = ["from-wiring", str(wiring)]
    elif case == "flushed-at-the-end":
        args = ["faces", nonpappus_cov, "--format", "json"]
    else:
        args = ["--help"] if case == "help" else ["det", "--help"]
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    env = dict(os.environ, PYTHONPATH=str(Path(omdet.cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as on a plain pipe
    try:
        proc = subprocess.run([sys.executable, "-m", "omdet.cli", *args], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == b"error: standard output was closed before the output was written\n"


def test_help_and_usage_errors_keep_their_text(one_line_cov):
    # --help to an open stdout: its text and exit 0; a usage error: argparse's text and exit 2
    code, out, err = _fresh_process(["det", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: omdet det [-h]") and "--force-symbolic" in out
    code, out, err = _fresh_process(["verify", one_line_cov, "--mode", "quantum"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: omdet verify") and "argument --mode: invalid choice: 'quantum'" in err


def test_repeated_main_calls_match_fresh_processes(capsys, nonpappus_cov):
    omdet.cli._build_parser.cache_clear()
    calls = [
        ["verify", nonpappus_cov, "--mode", "randomized", "--evals", "2", "--format", "json"],
        ["verify", nonpappus_cov, "--mode", "quantum"],
        ["formula", nonpappus_cov, "--specialize", "all=a"],
    ]
    for args in calls:
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _fresh_process(args), args
    assert omdet.cli._build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("n=2\nI=1,2\nu=00\n00\n", "the fiber has no topes; the distance matrix is empty"),
        ("n=2\nI=1,2\nu=0+\n0+\n+0\n", "{path}: not closed under composition: 0+ o +0 = ++ missing"),
    ],
    ids=["no-topes", "not-closed"],
)
def test_randomized_verify_of_a_bad_fiber(capsys, monkeypatch, tmp_path, text, message):
    path = tmp_path / "bad.cov"
    path.write_text(text)
    monkeypatch.setattr(omdet.varchenko, "_multiplicity", None)
    assert run(capsys, "verify", str(path), "--mode", "randomized") == (2, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("command", ["faces", "formula", "det", "verify"])
def test_fiber_without_topes_exits_two(capsys, tmp_path, command):
    path = tmp_path / "no-topes.cov"
    path.write_text("n=2\nI=1,2\nu=00\n00\n")
    message = "error: the fiber has no topes; the distance matrix is empty\n"
    assert run(capsys, command, str(path)) == (2, "", message)


PUBLIC_NAMES = """
AxiomReport CovectorSet ExactDivisionError ExponentOverflowError FaceCensus FactoredPoly
FiberError FiberView IntPolynomial RationalArrangement SignVector SizeGuardError
Specialization VarchenkoMatrix VerificationReport WiringDiagram arrangement_fiber
build_matrix check_covector_axioms compose determinant enumerate_covectors
face_census face_multiplicities faces factored_str fiber_of format_cov homogenize leq
loops multiplicity negate non_pappus parse_cov poly_str polyring product_formula
realizable separation sign_feasible signvec topal_fiber topes validate validate_fiber
var_index var_label varchenko verify weight_exponents weight_monomial wiring
""".split()


def test_public_namespace_is_pinned():
    # a fresh interpreter, so that submodules other tests import (omdet.cli) do not show
    env = dict(os.environ, PYTHONPATH=str(Path(omdet.cli.__file__).parents[1]))
    code = 'import omdet; print(*sorted(n for n in vars(omdet) if not n.startswith("_")))'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 53


# Mutated inputs: every command, run in process, ends with a verdict or one plain error line.

GOLDEN = Path(__file__).parent / "golden"
_FLIP = str.maketrans("+-", "-+")
_ODD_LINES = ["n=64", "n=0", "n=-1", "n=x", "I=1,99", "I=", "u=+-", "u=", "++++++++", "+-x", "#", "", "000", "{"]
_ODD_VALUES = ["x", 1.5, True, None, [], {}, 10**30, -(10**30), -5, 0, "1/0", "9" * 40]
# every value parses as its option's type, so argparse never answers with its usage text
_ODD_SPECIALIZE = [
    "a1p=0", "all=a", "a1p=a", "a1p=1,a1m=1", "a1p=2,a1m=2", "a9p=1", "a1p=", "=", "a1p=1/0", "a1p=" + "9" * 30,
    '{"a1p": 1.5}', "{", '{"a1p": 2, "a1p": 3}', "a1p=1,,a2m=-3", "x=1", "a0p=1", " ",
]
_ODD_FIBER = [
    ("1", "+"), ("1,2", "----"), ("0", "+-"), ("99", "++"), ("1,1", "+0"), ("a", "+"), ("", ""), ("1,2,3", "+-0"),
]
_ODD_EVALS = ["1", "2", "0", "-1", "-" + "9" * 20]
_ODD_SEEDS = ["0", "-1", "7", str(2**80)]


@cache
def _mutation_sources():
    """(.cov texts, wiring documents, arrangement documents), all small."""
    covs = [format_cov(s) for s in corpus_sets().values()] + [format_cov(f) for f in corpus_fibers().values()]
    covs += [p.read_text() for p in sorted(GOLDEN.glob("*.cov"))] + [format_cov(faces(non_pappus()))]
    wirings = [non_pappus().to_json()] + [random_wiring(random.Random(k), 5).to_json() for k in range(4)]
    arrangements = [
        RationalArrangement.of([[1, 0], [0, 1], [1, -1]]).to_json(),
        RationalArrangement.of([[1, 0], [0, 1], [1, 1]], [0, 1, 2], affine=True).to_json(),
        RationalArrangement.of([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]).to_json(),
    ]
    return covs, wirings, arrangements


def _mutated_lines(lines: list, data) -> list:
    """lines with one line deleted, duplicated, sign-flipped or replaced, or all of them reversed."""
    op = data.draw(st.sampled_from(["delete", "duplicate", "reverse", "flip", "replace"]))
    if not lines:
        return [data.draw(st.sampled_from(_ODD_LINES))]
    i = data.draw(st.integers(0, len(lines) - 1))
    if op == "delete":
        return lines[:i] + lines[i + 1 :]
    if op == "duplicate":
        return lines[: i + 1] + lines[i:]
    if op == "reverse":
        return lines[::-1]
    odd = lines[i].translate(_FLIP) if op == "flip" else data.draw(st.sampled_from(_ODD_LINES))
    return lines[:i] + [odd] + lines[i + 1 :]


def _spots(node):
    """(container, key) for every value inside a JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _spots(node[key])


def _mutated_json(doc, data) -> str:
    """The document's text with one value deleted or replaced by a wrong-typed, huge, negative or "1/0" one,
    or with its lines mutated."""
    doc = json.loads(json.dumps(doc))
    if data.draw(st.booleans()):
        return "\n".join(_mutated_lines(json.dumps(doc, indent=2).splitlines(), data)) + "\n"
    container, key = data.draw(st.sampled_from(list(_spots(doc))))
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(st.sampled_from(_ODD_VALUES))
    return json.dumps(doc) + "\n"


def _cov_command(data, path: str, odd: bool) -> list:
    """A command on the .cov file at path, with odd flag values when odd, else plain ones."""

    def pick(odd_values, plain_values):
        return data.draw(st.sampled_from(odd_values if odd else plain_values))

    command = data.draw(st.sampled_from(["check", "topes", "faces", "det", "formula", "verify", "verify"]))
    argv = [command, path, "--format", data.draw(st.sampled_from(["text", "json"]))]
    flags = pick(["none", "both", "fiber", "anchor"], ["none"])
    fiber, anchor = data.draw(st.sampled_from(_ODD_FIBER))
    argv += ["--fiber", fiber] if flags in ("both", "fiber") else []
    argv += ["--anchor", anchor] if flags in ("both", "anchor") else []
    if command in ("det", "formula", "verify") and data.draw(st.booleans()):
        argv += ["--specialize", pick(_ODD_SPECIALIZE, ["a1p=0", "all=a", "a1p=2,a1m=2"])]
    if command == "verify":
        argv += ["--mode", data.draw(st.sampled_from(["auto", "symbolic", "randomized"]))]
        argv += ["--evals", pick(_ODD_EVALS, ["1", "2"]), "--seed", pick(_ODD_SEEDS, ["0", "7"])]
    return argv


def _run_in_process(argv) -> tuple[int, str]:
    """(exit status, stderr) of one main call; an exception escaping main fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr, (argv, stderr)
    if code == 2:
        assert stderr.startswith("error:") and stderr.count("\n") == 1 and stderr.endswith("\n"), (argv, stderr)
    return code, out.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_end_in_a_verdict_or_one_error_line(tmp_path_factory, data):
    workdir = tmp_path_factory.getbasetemp() / "mutated"
    workdir.mkdir(exist_ok=True)
    covs, wirings, arrangements = _mutation_sources()
    kind = data.draw(st.sampled_from(["cov", "cov", "wiring", "arrangement"]))
    if kind == "cov":
        path = workdir / "input.cov"
        text = data.draw(st.sampled_from(covs))
        odd_flags = data.draw(st.booleans())  # either the file or the flags are odd, so neither hides the other
        if not odd_flags:
            for _ in range(data.draw(st.integers(1, 2))):
                text = "\n".join(_mutated_lines(text.splitlines(), data)) + "\n"
        path.write_text(text)
        _run_in_process(_cov_command(data, str(path), odd_flags))
        return
    path = workdir / "input.json"
    path.write_text(_mutated_json(data.draw(st.sampled_from(wirings if kind == "wiring" else arrangements)), data))
    code, out = _run_in_process(["from-wiring" if kind == "wiring" else "from-arrangement", str(path)])
    if code == 0:
        (workdir / "generated.cov").write_text(out)
        _run_in_process(["verify", str(workdir / "generated.cov"), "--mode", "randomized", "--evals", "1"])
