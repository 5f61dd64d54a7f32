"""Tests of the benchmark itself: python3 -m pytest bench -q (from the repository root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import omdet as od  # noqa: E402

from inputs import (  # noqa: E402
    CYCLES,
    NON_PAPPUS_MEMBERS,
    NON_PAPPUS_TOPES,
    Arrangement,
    Counts,
    Job,
    Wiring,
    arrangement_counts,
    build_jobs,
    full_reversal,
    wiring_counts,
)
from spans import Spans  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def library_counts(source) -> Counts:
    if isinstance(source, Wiring):
        f = od.faces(od.WiringDiagram.of(source.wires, source.events))
    else:
        f = od.arrangement_fiber(od.RationalArrangement.of(source.normals, source.offsets, affine=source.affine))
    return Counts(len(f.members), len(f.topes))


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_generators_are_deterministic_per_seed(workload):
    assert build_jobs(workload, 7) == build_jobs(workload, 7)
    assert build_jobs(workload, 7) != build_jobs(workload, 8)


def test_three_concurrent_lines_have_13_covectors():
    arr = Arrangement(2, ((1, 0), (0, 1), (1, -1)))
    assert arrangement_counts(arr) == Counts(13, 6) == library_counts(arr)


def test_coordinate_planes_have_27_covectors():
    arr = Arrangement(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert arrangement_counts(arr) == Counts(27, 8) == library_counts(arr)


@pytest.mark.parametrize("wires", [2, 3, 5, 7])
def test_full_reversal_topes(wires):
    w = full_reversal(wires)
    assert wiring_counts(w).topes == 1 + wires + comb(wires, 2)
    assert wiring_counts(w) == library_counts(w)


def test_non_pappus_fixture_counts():
    f = od.faces(od.non_pappus())
    assert (len(f.members), len(f.topes)) == (NON_PAPPUS_MEMBERS, NON_PAPPUS_TOPES) == (95, 33)


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_oracles_agree_with_the_library_on_generated_inputs(workload):
    for job in build_jobs(workload, 3)[1:9]:
        assert job.expected == library_counts(job.source), job


def test_wrong_count_is_a_failure_of_the_generator_layer():
    job = build_jobs("symbolic", 1)[1]
    wrong = Job(job.source, Counts(job.expected.members + 1, job.expected.topes), job.collapse, job.seed)
    layer = "realizable" if isinstance(job.source, Arrangement) else "wiring"
    assert verdicts.attempt(verdicts.symbolic, job) is None
    assert verdicts.attempt(verdicts.symbolic, wrong)[0] == layer
    span = Spans()
    assert verdicts.attempt(verdicts.traced_symbolic, wrong, span)[0] == layer


def test_exception_is_charged_to_the_innermost_span():
    def boom(job, span):
        with span("varchenko.randomized"):
            with span("polyring.eval_mod"):
                raise ZeroDivisionError("boom")

    assert verdicts.attempt(boom, None, Spans())[0] == "polyring"


def test_rescaling_cancels_a_uniformly_slower_host():
    fast_probes = [8.0, 9.0, 8.5, 10.0, 9.5, 8.0]
    latencies = [0.1, 0.3, 0.2, 0.15, 0.4, 0.25]
    fast = [x * run.speed(fast_probes, i) for i, x in enumerate(latencies)]
    slow_probes = [1.5 * p for p in fast_probes]
    slow = [1.5 * x * run.speed(slow_probes, i) for i, x in enumerate(latencies)]
    assert slow == pytest.approx(fast)


def test_reference_workload_does_not_use_the_program():
    source = (BENCH / "reference.py").read_text()
    assert "import omdet" not in source and "from omdet" not in source
    assert run.probe_ms() > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_smoke_run_emits_every_named_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_VERDICTS", 3)
    monkeypatch.setattr(run, "TRACE_VERDICTS", 3)
    monkeypatch.setattr(run, "SETUP_REPEATS", 3)
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    context = json.loads(out.splitlines()[-2])["context"]
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
        assert len(context["setup_runs_s"]) == 3


def test_fails_without_the_program():
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "symbolic", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
