"""Verdict benchmark for omdet.

A verdict takes one input description (arrangement normals or wiring
events) to a checked result: generate the covectors, validate, face
multiplicities, matrix, determinant, closed form, compare, then check the
outcome against counts the benchmark derives on its own.  Run from the
repository root:

  python3 bench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

With --trace 0 the run is a closed loop of plain verdicts, one at a time in
this process, for at least --seconds and at least MIN_VERDICTS verdicts;
it prints the end-to-end metrics.  After each verdict the loop times the
fixed reference workload of reference.py, and every time it reports is
rescaled by REFERENCE_MS / (median probe time around it), so that the
figures read the same whether the host is in its fast or its slow state.
Set-up is timed once from process start and then again, off the verdict
clock, at even steps through the loop, so that setup_s samples the host
over the same stretch as the verdicts.  With
--trace 1 it runs the first TRACE_VERDICTS inputs plainly and then once
more decomposed into spans, and prints the per-layer metrics; that length
is fixed, so counts repeat exactly for a seed.  Metric names and units come
from BENCHMARK.json.

The last line of stdout is the result object; the line before it holds the
run's context.  Both, plus the spans of a traced run, also go to
bench/results/.  The exit status is 1 when any verdict fails and 2 when
omdet cannot be imported from src/.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# verdicts.py and spans.py import omdet, so they are imported only after set-up
from inputs import CYCLES, build_jobs  # noqa: E402
from reference import REFERENCE_MS, probe_ms  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11  # one before the timed loop, the rest spread through it
MIN_VERDICTS = 100  # so that at least 10 samples lie beyond the 90th percentile
MAX_EXTRA_S = 10  # a run short of MIN_VERDICTS at --seconds goes on at most this long
PROBE_WINDOW = 2  # a verdict is rescaled by the median of the probes up to this many verdicts away
TRACE_VERDICTS = 60  # length of a traced run, kept short for slow hosts
SHOWN_FAILURES = 5


def import_omdet():
    """Import omdet from src/ afresh, so each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "omdet" or m.startswith("omdet.")]:
        del sys.modules[name]
    import omdet

    if Path(omdet.__file__).resolve().parent != (SRC / "omdet").resolve():
        raise ImportError(f"omdet was imported from {omdet.__file__}, not from {SRC}")
    return omdet


def set_up(workload: str, seed: int, workdir: Path):
    """Import omdet, generate the seeded inputs and write the CLI's input files."""
    import_omdet()
    jobs = build_jobs(workload, seed)
    if workload == "wiring-cli":
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        written = []
        for i, job in enumerate(jobs):
            path = workdir / f"w{i}.json"
            path.write_text(json.dumps(job.source.to_json()) + "\n", encoding="utf-8")
            written.append(dataclasses.replace(job, path=str(path)))
        jobs = written
    return jobs


def plain_loop(verdict, jobs, seconds: float, set_up_again, setup_times: list[float], setup_at: list[int]):
    """Closed loop of verdicts, each followed by a reference probe.

    set_up_again is timed into setup_times at even steps, and the index of
    the verdict it followed into setup_at.  The loop ends by wall time,
    probes and set-ups included, so a run lasts about --seconds.
    """
    from verdicts import attempt

    latencies, probes, failures = [], [], []
    start = perf_counter()
    while True:
        job = jobs[len(latencies) % len(jobs)]
        t = perf_counter()
        failure = attempt(verdict, job)
        latencies.append(perf_counter() - t)
        if failure:
            failures.append(failure)
        probes.append(probe_ms())
        elapsed = perf_counter() - start
        due = SETUP_REPEATS if elapsed >= seconds else 1 + int((SETUP_REPEATS - 1) * elapsed / seconds)
        while len(setup_times) < due:
            t = perf_counter()
            set_up_again()
            setup_times.append(perf_counter() - t)
            setup_at.append(len(latencies) - 1)
        if elapsed >= seconds and (len(latencies) >= MIN_VERDICTS or elapsed >= seconds + MAX_EXTRA_S):
            return latencies, probes, failures


def speed(probes: list[float], i: int) -> float:
    """How much faster than the reference the host ran around verdict i: REFERENCE_MS / median probe."""
    return REFERENCE_MS / statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])


def p50_p90(ms: list[float]) -> tuple[float, float]:
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]


def end_to_end(args, jobs, set_up_again, setup_times, context):
    import verdicts

    setup_at = [0]  # the set-up from process start is rescaled by the probes after the first verdicts
    latencies, probes, failures = plain_loop(
        verdicts.PLAIN[args.workload], jobs, args.seconds, set_up_again, setup_times, setup_at
    )
    ms = [x * 1000 * speed(probes, i) for i, x in enumerate(latencies)]
    p50, p90 = p50_p90(ms)
    raw_ms = [x * 1000 for x in latencies]
    raw_p50, raw_p90 = p50_p90(raw_ms)
    context.update(
        verdicts=len(ms),
        p90_tail_samples=sum(1 for x in ms if x > p90),
        probe_ms_quartiles=statistics.quantiles(probes, n=4),
        unscaled={
            "verdicts_per_s": len(raw_ms) / sum(latencies),
            "verdict_ms_p50": raw_p50,
            "verdict_ms_p90": raw_p90,
            "setup_s": statistics.median(setup_times),
        },
    )
    metrics = {
        "verdicts_per_s": len(ms) * 1000 / sum(ms),
        "verdict_ms_p50": p50,
        "verdict_ms_p90": p90,
        "ok_share": (len(ms) - len(failures)) / len(ms),
        "setup_s": statistics.median(x * speed(probes, i) for x, i in zip(setup_times, setup_at)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(ms), failures, {"latencies_ms": ms, "unscaled_latencies_ms": raw_ms, "probes_ms": probes}


def per_layer(args, jobs, context):
    import verdicts
    from spans import Spans

    chosen = jobs[:TRACE_VERDICTS]
    failures = []
    start = perf_counter()
    for job in chosen:
        failure = verdicts.attempt(verdicts.PLAIN[args.workload], job)
        if failure:
            failures.append(failure)
    untraced = perf_counter() - start

    span = Spans()
    start = perf_counter()
    for i, job in enumerate(chosen):
        span.verdict, span.raised_in = i, None
        with span("bench.verdict"):
            failure = verdicts.attempt(verdicts.TRACED[args.workload], job, span)
        if failure:
            failures.append(failure)
    traced = perf_counter() - start

    probes = [probe_ms() for _ in range(21)]  # how fast the host ran; per-layer times are not rescaled
    context.update(
        verdicts=len(chosen), untraced_wall_s=untraced, traced_wall_s=traced,
        probe_ms_quartiles=statistics.quantiles(probes, n=4),
    )
    metrics = verdicts.layer_metrics(span)
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, 2 * len(chosen), failures, {"spans": span.to_json()}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description="omdet verdict benchmark")
    p.add_argument("--workload", required=True, choices=sorted(CYCLES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        jobs = set_up(args.workload, args.seed, workdir / "jobs")
    except ImportError as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"error: cannot import omdet from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_times = [perf_counter() - PROCESS_START]

    def set_up_again():
        set_up(args.workload, args.seed, workdir / "again")

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_omdet_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "omdet").glob("*.py"))),
        "setup_runs_s": setup_times,
    }
    try:
        if args.trace:
            metrics, attempted, failures, detail = per_layer(args, jobs, context)
        else:
            metrics, attempted, failures, detail = end_to_end(args, jobs, set_up_again, setup_times, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    for layer, message in failures[:SHOWN_FAILURES]:
        print(f"verdict failed in {layer}: {message}", file=sys.stderr)

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"context": context, "result": result, "failures": failures[:SHOWN_FAILURES], **detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
