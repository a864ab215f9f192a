"""olaurent benchmark: one workload, one seed, one closed-loop client.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload {build,gram,contour,finite} \
        --seed N --seconds S --trace {0,1}

One process runs one client in a closed loop: each job starts after the
previous one finished and was verified, as a CLI user waits for each
report.  Jobs come in whole decks (see bench_jobs), dealt from ``--seed``.
The number of decks is fixed by the workload and ``--seconds`` (about
``--seconds`` of work on a 2-core x86 host, and at least 100 completed
jobs), never by the clock, so a seed always runs the same jobs and the
``attempted`` and ``failed`` counts repeat exactly.

Shared hosts run a process at a speed that drifts by up to 1.7x over
seconds to minutes.  A calibration loop that uses no olaurent code runs
before every job, and the times in ``ok_jobs_per_s``, ``job_ms_p50`` and
``job_ms_p90`` are scaled to the loop's reference time, so they compare
across such phases.  ``setup_s`` is scaled the same way by a bare
interpreter start that imports numpy and mpmath.  The unscaled figures are
printed in the ``jobs`` line.  ``ok_ratio`` is 1 - failed_ratio, the
share of attempted jobs that completed and verified.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
number of decks, each job untraced and then traced, and prints the
per-layer metrics plus the tracing overhead; the spans go to
``perfbench/out/``.  Every result is printed next to the machine facts and
stored in ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import bench_env

bench_env.prepare()

import numpy as np  # noqa: E402

import bench_jobs  # noqa: E402
from bench_trace import Tracer  # noqa: E402

WORKLOADS = tuple(bench_jobs.WHY)
MIN_OK_JOBS = 100       # so p90 has at least ten samples beyond it
MAX_DECK_FACTOR = 2     # deal at most this many times the planned decks for MIN_OK_JOBS
SETUP_REPS = 7
CAL_REF_MS = 4.0        # calibrate() on a 2-core x86 host in its fast phase
CAL_WINDOW = 3          # calibrations on each side of a job in its speed estimate
BASE_START_REF_S = 0.2  # bare numpy + mpmath start on the same host
TRACE_SHARE = 0.4       # share of --seconds the untraced runs of a traced run take
# one deck's untraced time on a 2-core x86 host (median over 20 seeds);
# sizes the job list of both kinds of run
DECK_S = {"build": 0.21, "gram": 4.5, "contour": 1.55, "finite": 1.0}

END_TO_END = [
    ("ok_jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("ok_ratio", "ratio"),
    ("accuracy_digits", "digits"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_COUNT, _MS = "count", "ms"
PER_LAYER = [
    ("series.LaurentPoly.mul.calls", _COUNT),
    ("series.LaurentPoly.mul.term_pairs", _COUNT),
    ("series.LaurentPoly.mul.self_ms", _MS),
    ("series.LaurentPoly.add.calls", _COUNT),
    ("functional.gram_matrix.self_ms", _MS),
    ("functional.apply_L.calls", _COUNT),
    ("functional.apply_L.self_ms", _MS),
    ("systems.check_normalization.total_ms", _MS),
    ("systems.build_by_recurrence.self_ms", _MS),
    ("cli.main.self_ms", _MS),
    ("cli.report_bytes", "bytes"),
    ("functional.contour_L.calls", _COUNT),
    ("functional.contour_L.self_ms", _MS),
    ("functional.contour_L.f_reuse_ratio", "ratio"),
    ("kernels.eval_poly_extended.calls", _COUNT),
    ("kernels.eval_poly_extended.point_steps", _COUNT),
    ("kernels.eval_poly_extended.self_ms", _MS),
    ("genfun.rn_by_contour.total_ms", _MS),
    ("genfun.rn_by_contour.lhs_reuse_ratio", "ratio"),
    ("genfun.check_laurent_genfun.total_ms", _MS),
    ("finite.AtomicMeasure.moment.total_ms", _MS),
    ("finite.represent_functional.total_ms", _MS),
    ("finite.mp_terms", _COUNT),
    ("finite.table_reuse_ratio", "ratio"),
    ("finite.build_atomic_measure.total_ms", _MS),
    ("finite.mp_dps", _COUNT),
    ("finite.radius_doublings", _COUNT),
    ("finite.build_Q.errors", _COUNT),
    ("finite.solve_moments.errors", _COUNT),
    ("families.realize.total_ms", _MS),
    ("functional.exact_moments.total_ms", _MS),
    ("kernels.reciprocal_coeffs.total_ms", _MS),
] + [(f"{layer}.{what}", unit) for layer in ("cli", "families", "finite", "functional",
                                            "genfun", "kernels", "series", "systems")
     for what, unit in (("calls", _COUNT), ("self_ms", _MS), ("errors", _COUNT))] + [
    ("trace.jobs", _COUNT),
    ("trace.spans", _COUNT),
    ("trace.untraced_wall_ms", _MS),
    ("trace.traced_wall_ms", _MS),
    ("trace.overhead_ms", _MS),
    ("trace.self_sum_ms", _MS),
]


def time_fresh_interpreter(args: list[str]) -> float:
    """Seconds for ``python3 <args>`` in a fresh interpreter, which must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=bench_env.ROOT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{args} failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


def setup_seconds(workload: str, reps: int) -> tuple[float, list[float]]:
    """Median cold-start time scaled to the reference start-up speed.

    A cold start imports olaurent.cli and runs one job of each kind (cold.py).
    Each is paired with a bare start that imports only numpy and mpmath; the
    ratio of the two follows the program while the host's start-up speed
    drifts, which an in-process calibration loop does not track.
    """
    ratios, raw = [], []
    for _ in range(reps):
        base = time_fresh_interpreter(["-c", "import numpy, mpmath"])
        cold = time_fresh_interpreter([str(bench_env.HERE / "cold.py"), workload])
        ratios.append(cold / base)
        raw.append(cold)
    return statistics.median(ratios) * BASE_START_REF_S, raw


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy_digits(outcomes) -> float:
    """-log10 of the worst verified error; floored at the smallest normal double."""
    worst = max((o.error for o in outcomes if o.error is not None), default=0.0)
    return -math.log10(max(worst, sys.float_info.min))


def repeat_share(outcomes) -> float:
    seen, repeats = set(), 0
    for o in outcomes:
        key = bench_jobs.config_key(o.job)
        repeats += key in seen
        seen.add(key)
    return repeats / len(outcomes)


def job_summary(outcomes) -> dict:
    status = Counter(o.status for o in outcomes)
    failures = Counter(f"{o.job['kind']} {o.status}: {o.detail}"
                       for o in outcomes if o.status != "ok")
    return {"attempted": len(outcomes), "by_status": dict(status),
            "repeat_share": repeat_share(outcomes),
            "failures": dict(failures.most_common(8))}


def calibrate() -> float:
    """Milliseconds for a fixed loop that uses no olaurent code.

    It mixes the interpreter work (dict updates on complex values) and the
    long-double array work the workloads do, so its time tracks the speed
    the host gives this process at the moment.
    """
    t0 = time.perf_counter()
    acc: dict[int, complex] = {}
    for i in range(15000):
        acc[i % 101] = acc.get(i % 101, 0j) + 1.5j * i
    vals = np.ones_like(_CAL_NODES)
    for _ in range(40):
        vals = vals * _CAL_NODES + 1
    return (time.perf_counter() - t0) * 1e3


_CAL_NODES = np.exp(2j * np.pi * np.arange(512) / 512).astype(np.clongdouble)


def speed_scale(cal_ms: list[float]) -> np.ndarray:
    """Per job, CAL_REF_MS over the median calibration time around it."""
    cal = np.asarray(cal_ms)
    local = [np.median(cal[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]) for i in range(len(cal))]
    return CAL_REF_MS / np.asarray(local)


def planned_decks(workload: str, seconds: float, min_ok: int) -> int:
    """Decks for about ``seconds`` of work, and enough jobs for ``min_ok``."""
    deck_len = len(next(bench_jobs.decks(workload, 0)))
    return max(1, round(seconds / DECK_S[workload]), math.ceil(min_ok / deck_len))


def measure(workload: str, seed: int, seconds: float, min_ok: int = MIN_OK_JOBS,
            setup_reps: int = SETUP_REPS) -> dict:
    """End-to-end run: set-up timing, warm-up, then a fixed number of decks.

    The planned decks run in full; more follow only while fewer than
    ``min_ok`` jobs completed, up to MAX_DECK_FACTOR times the plan.  Both
    depend on the seed and the outcomes alone, not on the host's speed.

    Each job is preceded by a calibration loop, and job times are scaled to
    the reference speed (CAL_REF_MS) by the calibrations around them, so
    phases in which a shared host runs this process slower do not show as
    changes of the program; the unscaled figures are printed alongside.
    """
    setup_s, setup_raw = setup_seconds(workload, setup_reps)
    for job in bench_jobs.cold_jobs(workload):
        bench_jobs.execute(job)
    plan = planned_decks(workload, seconds, min_ok)
    outcomes, busy_s, cal_ms, n_decks = [], [], [], 0
    t0 = time.perf_counter()
    for deck in bench_jobs.decks(workload, seed):
        for job in deck:
            cal_ms.append(calibrate())
            t = time.perf_counter()
            outcomes.append(bench_jobs.execute(job))
            busy_s.append(time.perf_counter() - t)
        n_decks += 1
        ok = sum(o.status == "ok" for o in outcomes)
        if (n_decks >= plan and ok >= min_ok) or n_decks >= MAX_DECK_FACTOR * plan:
            break
    wall = time.perf_counter() - t0
    scale = speed_scale(cal_ms)
    ok_idx = [i for i, o in enumerate(outcomes) if o.status == "ok"]
    ok_ms = [float(outcomes[i].ms * scale[i]) for i in ok_idx]
    raw_ms = [outcomes[i].ms for i in ok_idx]
    p50, p90 = _p50_p90(ok_ms)
    metrics = {
        "ok_jobs_per_s": len(ok_idx) / float(np.dot(busy_s, scale)),
        "job_ms_p50": p50,
        "job_ms_p90": p90,
        "ok_ratio": len(ok_idx) / len(outcomes),
        "accuracy_digits": accuracy_digits(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = job_summary(outcomes)
    info.update(decks=n_decks, wall_s=wall, latency_samples=len(ok_ms),
                beyond_p90=sum(ms > p90 for ms in ok_ms), setup_samples_s=setup_raw,
                calibration_ms_median=float(np.median(cal_ms)),
                unscaled={"ok_jobs_per_s": len(ok_idx) / sum(busy_s),
                          "job_ms_p50_p90": _p50_p90(raw_ms),
                          "setup_s": statistics.median(setup_raw)})
    return {"outcomes": outcomes, "metrics": metrics, "info": info,
            "units": dict(END_TO_END)}


def _p50_p90(ms: list[float]) -> tuple[float, float]:
    if not ms:
        return 0.0, 0.0
    p50, p90 = np.percentile(ms, [50, 90])
    return float(p50), float(p90)


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer run: a fixed job list, each job run untraced and then traced.

    Running the two back to back per job, rather than as two passes, keeps
    drifts of the host's speed out of the tracing overhead.
    """
    n_decks = max(1, int(seconds * TRACE_SHARE / DECK_S[workload]))
    gen = bench_jobs.decks(workload, seed)
    jobs = [job for _ in range(n_decks) for job in next(gen)]
    for job in bench_jobs.cold_jobs(workload):
        bench_jobs.execute(job)
    tracer = Tracer()
    untraced, outcomes = [], []
    untraced_ms = traced_ms = 0.0
    for i, job in enumerate(jobs):
        t0 = time.perf_counter()
        untraced.append(bench_jobs.execute(job))
        untraced_ms += (time.perf_counter() - t0) * 1e3
        tracer.job = i
        with tracer.installed():
            t0 = time.perf_counter()
            outcomes.append(bench_jobs.execute(job))
            traced_ms += (time.perf_counter() - t0) * 1e3
    stats = tracer.metrics()
    stats.update({
        "cli.report_bytes": sum(o.report_bytes for o in outcomes),
        "trace.jobs": len(jobs),
        "trace.untraced_wall_ms": untraced_ms,
        "trace.traced_wall_ms": traced_ms,
        "trace.overhead_ms": traced_ms - untraced_ms,
    })
    metrics = {name: stats.get(name, 0) for name, _ in PER_LAYER}
    info = job_summary(outcomes)
    info.update(decks=n_decks, untraced_wrong=sum(o.status == "wrong" for o in untraced))
    return {"outcomes": outcomes + untraced, "traced": outcomes, "metrics": metrics,
            "info": info, "units": dict(PER_LAYER), "tracer": tracer}


def result_line(res: dict) -> dict:
    counted = res.get("traced", res["outcomes"])
    return {
        "correct": not any(o.status == "wrong" for o in res["outcomes"]),
        "attempted": len(counted),
        "failed": sum(o.status != "ok" for o in counted),
        "metrics": {name: {"value": value, "unit": res["units"][name]}
                    for name, value in res["metrics"].items()},
    }


def report(workload: str, seed: int, traced: bool, res: dict, facts: dict) -> dict:
    """Print the result next to the machine facts, store it, return the last line."""
    line = result_line(res)
    info = res["info"]
    print(f"workload {workload} (seed {seed}, {'traced' if traced else 'untraced'}): "
          f"{bench_jobs.WHY[workload]}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"jobs {json.dumps(info, sort_keys=True)}")
    print(f"failed_ratio {line['failed'] / line['attempted']:.6g} "
          f"({line['failed']} of {line['attempted']}), correct {line['correct']}")
    if not traced:
        print(f"latency samples {info['latency_samples']}, "
              f"{info['beyond_p90']} beyond p90")
    for name, m in line["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    bench_env.OUT.mkdir(parents=True, exist_ok=True)
    with open(bench_env.OUT / f"{workload}-seed{seed}-trace{int(traced)}.json", "w") as fh:
        json.dump({"machine": facts, "workload": workload, "seed": seed, "info": info,
                   **line}, fh, indent=1, sort_keys=True)
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    facts = bench_env.machine_facts()
    if args.trace:
        res = trace(args.workload, args.seed, args.seconds)
        res["tracer"].write(bench_env.OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        res = measure(args.workload, args.seed, args.seconds)
    line = report(args.workload, args.seed, bool(args.trace), res, facts)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
