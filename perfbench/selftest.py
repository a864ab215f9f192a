"""Self-test of the benchmark itself.

Usage: python3 perfbench/selftest.py     (about a minute; exit 1 on any failed check)

Checks that

* BENCHMARK.json names the workloads and metrics run.py produces;
* a short run of each workload prints every end-to-end metric, and a
  short traced run every per-layer metric, by name and unit;
* traced self times add up to no more than the traced wall time, and
  every span lies inside its parent;
* the exact counts of a traced run, and the attempted and failed counts
  of an untraced run, repeat exactly for the same seed;
* a deliberately corrupted report (a NaN, a wrong Gram diagonal, a cut-off
  report) is counted as failed and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import bench_env

bench_env.prepare()

import bench_jobs  # noqa: E402
import run  # noqa: E402

SEED = 7
SHORT_S = 1.0
EXACT_UNITS = ("count", "ratio", "bytes")
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        FAILURES.append(what)


def check_benchmark_json() -> None:
    with open(bench_env.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(bench_jobs.WHY),
          "BENCHMARK.json workloads match bench_jobs.WHY")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.END_TO_END")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.PER_LAYER")


def printed(workload: str, traced: bool, res: dict) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        line = run.report(workload, SEED, traced, res, {"selftest": True})
    return buf.getvalue(), line


def check_prints_all(workload: str, traced: bool, res: dict) -> None:
    text, line = printed(workload, traced, res)
    names = run.PER_LAYER if traced else run.END_TO_END
    lines = text.splitlines()
    missing = [n for n, unit in names
               if not any(ln.split()[:1] == [n] and ln.split()[-1] == unit for ln in lines)]
    numbers = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                  for m in line["metrics"].values())
    check(not missing and numbers and list(line["metrics"]) == [n for n, _ in names]
          and line["attempted"] >= 1,
          f"{workload} {'traced' if traced else 'untraced'} run prints every metric"
          + (f" (missing {missing})" if missing else ""))


def check_spans(workload: str, res: dict) -> None:
    m = res["metrics"]
    check(m["trace.self_sum_ms"] <= m["trace.traced_wall_ms"],
          f"{workload} traced self times {m['trace.self_sum_ms']:.1f} ms <= "
          f"traced wall {m['trace.traced_wall_ms']:.1f} ms")
    spans = res["tracer"].spans
    nested = all(p < 0 or (spans[p][1] <= s[1] and s[2] <= spans[p][2] and spans[p][4] == s[4])
                 for s in spans for p in (s[3],))
    check(nested and len(spans) > 0, f"{workload} spans ({len(spans)}) nest inside their parents")


def exact_counts(res: dict) -> dict:
    units = dict(run.PER_LAYER)
    return {k: v for k, v in res["metrics"].items() if units[k] in EXACT_UNITS}


@contextlib.contextmanager
def corrupting(edit):
    """Make olaurent.cli.main emit ``edit(report text)`` instead of its report."""
    real = bench_jobs.cli.main

    def corrupt_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = real(argv)
        sys.stdout.write(edit(out.getvalue()))
        return code

    bench_jobs.cli.main = corrupt_main
    try:
        yield
    finally:
        bench_jobs.cli.main = real


def _edit_json(change):
    def edit(text):
        report = json.loads(text)
        change(report)
        return json.dumps(report, sort_keys=True, indent=2)
    return edit


def _nan_offdiag(report):
    report["gram"][0][1][0] = float("nan")


def _wrong_diag(report):
    report["gram"][2][2][0] *= 1.0 + 1e-6


def _inf_residual(report):
    report["moment_residual_max"] = float("inf")


def check_corruption_caught() -> None:
    gram = {"kind": "gram", "family": bench_jobs.FAMILIES["exp-binomial"], "K": 20}
    finite = {"kind": "finite", "family": bench_jobs.ACCEPTANCE_EB, "ncap": 3}
    check(all(bench_jobs.execute(j).status == "ok" for j in (gram, finite)),
          "uncorrupted control jobs verify")
    cases = [("NaN off-diagonal", gram, _edit_json(_nan_offdiag)),
             ("Gram diagonal off by 1e-6", gram, _edit_json(_wrong_diag)),
             ("Infinity residual", finite, _edit_json(_inf_residual)),
             ("cut-off report", finite, lambda text: text[: len(text) // 2])]
    for what, job, edit in cases:
        with corrupting(edit):
            outcomes = [bench_jobs.execute(job)]
        line = run.result_line({"outcomes": outcomes, "metrics": {}, "units": {}})
        check(line["failed"] == line["attempted"] == 1 and not line["correct"],
              f"corrupted report ({what}) counts as failed: {outcomes[0].detail}")


def main() -> int:
    check_benchmark_json()
    check_corruption_caught()
    for workload in bench_jobs.WHY:
        res = run.measure(workload, SEED, SHORT_S, min_ok=1, setup_reps=1)
        check_prints_all(workload, False, res)
        counts = [(line["attempted"], line["failed"]) for line in
                  (run.result_line(r) for r in
                   (res, run.measure(workload, SEED, SHORT_S, min_ok=1, setup_reps=1)))]
        check(counts[0] == counts[1], f"{workload} attempted and failed repeat for the "
              f"same seed {counts}")
        first = run.trace(workload, SEED, SHORT_S)
        check_prints_all(workload, True, first)
        check_spans(workload, first)
        again = run.trace(workload, SEED, SHORT_S)
        diff = {k: (v, exact_counts(again)[k]) for k, v in exact_counts(first).items()
                if exact_counts(again)[k] != v}
        check(not diff, f"{workload} exact counts repeat for the same seed"
              + (f" (differ: {diff})" if diff else ""))
    print(f"selftest: {len(FAILURES)} failed check(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
