"""One cold start: import olaurent.cli and run one job of each kind.

Usage: python3 perfbench/cold.py <workload>

run.py times this script in a fresh interpreter for the ``setup_s`` metric.
Exits 1 if a job fails.
"""

import sys

import bench_env

bench_env.prepare()

import bench_jobs  # noqa: E402  (imports olaurent.cli after the path is set)

if __name__ == "__main__":
    outcomes = [bench_jobs.execute(job) for job in bench_jobs.cold_jobs(sys.argv[1])]
    bad = [o for o in outcomes if o.status != "ok"]
    for o in bad:
        print(f"cold job {o.job['kind']} {o.status}: {o.detail}", file=sys.stderr)
    sys.exit(1 if bad else 0)
