"""Run every workload once and print each metric by name and unit.

Usage: python3 perfbench/all.py [--seed N] [--seconds S] [--trace]

Without ``--trace`` it prints the end-to-end metrics of each workload;
with it, the per-layer metrics of a traced run.  Each workload runs in its
own process through run.py, so peak memory is per workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bench_env

bench_env.prepare()

from bench_jobs import WHY  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    status = 0
    for workload in WHY:
        proc = subprocess.run(
            [sys.executable, str(bench_env.HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            capture_output=True, text=True, cwd=bench_env.ROOT)
        if proc.returncode != 0:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr.strip()}")
            status = 1
            continue
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct {line['correct']}, "
              f"{line['failed']} of {line['attempted']} jobs failed")
        for name, m in line["metrics"].items():
            print(f"  {workload:8s} {name:42s} {m['value']:.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
