"""Run the benchmark's first decks on two trees and print every job whose output differs.

Usage: python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE --seeds 101 102 103

Each tree is a checkout of this repository.  For each tree, one subprocess
imports that tree's ``src/olaurent`` and ``perfbench/bench_jobs.py``, deals
the first deck of each seed of every workload (``bench_jobs.WHY`` names
them) and runs its jobs in deck order: a CLI job through ``cli.main`` on
``bench_jobs.cli_argv`` (exit code, stdout and stderr), an ``rn`` job
through ``genfun.rn_by_contour`` as the benchmark runs it (the hex of each
R_n(x)).  Then it runs the fixed CLI commands of :func:`extra_argvs`, which
no deck runs: ``moments`` at windows 40 and 80 for each stock family,
``ortho`` at K = 160 and on a complex explicit family, ``finite
--family`` on that family, ``ortho`` and ``moments`` on a family of
subnormal coefficients and at size 0, and ``finite --spec`` on a real
and a complex spec at n_cap 4 and 8, once at ``--level 1``, and on a
spec that exits 3.  A job whose
outputs differ is printed with what differs: the
exit code, stderr, the top-level report keys, for ``genfun-check`` the
fields of the rows, and for ``rn`` the indices n.

Exits 0 when every job is identical, 1 when some job differs.
"""

import argparse
import json
import pathlib
import subprocess
import sys


def extra_argvs(families: dict) -> list[list[str]]:
    """The CLI commands that no deck runs; `families` maps each stock family to its JSON."""
    stock = [json.dumps(family) for family in families.values()]
    # d_0 = 1 and complex d_k, each nonzero as a system needs
    complex_family = {"kind": "explicit", "radius": 2.0,
                      "coeffs": [1, [0.5, -0.25], [0.125, 0.375], [-0.3, 0.1], [0.0625, -0.2],
                                 [0.05, 0.07], [-0.03125, 0.015625], [0.01, -0.02],
                                 [0.004, 0.003]]}
    # finite --spec: generic real and complex doubles, padded to 4 n_cap
    real = {"g": [0.3, 1.7, 0.9, 1.1], "f_rec": [-0.6, -0.2, -1.3, -0.7]}
    gaussian = {"g": [[0.3, 0.4], [1.7, -0.5], [0.9, 0.1], [1.1, 1]],
                "f_rec": [[-0.6, 0.5], [-0.2, -1], [-1.3, 0], [-0.7, 0.3]]}
    specs = [["finite", "--spec", json.dumps({"n_cap": n, **spec})]
             for n in (4, 8) for spec in (real, gaussian)]
    # d_1 = 2**-1074 sets the moments' exponent rate; the Gram's scales pass 1074 bits
    subnormal = '{"kind":"explicit","coeffs":[1,5e-324,1e-310,0.5,2.5e-320,1]}'
    return ([["moments", "--family", f, "--window", str(w)] for f in stock for w in (40, 80)]
            + [["ortho", "--family", json.dumps(families["exp-binomial"]), "--order", "160"],
               ["ortho", "--family", json.dumps(complex_family), "--order", "8"],
               # Gaussian R rows, read from the exact view
               ["finite", "--family", json.dumps(complex_family), "--ncap", "2"],
               ["ortho", "--family", subnormal, "--order", "4"],
               ["moments", "--family", subnormal, "--window", "5"],
               ["ortho", "--order", "0"], ["moments", "--window", "0"]]
            + specs + [specs[-1] + ["--level", "1"],
                       # overflows a double in its representation residual: exit 3
                       ["finite", "--spec", '{"n_cap":1,"g":[[1e300,0],[1e300,0]]}']])


def run_tree(seeds: list[int]) -> None:
    """Print, as one JSON list, the outputs of the first decks and the extra commands here."""
    import contextlib
    import io

    import bench_jobs
    from olaurent import cli, families, genfun

    def run_cli(label: str, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback is an output like any other
                code = f"uncaught {type(exc).__name__}: {exc}"
        return {"job": label + " ".join(argv), "code": code,
                "stdout": out.getvalue(), "stderr": err.getvalue()}

    runs = []
    for seed in seeds:
        for workload in bench_jobs.WHY:
            for job in next(bench_jobs.decks(workload, seed)):
                label = f"seed {seed} {workload}: "
                if job["kind"] == "rn":
                    x = complex(*job["x"])
                    source = families.realize(families.FamilySpec.from_json(job["family"]), 64)
                    values = [genfun.rn_by_contour(source, n, x, nodes=bench_jobs.NODES)
                              for n in range(bench_jobs.RN_ORDER + 1)]
                    runs.append({"job": label + f"rn {json.dumps(job['family'])} x = {x}",
                                 "rn": [[v.real.hex(), v.imag.hex()] for v in values]})
                    continue
                runs.append(run_cli(label, bench_jobs.cli_argv(job)))
    runs += [run_cli("extra: ", argv) for argv in extra_argvs(bench_jobs.FAMILIES)]
    json.dump(runs, sys.stdout)


def outputs(tree: pathlib.Path, seeds: list[int]) -> list[dict]:
    """The job outputs of one tree, from one subprocess that imports only that tree."""
    tools = pathlib.Path(__file__).resolve().parent
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, {str(tree / 'perfbench')!r}, "
            f"{str(tools)!r}]; import compare_reports; compare_reports.run_tree({seeds!r})")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def _report(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def differences(old: dict, new: dict) -> list[str]:
    """What differs between two runs of one job; empty when they are identical."""
    if "rn" in old:
        ns = [n for n, (a, b) in enumerate(zip(old["rn"], new["rn"])) if a != b]
        return [f"R_n at n = {ns}"] if ns else []
    found = [f"{what} {old[what]!r} -> {new[what]!r}"
             for what in ("code", "stderr") if old[what] != new[what]]
    if old["stdout"] != new["stdout"]:
        a, b = _report(old["stdout"]), _report(new["stdout"])
        if not (isinstance(a, dict) and isinstance(b, dict)):
            return found + ["stdout"]
        keys = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        found.append(f"report keys {keys}")
        if a.get("command") == "genfun-check" and "samples" in keys:
            rows = [(r, s) for r, s in zip(a["samples"], b["samples"]) if r != s]
            fields = sorted({k for r, s in rows for k in r.keys() | s.keys()
                             if r.get(k) != s.get(k)})
            kinds = sorted({r["kind"] for r, _ in rows})
            found.append(f"{len(rows)} of {len(a['samples'])} rows ({', '.join(kinds)}): "
                         f"fields {fields}")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    old, new = (outputs(tree.resolve(), args.seeds) for tree in (args.parent, args.change))
    if [r["job"] for r in old] != [r["job"] for r in new]:
        print("the two trees deal different decks")
        return 1
    differ = 0
    for a, b in zip(old, new):
        if found := differences(a, b):
            differ += 1
            print(a["job"])
            for line in found:
                print(f"  {line}")
    print(f"{len(old)} jobs: {len(old) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
