"""The package surface, its dependencies, and the names the benchmark's tracer reaches into."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import olaurent
from olaurent import cli, errors, families, finite, functional, genfun, kernels, series, systems

ROOT = Path(__file__).resolve().parents[1]
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"


def _bench_trace():
    """perfbench/bench_trace.py, loaded by path; it imports only the standard library."""
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_surface_is_the_union_of_module_lists():
    lists = [m.__all__ for m in (series, families, systems, functional, genfun, finite, errors)]
    names = ["__version__", *(name for names in lists for name in names)]
    assert olaurent.__all__ == names
    assert len(set(names)) == len(names)
    assert all(hasattr(olaurent, name) for name in names)
    assert {"MAX_ORDER", "contour_moments", "two_step"} <= set(names)


def test_every_trace_target_resolves():
    bench_trace = _bench_trace()
    for _, modname, attr in bench_trace.TARGETS:
        module = importlib.import_module(modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            assert meth in vars(getattr(module, clsname)), attr
        else:
            assert callable(getattr(module, attr)), attr


def test_machine_facts_name_the_numpy_backend():
    assert kernels.HAS_NUMBA is False
    assert kernels.backend() == "numpy"


def test_trace_hooks_read_what_the_program_builds():
    bench_trace = _bench_trace()
    tracer = bench_trace.Tracer()
    s = [1.0, 0.5 + 0.25j, 0.125]
    measure = finite.build_atomic_measure(s)
    bench_trace._atomic(tracer, measure, s)
    bench_trace._moment(tracer, None, measure, 1)
    assert tracer.counts["finite.mp_dps"] == measure.precision
    assert tracer.counts["finite.mp_terms"] == len(measure.atoms)
    assert tracer.keys["finite.table_reuse_ratio"] == {
        (measure.radius, measure.precision, measure.wide_weights)}


def test_traced_product_counts_the_term_pairs_of_exact_polynomials():
    bench_trace = _bench_trace()
    tracer = bench_trace.Tracer()
    p = series.LaurentPoly.from_exact(-1, [1, 0, 3], 2)     # (x^-1 + 3x) / 2, two terms
    q = series.LaurentPoly({0: 0.5, 1: 0.25j})
    with tracer.installed():
        product = p * q
    metrics = tracer.metrics()
    assert metrics["series.LaurentPoly.mul.calls"] == 1
    assert metrics["series.LaurentPoly.mul.term_pairs"] == len(p) * len(q) == 4
    assert product == series.LaurentPoly({-1: 0.25, 0: 0.125j, 1: 0.75, 2: 0.375j})


def test_traced_contour_run_counts_extended_horner_steps(capsys):
    bench_trace = _bench_trace()
    tracer = bench_trace.Tracer()
    with tracer.installed():
        assert cli.main(["ortho", "--family", "exponential", "--order", "4",
                         "--radius", "0.8", "--nodes", "64"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["kernels.eval_poly_extended.calls"] == 1
    # the 64 nodes on |y| are 32 distinct values of y^2, times the 64
    # Horner steps of the order-64 contour source
    assert metrics["kernels.eval_poly_extended.point_steps"] == 32 * 64


def test_the_cli_and_a_finite_job_load_no_mpmath():
    # a fresh interpreter, so no other test's import of mpmath counts
    code = ("import contextlib, io, sys\n"
            "import olaurent.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = olaurent.cli.main(['finite', '--family', 'exponential', '--ncap', '2'])\n"
            "print(code, 'mpmath' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.stdout.split() == ["0", "False"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy"]
    assert "mpmath" in [d.split(">")[0] for d in project["optional-dependencies"]["test"]]
    for path in (ROOT / "src" / "olaurent").glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+mpmath\b", path.read_text(), re.M), path.name


def test_every_error_class_is_raised_somewhere():
    # a class that nothing raises is dead surface; OLaurentError is the base
    source = "".join(path.read_text() for path in (ROOT / "src" / "olaurent").glob("*.py"))
    orphans = [name for name in errors.__all__ if name != "OLaurentError"
               and not re.search(rf"\braise {name}\(", source)]
    assert orphans == []
