"""Numeric kernels: Horner evaluation, truncated products, reciprocals, nodes."""

import numpy as np

from olaurent import kernels


def sample_inputs(seed=0):
    rng = np.random.default_rng(seed)
    coeffs = (rng.normal(size=40) + 1j * rng.normal(size=40)) * 0.7 ** np.arange(40)
    coeffs[0] = 1.0
    pts = 0.9 * np.exp(2j * np.pi * rng.uniform(size=100))
    return np.ascontiguousarray(coeffs), np.ascontiguousarray(pts)


def test_eval_poly_is_horner():
    c = np.array([1.0 + 0j, -2.0, 3.0])
    pts = np.array([0.5 + 0j, 2.0 + 0j])
    assert np.allclose(kernels.eval_poly(c, pts), [0.75, 9.0])


def test_eval_poly_at_a_scalar_rounds_like_python_horner():
    coeffs, pts = sample_inputs(3)
    expect = []
    for z in pts[:10]:
        z = complex(z)
        acc = complex(coeffs[-1])
        for c in coeffs[-2::-1]:
            acc = acc * z + complex(c)
        assert complex(kernels.eval_poly(coeffs, z)) == acc
        expect.append(acc)
    # a list of points is each point's scalar evaluation
    assert kernels.eval_poly(coeffs, pts[:10].tolist()) == expect
    assert kernels.eval_poly(coeffs, []) == []


def test_cauchy_product_truncates():
    a = np.array([1.0 + 0j, 1.0, 1.0])
    out = kernels.cauchy_product(a, a, 3)
    assert np.array_equal(out, [1, 2, 3])


def test_reciprocal_coeffs_geometric():
    ones = np.ones(6, dtype=np.complex128)
    e = kernels.reciprocal_coeffs(ones)
    assert np.array_equal(e, [1, -1, 0, 0, 0, 0])


def test_circle_nodes_extended_lie_on_the_circle():
    z = kernels.circle_nodes_extended(0.5, 64)
    assert z.dtype == kernels.QUAD_DTYPE
    assert z[0] == 0.5
    assert float(np.max(np.abs(np.abs(z) - 0.5))) <= 1e-18
    # the nodes are the 64th roots of unity scaled by the radius
    ticks = (np.angle(z) * 32 / np.pi).round().astype(int) % 64
    assert set(ticks) == set(range(64))


def test_eval_poly_extended_matches_double_precision_path():
    coeffs, pts = sample_inputs(5)
    ext = kernels.eval_poly_extended(coeffs, pts.astype(kernels.QUAD_DTYPE))
    ref = kernels.eval_poly(coeffs, pts)
    assert float(np.max(np.abs(ext.astype(np.complex128) - ref))) <= 1e-13
