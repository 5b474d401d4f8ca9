"""The rank-3 sweep's kernels in their site-major form, as test oracles.

The library's per-slab kernels are component-major: the components follow
axis 0 and the sites of a plane come last.  The forms here keep the
components last and evaluate the whole grid at once, as the library did
before it swept slabs; the sweep must equal them bit for bit.  Every
floating-point operation here is the one the library's kernel performs on
the same operands, in the same order, except that the trace route's color
contraction is ``np.einsum``'s, which the library writes out.
:func:`plane_quadrature` is the quadrature's definition on a whole grid.
"""

import math

import numpy as np

from su2topo.lattice import derivative_stack

_CYCLIC3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
H_PAIRS = ((0, 1), (0, 2), (1, 2))


def sigma_bilinear(u, v):
    """``u^dag sigma_a v``, the color axis ``a`` last."""
    u0, u1 = np.conj(u[..., 0]), np.conj(u[..., 1])
    v0, v1 = v[..., 0], v[..., 1]
    p01, p10 = u0 * v1, u1 * v0
    out = np.empty(np.broadcast_shapes(u0.shape, v0.shape) + (3,), dtype=np.complex128)
    out[..., 0] = p01 + p10
    out[..., 1] = 1j * (p10 - p01)
    out[..., 2] = u0 * v0 - u1 * v1
    return out


def spinor_current(u, v):
    """``u^dag sigma_A v`` with ``sigma_0 = 1``, the index ``A`` last."""
    u0, u1 = np.conj(u[..., 0]), np.conj(u[..., 1])
    v0, v1 = v[..., 0], v[..., 1]
    p00, p01, p10, p11 = u0 * v0, u0 * v1, u1 * v0, u1 * v1
    out = np.empty(np.broadcast_shapes(u0.shape, v0.shape) + (4,), dtype=np.complex128)
    out[..., 0] = p00 + p11
    out[..., 1] = p01 + p10
    out[..., 2] = 1j * (p10 - p01)
    out[..., 3] = p00 - p11
    return out


def sigma_apply(c, v):
    """``(c_a sigma_a) v`` for real ``c`` (..., 3) and spinors ``v`` (..., 2)."""
    c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
    v0, v1 = v[..., 0], v[..., 1]
    out = np.empty(np.broadcast_shapes(c1.shape, v0.shape) + (2,), dtype=np.complex128)
    out[..., 0] = c3 * v0 + (c1 - 1j * c2) * v1
    out[..., 1] = (c1 + 1j * c2) * v0 - c3 * v1
    return out


def norm_squared(samples):
    return np.sum(np.abs(samples) ** 2, axis=-1)


def current(psi):
    """J_mu^A of the whole grid, shape ``(*shape, rank, 4)``."""
    return spinor_current(psi.values[..., None, :], psi.derivatives())


def parallel_components(current):
    return np.multiply(current[..., 1:].imag, -2.0)


def covariant_derivative(psi, gauge):
    """D_mu Psi of the whole grid for the components ``gauge`` of A."""
    return psi.derivatives() + 0.5j * sigma_apply(gauge, psi.values[..., None, :])


def parts(psi, gauge):
    """The components of a and b, and D Psi, of the whole grid."""
    weight = (2.0 / norm_squared(psi.values))[..., None, None]
    a = np.multiply(current(psi)[..., 1:].imag, -weight)
    dcov = covariant_derivative(psi, gauge)
    t = sigma_bilinear(psi.values[..., None, :], dcov)
    return a, np.multiply(t.imag, weight), dcov


def maxima(psi, gauge):
    """max|a + b - A|, max|A|, max|D Psi| and max|b| of the whole grid."""
    a, b, dcov = parts(psi, gauge)
    half = 0.5 * b
    return (float(np.max(np.abs(a + b - gauge))), float(np.max(np.abs(gauge))),
            float(np.max(np.abs(dcov))),
            float(np.maximum(np.max(np.abs(half[..., 2])),
                             np.max(np.abs(half[..., 1] + 1j * half[..., 0])))))


def sigma_model_field(psi):
    return sigma_bilinear(psi.values, psi.values).real


def spinor_cs_values(j0, dvalues):
    re, im = dvalues.real, dvalues.imag
    out = np.zeros(j0.shape[:-1], dtype=np.complex128)
    for i, j, k in _CYCLIC3:
        im_s2 = ((re[..., j, 0] * im[..., k, 0] - im[..., j, 0] * re[..., k, 0])
                 + (re[..., j, 1] * im[..., k, 1] - im[..., j, 1] * re[..., k, 1]))
        out += j0[..., i] * im_s2
    out *= 2j
    return -out / (4.0 * np.pi**2)


def det3(m):
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def triple(m, u, v):
    return (m[..., 0] * (u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1])
            + m[..., 1] * (u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2])
            + m[..., 2] * (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]))


def trace_cs_values(a, da):
    term1 = np.zeros(a.shape[:-2])
    for i, j, k in _CYCLIC3:
        term1 += np.einsum("...a,...a->...", a[..., i, :],
                           da[..., j, k, :] - da[..., k, j, :])
    term2 = 6.0 * det3(a)
    return -(term1 - term2 / 3.0) / (16.0 * np.pi**2)


def fn_pointwise(c, h):
    return 0.5 * (c[..., 0] * h[..., 2] - c[..., 1] * h[..., 1] + c[..., 2] * h[..., 0])


def plane_quadrature(values, grid):
    """The quadrature of whole-grid samples by its definition: each axis-0
    plane of ``values * grid.quadrature_weights()`` summed in C order by
    one ``np.add.reduce``, and the plane sums by ``math.fsum``."""
    weighted = values * grid.quadrature_weights()
    return math.fsum(float(np.add.reduce(plane.reshape(-1))) for plane in weighted)


def routes(psi):
    """The whole-grid ingredients of the three knot-charge routes: the raw
    spinor density, A and its trace density, C, H and the FN density (all
    unsigned and unscaled as the kernels return them), and dC."""
    grid = psi.grid
    j = current(psi)
    gauge = parallel_components(j)
    c = -2.0 * j[..., 0].imag
    m, dm = sigma_model_field(psi), 2.0 * j[..., 1:].real
    h = np.stack([-triple(m, dm[..., i, :], dm[..., k, :]) for i, k in H_PAIRS], axis=-1)
    return {"spinor": spinor_cs_values(j[..., 0], psi.derivatives()), "gauge": gauge,
            "trace": trace_cs_values(gauge, derivative_stack(gauge, grid)),
            "c": c, "h": h, "fn": fn_pointwise(c, h), "dc": derivative_stack(c, grid)}
