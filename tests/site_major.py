"""The library's kernels in their site-major form, as test oracles.

The library's per-slab kernels are component-major: the components follow
axis 0 and the sites of a plane come last.  The forms here keep the
components last and evaluate the whole grid at once, as the library did
before it swept slabs; the sweep must equal them bit for bit.  Every
floating-point operation here is the one the library's kernel performs on
the same operands, in the same order, except that the trace route's color
contraction, the linear map and the quotient rule's Psi^dag d Psi are
``np.einsum``'s, which the library writes out.
:func:`plane_quadrature` is the quadrature's definition on a whole grid,
:func:`quadrature` the library's quadrature fed a whole grid slab by
slab, and :func:`boundary_cs_sum` the spinor route of the boundary flux,
the oracle of the boundary degree.  :func:`swept` is no oracle: it fills
whole grids of what the library's sweeps compute slab by slab and do not
keep, by the library's own kernels, for the tests that read them whole,
and :func:`stored` is the copy of a field that stores its samples and
jet, through which a test reads a served field whole.
The three rank-4 Chern-density routes
are here in the whole-grid forms the library had before it swept them:
the trace route from the whole-grid :func:`field_strength`, which the
library's kernel equals bit for bit, and, by other operations, the
spinor route by ``np.einsum`` over complex t_mn and the unit route by
``np.linalg.det``, which its kernels equal within a few ulps.

The ``axis_*`` forms are the component-major kernels of the rank-3 sweep
as they ran one derivative axis at a time: the current, D Psi, the parts
a and b and the maxima, which the library now takes for every axis in one
call and must equal bit for bit, zero signs included.

The rank-4 forms take points ``(..., 4)`` with jets ``(..., rank, 4)``:
the quaternion kernels of the box and chart generators, the box maps'
values and jets, the zero screen's corner min/max mask on the whole grid,
the site Jacobians (:func:`jacobian`), :func:`normalize`'s quotient
rule and, simplex by simplex over every cell, the zero screen's count of
the preimages of y (:func:`simplex_count`).
"""

import dataclasses
import functools
import itertools
import math

import numpy as np

import su2topo as st
from su2topo import chern_simons as cs, decomposition
from su2topo.conventions import PAIRS4
from su2topo.lattice import Quadrature, derivative_stack, site_major, slabs

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


def stored(field):
    """The copy of ``field`` that stores its samples, and its exact jet if
    it has one, each filled slab by slab (:func:`~su2topo.lattice.slabs`)
    from :meth:`~su2topo.lattice.LatticeField.values_at` and
    :meth:`~su2topo.lattice.LatticeField.exact_jet`: the library reads a
    served field a block at a time only, and a test that reads it whole
    reads this copy."""
    def whole(read):
        return np.concatenate([read(slab) for slab in slabs(field.grid)])

    changes = {"values": whole(field.values_at), "block_values": None}
    if field.jet is not None or field.block_jet is not None:
        changes.update(jet=whole(field.exact_jet), block_jet=None)
    return dataclasses.replace(field, **changes)


def derivatives(field, order=2):
    """The whole-grid derivatives of ``field``, the axis index before the
    component axes: its exact jet if it has one, else the finite
    differences of ``order`` of its samples."""
    field = stored(field)
    return derivative_stack(field.values, field.grid, order) if field.jet is None else field.jet


def jacobian(phi):
    """det[d_mu phi^a] of every site of a rank-4 phi field, from its
    whole-grid :func:`derivatives`: the site Jacobians that the library
    takes on the 4^4 window around a zero only."""
    return np.linalg.det(derivatives(phi))


def current(psi):
    """J_mu^A of the whole grid, shape ``(*shape, rank, 4)``."""
    return spinor_current(stored(psi).values[..., None, :], derivatives(psi))


def parallel_components(current):
    return np.multiply(current[..., 1:].imag, -2.0)


def covariant_derivative(psi, gauge):
    """D_mu Psi of the whole grid for the components ``gauge`` of A."""
    return derivatives(psi) + 0.5j * sigma_apply(gauge, stored(psi).values[..., None, :])


def parts(psi, gauge):
    """The components of a and b, and D Psi, of the whole grid."""
    psi = stored(psi)
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
    samples = stored(psi).values
    return sigma_bilinear(samples, samples).real


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


def quadrature_weights(grid):
    """The quadrature weight of every site of ``grid``, shape ``grid.shape``:
    the outer product of the per-axis weights."""
    weights = grid._axis_weights()
    return functools.reduce(np.multiply.outer, weights[1:], weights[0])


def plane_quadrature(values, grid):
    """The quadrature of whole-grid samples by its definition: each axis-0
    plane of ``values * quadrature_weights(grid)`` summed in C order by
    one ``np.add.reduce``, and the plane sums by ``math.fsum``."""
    weighted = values * quadrature_weights(grid)
    return math.fsum(float(np.add.reduce(plane.reshape(-1))) for plane in weighted)


def quadrature(values, grid):
    """The :class:`~su2topo.lattice.Quadrature` of whole-grid samples, fed
    slab by slab (:func:`~su2topo.lattice.slabs`)."""
    total = Quadrature(grid)
    for slab in slabs(grid):
        total.add(slab, values[slab])
    return total.total()


def boundary_cs_sum(field):
    """The spinor Chern-Simons flux through the 8 faces of a rank-4 box:
    each face of a spinor field as given, of a phi field as its unit
    spinor, its integrand computed whole from its current and summed by
    one ``np.sum``.  The face orthogonal to axis ``m`` counts with sign
    (-1)^m, top minus bottom.  Returns ``(real part, |imaginary part|)``;
    the imaginary part of a closed boundary's sum is quadrature error."""
    total = 0j
    for axis in range(4):
        for side, side_sign in ((1, 1.0), (0, -1.0)):
            face = st.face_restrict(field, axis, side)
            if isinstance(face, st.PhiField):
                face = st.normalize(st.phi_to_spinor(face))
            raw = spinor_cs_values(current(face)[..., 0], derivatives(face))
            total += (-1.0) ** axis * side_sign * np.sum(raw * quadrature_weights(face.grid))
    total *= st.ORIENTATION_SIGN * field.grid.orientation
    return float(total.real), float(abs(total.imag))


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
    return {"spinor": spinor_cs_values(j[..., 0], derivatives(psi)), "gauge": gauge,
            "trace": trace_cs_values(gauge, derivative_stack(gauge, grid)),
            "c": c, "h": h, "fn": fn_pointwise(c, h), "dc": derivative_stack(c, grid)}


#: The knot-charge routes whose densities :func:`swept` records.
DENSITIES = ("spinor", "trace", "fn")


def swept(psi, *names, gauge=None):
    """Whole grids, site-major, of what the library computes slab by slab
    and keeps only as sums or maxima, each by the library's own kernels.
    ``names`` picks among

    * ``"gauge"``: A, the components of ``gauge`` or, without one, the
      parallel potential of each slab's own current
      (``decomposition._slab_inputs``);
    * ``"a"`` and ``"b"``: the parts of the split of that A
      (``decomposition.covariant_derivative`` and ``_axis_parts``);
    * ``"c"`` and ``"h"``: the Abelian potential and the curvature pairs
      of a rank-3 spinor (``chern_simons._potentials``);
    * ``"spinor"``, ``"trace"`` and ``"fn"``: the knot-charge densities of
      a normalized rank-3 spinor, signed and scaled, recorded as
      ``chern_simons.chern_simons`` feeds them to its quadratures.

    Returns a dict of the arrays asked for."""
    grid = psi.grid
    out = _recorded_densities(psi) if set(names) & set(DENSITIES) else {}
    kept = {name: np.empty(grid.shape + ((grid.rank, 3) if name in ("gauge", "a", "b") else (3,)))
            for name in names if name not in DENSITIES}
    if kept:
        for slab, samples, dvalues, current, potential in decomposition._slab_inputs(
                psi, gauge):
            arrays = {"gauge": potential}
            if kept.keys() & {"c", "h"}:
                arrays["c"], arrays["h"] = cs._potentials(samples, current)[1:]
            if kept.keys() & {"a", "b"}:
                dcov = decomposition.covariant_derivative(samples, dvalues, potential)
                norms = st.norm_squared(samples, slab.start)
                arrays["a"], arrays["b"] = decomposition._axis_parts(samples, current,
                                                                     norms, dcov)
            for name, array in kept.items():
                array[slab] = site_major(arrays[name], grid.rank)
    out.update(kept)
    return {name: out[name] for name in names}


def _recorded_densities(psi):
    """The densities ``chern_simons.chern_simons`` feeds its quadratures,
    each filled into a whole grid, by route (the order it makes them)."""
    made = []

    class Recording(Quadrature):
        def __init__(self, grid):
            super().__init__(grid)
            self.fed = np.empty(grid.shape)
            made.append(self)

        def add(self, slab, values):
            self.fed[slab] = values
            super().add(slab, values)

    cs.Quadrature = Recording
    try:
        cs.chern_simons(psi)
    finally:
        cs.Quadrature = Quadrature
    assert len(made) == len(DENSITIES)
    return {route: quadrature.fed for route, quadrature in zip(DENSITIES, made)}


def spinor_chern_values(dvalues):
    """Spinor-route Chern density of derivative samples ``(..., 4, 2)``,
    unsigned and complex: the contraction of t_mn - t_nm, t = d Psi^dag d Psi
    by ``np.einsum``."""
    t = np.einsum("...mc,...nc->...mn", np.conj(dvalues), dvalues)
    p = {(m, n): t[..., m, n] - t[..., n, m] for m, n in PAIRS4}
    contraction = 2.0 * (p[0, 1] * p[2, 3] - p[0, 2] * p[1, 3] + p[0, 3] * p[1, 2])
    return -contraction / (4.0 * np.pi**2)


def unit_chern_values(dvalues):
    """Unit-route Chern density (2/pi^2) det[d_m v^a] of ``(..., 4, 4)``,
    unsigned, by ``np.linalg.det``."""
    return (2.0 / np.pi**2) * np.linalg.det(dvalues)


def field_strength(gauge):
    """F_mn^a = d_m A_n - d_n A_m - (A_m x A_n)^a of a rank-4 gauge field
    on the whole grid, shape ``(*shape, 6, 3)`` over the pairs mu < nu."""
    da, a = derivatives(gauge), stored(gauge).values
    pairs = np.empty(gauge.grid.shape + (6, 3))
    for idx, (mu, nu) in enumerate(PAIRS4):
        pairs[..., idx, :] = (da[..., mu, nu, :] - da[..., nu, mu, :]
                              - np.cross(a[..., mu, :], a[..., nu, :]))
    return pairs


def trace_chern_values(strength):
    """Trace-route Chern density -eps^{mnlr} F_mn . F_lr / (64 pi^2) of
    :func:`field_strength`, unsigned, the color dot by ``np.einsum``."""
    def dot(i, j):
        return np.einsum("...a,...a->...", strength[..., i, :], strength[..., j, :])
    return -(8.0 * (dot(0, 5) - dot(1, 4) + dot(2, 3))) / (64.0 * np.pi**2)


# --------------------------------------------------------------------------
# the component-major kernels one derivative axis at a time
# --------------------------------------------------------------------------

def axis_sigma_bilinear(u, v):
    """``u^dag sigma_a v`` of component-major slabs ``(planes, 2, ...)``,
    the color axis 1, in a new array."""
    u0, u1 = np.conj(u[:, 0]), np.conj(u[:, 1])
    v0, v1 = v[:, 0], v[:, 1]
    p01, p10 = u0 * v1, u1 * v0
    shape = np.broadcast_shapes(u0.shape, v0.shape)
    out = np.empty(shape[:1] + (3,) + shape[1:], dtype=np.complex128)
    np.add(p01, p10, out=out[:, 0])
    out[:, 1] = 1j * (p10 - p01)
    np.subtract(u0 * v0, u1 * v1, out=out[:, 2])
    return out


def axis_sigma_apply(c, v):
    """``(c_a sigma_a) v`` of component-major real ``c`` ``(planes, 3,
    ...)`` and spinors ``v`` ``(planes, 2, ...)``, in a new array."""
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    v0, v1 = v[:, 0], v[:, 1]
    shape = np.broadcast_shapes(c1.shape, v0.shape)
    out = np.empty(shape[:1] + (2,) + shape[1:], dtype=np.complex128)
    out[:, 0] = c3 * v0 + (c1 - 1j * c2) * v1
    out[:, 1] = (c1 + 1j * c2) * v0 - c3 * v1
    return out


def axis_current(samples, dvalues):
    """The spinor current ``(planes, rank, 4, ...)`` of a slab's
    component-major samples and d Psi, one derivative axis at a time."""
    u0, u1 = np.conj(samples[:, 0]), np.conj(samples[:, 1])
    out = np.empty(dvalues.shape[:2] + (4,) + dvalues.shape[3:], dtype=np.complex128)
    for axis in range(dvalues.shape[1]):
        v0, v1 = dvalues[:, axis, 0], dvalues[:, axis, 1]
        p00, p01, p10, p11 = u0 * v0, u0 * v1, u1 * v0, u1 * v1
        np.add(p00, p11, out=out[:, axis, 0])
        np.add(p01, p10, out=out[:, axis, 1])
        out[:, axis, 2] = 1j * (p10 - p01)
        np.subtract(p00, p11, out=out[:, axis, 3])
    return out


def axis_covariant_derivative(samples, dvalues, gauge):
    """D Psi of one component-major slab, one derivative axis at a time."""
    out = np.empty(dvalues.shape, dtype=np.complex128)
    for axis in range(dvalues.shape[1]):
        connection = axis_sigma_apply(gauge[:, axis], samples)
        np.add(dvalues[:, axis], 0.5j * connection, out=out[:, axis])
    return out


def axis_parts(samples, current, norms, dcov):
    """The component-major a and b ``(planes, rank, 3, ...)`` of one slab,
    one derivative axis at a time."""
    weight = (2.0 / norms)[:, None]
    minus = -weight
    parts = [(np.multiply(current[:, axis, 1:].imag, minus),
              np.multiply(axis_sigma_bilinear(samples, dcov[:, axis]).imag, weight))
             for axis in range(dcov.shape[1])]
    return tuple(np.stack(part, axis=1) for part in zip(*parts))


def axis_slab_maxima(samples, dvalues, current, norms, gauge):
    """max|a + b - A|, max|A|, max|D Psi| and max|b| of one slab, folded
    over the derivative axes one at a time."""
    dcov = axis_covariant_derivative(samples, dvalues, gauge)
    a, b = axis_parts(samples, current, norms, dcov)
    residual = bmax = 0.0
    for axis in range(dcov.shape[1]):
        mismatch = a[:, axis] + b[:, axis]
        mismatch -= gauge[:, axis]
        half = 0.5 * b[:, axis]
        residual = np.maximum(residual, np.max(np.abs(mismatch)))
        bmax = np.maximum(bmax, np.maximum(
            np.max(np.abs(half[:, 2])), np.max(np.abs(half[:, 1] + 1j * half[:, 0]))))
    return (float(residual), float(np.max(np.abs(gauge))), float(np.max(np.abs(dcov))),
            float(bmax))


# --------------------------------------------------------------------------
# the generators' quaternion kernels, components last
# --------------------------------------------------------------------------

UNIT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
UNIT_LEFT = np.array([[1.0, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]])
UNIT_RIGHT = np.array([[1.0, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]])


def qmul(p, q):
    """Hamilton product of ``(..., 4)`` arrays, written component by
    component in the operation order of the vector form."""
    p0, p1, p2, p3 = (p[..., a] for a in range(4))
    q0, q1, q2, q3 = (q[..., a] for a in range(4))
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = p0 * q0 - (p1 * q1 + p2 * q2 + p3 * q3 + 0.0)
    out[..., 1] = p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2)
    out[..., 2] = p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3)
    out[..., 3] = p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1)
    return out


def qconj(q):
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def unit_products(p, signs):
    """``(..., 4, 4)`` signed unit products of p, unit axis at -2, by a
    gather of the permuted components."""
    out = p[..., UNIT_PERM]
    out *= signs
    return out


def qpower_values(q, n):
    if n < 0:
        q, n = qconj(q), -n
    value = q
    for _ in range(n - 1):
        value = qmul(q, value)
    return value


def qpower_with_jet(q, dq, n):
    """q^n and its jet; ``dq=None`` is the box, d_mu q = e_mu."""
    box = dq is None
    if box:
        dq = np.eye(4)
    if n < 0:
        q, dq, n = qconj(q), qconj(dq), -n
    signs = np.diagonal(dq)[:, None] if box else None
    value, jet = q, None if box else dq
    for _ in range(n - 1):
        if box:
            left = unit_products(value, UNIT_LEFT * signs)
            right = (unit_products(q, UNIT_RIGHT * signs) if jet is None
                     else qmul(q[..., None, :], jet))
        else:
            left = qmul(dq, value[..., None, :])
            right = qmul(q[..., None, :], jet)
        left += right
        jet = left
        value = qmul(q, value)
    if jet is None:
        jet = np.broadcast_to(dq, q.shape[:-1] + (4, 4))
    return value, jet


def qpoly_values(q, roots):
    value = q - roots[0]
    for root in roots[1:]:
        value = qmul(value, q - root)
    return value


def qpoly_with_jet(q, roots):
    """prod_j (q - c_j) and its jet at box points q."""
    value, jet = q - roots[0], None
    for root in roots[1:]:
        factor = q - root
        left = (unit_products(factor, UNIT_LEFT) if jet is None
                else qmul(jet, factor[..., None, :]))
        left += unit_products(value, UNIT_RIGHT)
        jet = left
        value = qmul(value, factor)
    if jet is None:
        jet = np.broadcast_to(np.eye(4), q.shape[:-1] + (4, 4))
    return value, jet


def linear_values(matrix, shift, x):
    return np.einsum("ab,...b->...a", matrix, x - shift)


def linear_with_jet(matrix, shift, x):
    return (linear_values(matrix, shift, x),
            np.broadcast_to(matrix.T, x.shape[:-1] + (4, 4)).copy())


# --------------------------------------------------------------------------
# the zero screen and the quotient rule, components last
# --------------------------------------------------------------------------

def cell_mask(lower, upper, grid, band=0.0):
    """The mask of the rows of cells between the site planes ``lower`` and
    ``upper`` that span the band [-band, band] by the closed corner min/max
    rule, min <= band and max >= -band (min <= 0 <= max at band 0), the min
    and max taken pairwise one axis at a time."""
    mins = np.minimum(lower, upper)
    maxs = np.maximum(lower, upper)
    for ax in range(1, grid.rank):
        if grid.periodic[ax]:
            mins = np.minimum(mins, np.roll(mins, -1, axis=ax))
            maxs = np.maximum(maxs, np.roll(maxs, -1, axis=ax))
        else:
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            mins = np.minimum(mins[lo], mins[hi])
            maxs = np.maximum(maxs[lo], maxs[hi])
    return np.all((mins <= band) & (maxs >= -band), axis=-1)


def sign_change_cells(values, grid):
    """The screen's mask on the whole grid: :func:`cell_mask` of the site
    planes and the planes one step above them (rolled on a periodic axis 0)."""
    if grid.periodic[0]:
        return cell_mask(values, np.roll(values, -1, axis=0), grid)
    return cell_mask(values[:-1], values[1:], grid)


def quotient(samples, jet, norms):
    """The jet of samples / norms by the quotient rule, for spinor samples
    ``(..., 2)``, jets ``(..., rank, 2)`` and the norms ``(...)``."""
    norm = norms[..., None]
    dnorm = np.einsum("...c,...mc->...m", np.conj(samples), jet).real / norm
    return jet / norm[..., None] - samples[..., None, :] * (dnorm / norm ** 2)[..., None]


def simplex_count(values, grid, y):
    """The simplices of the Kuhn triangulation of every cell of an open
    grid on which the linear interpolant of the samples ``values`` takes
    the value ``y``: a list of ``(sign, point)``, sgn pi times the sign of
    the simplex's Jacobian and the preimage in grid coordinates, sorted.
    Each simplex is solved on its own by ``np.linalg.solve`` and
    ``np.linalg.det``, over every cell of the grid: the count the zero
    screen takes on the cells it marks only, by Cramer's rule."""
    cells = tuple(n - 1 for n in grid.shape)
    found = []
    for perm in itertools.permutations(range(4)):
        steps = np.eye(4, dtype=int)[list(perm)]          # row k: e_pi(k)
        vertices = np.vstack([np.zeros(4, int), np.cumsum(steps, axis=0)])
        at = [values[tuple(slice(v[a], v[a] + cells[a]) for a in range(4))]
              for v in vertices]
        edges = np.stack([vertex - at[0] for vertex in at[1:]], axis=-1)
        det = np.linalg.det(edges)
        edges[det == 0.0] = np.eye(4)      # a flat simplex takes no value once
        mu = np.linalg.solve(edges, (y - at[0])[..., None])[..., 0]
        inside = (np.all(mu >= 0.0, axis=-1) & (mu.sum(axis=-1) <= 1.0)
                  & (det != 0.0))
        orient = round(np.linalg.det(steps)) * np.sign(det)
        for cell in np.argwhere(inside):
            index = cell + mu[tuple(cell)] @ vertices[1:]
            point = np.asarray(grid.origin) + index * np.asarray(grid.spacing)
            found.append((int(orient[tuple(cell)]), tuple(point)))
    return sorted(found)
