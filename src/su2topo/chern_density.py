"""Chern density on rank-4 grids and the second Chern number.

Three pointwise routes to the density rho(x) of a rank-4 spinor:

  spinor:  rho = -1/(4 pi^2) eps^{mnlr} d_m Psi^dag d_n Psi d_l Psi^dag d_r Psi
  unit:    rho = 1/(12 pi^2) eps^{mnlr} eps_{abcd}
                  d_m n^a d_n n^b d_l n^c d_r n^d  =  (2/pi^2) det[d_m n^a]
  trace:   rho = -1/(64 pi^2) eps^{mnlr} F_mn^a F_lr^a

The spinor and unit forms are the same algebraic function of first
derivatives (they agree at machine epsilon on jets).  On exactly unit data
the density vanishes pointwise away from zeros of the underlying 4-vector
field: the whole charge concentrates at those zeros, where the unit
spinor is singular.

:func:`chern_numbers` integrates the routes it is asked for in one sweep
over the axis-0 slabs (``LatticeField.slab_samples``), as the rank-3
knot-charge sweep does, and feeds each slab's density of each route to
that route's :class:`~su2topo.lattice.Quadrature`; no density is kept.
Each route's kernel takes one slab's component-major arrays.  The spinor
kernel reads d Psi only through Im t_mn, t_mn = sum_c d_m Psi_c^* d_n
Psi_c, since t_mn - t_nm = 2i Im t_mn, so its density is real by
construction.  The unit kernel takes the determinant (:func:`_det4`) of
the four rows d_m n, the real and imaginary parts of d_m Psi.  Only the
trace route computes the spinor current J: its kernel reads the parallel
potential A^a = -2 Im J^a of each slab and its finite differences, taken
a slab behind on the slab's own A and the held planes next to it
(:func:`~su2topo.lattice.stencil_windows`), so neither A nor dA is held
for the whole grid and no plane is copied.  F reads d_m A_n for m != n
only, so d_m A_m is not computed.

Integrating rho over the volume gives the second Chern number, which by
Stokes also equals the sum of oriented Chern-Simons boundary integrals
over the eight 3-faces of a 4-box.  For the unit spinor n = phi/|phi| the
face integrand is the Brouwer degree density of n, det[phi, d phi] /
(2 pi^2 |phi|^4).  The faces of a box whose zeros lie inside it carry no
singularity, so that sum (:func:`boundary_degree`) is the route the zero
ledger is checked against.
"""

from __future__ import annotations

import numpy as np

from .conventions import ORIENTATION_SIGN, PAIRS4
from .errors import FieldError, NormalizationError
from .fields import (EPS_ZERO, PhiField, SpinorField, _check_nonvanishing, _norms,
                     _slab_current, face_restrict, normalize, phi_to_spinor)
from .lattice import (Grid, Quadrature, component_major, derivative_stack, slabs,
                      stencil_windows)
from .su2_algebra import _colour_dot, _im_pair, parallel_components

#: The Chern-density routes, in the order reports list them.
ROUTES = ("spinor", "unit", "trace")


def chern_numbers(psi: SpinorField, routes) -> dict[str, float]:
    """The second Chern number of a rank-4 spinor by each of ``routes``
    (names from :data:`ROUTES`), in one sweep over its axis-0 slabs.

    The spinor route reads any smooth spinor as it is (its density is the
    exterior derivative of the Chern-Simons form either way); with the
    unit or trace route, every route reads the unit spinor
    (:func:`~su2topo.fields.normalize`).  A route not asked for is not
    computed; without the trace route neither the spinor current nor A
    is.  Each total is that of the whole-grid density,
    whatever the slabs.  Raises :class:`FieldError` on a field of the
    wrong kind or rank, and on a sum that is not finite.
    """
    if not isinstance(psi, SpinorField):
        raise FieldError("Chern routes need a SpinorField")
    if {"unit", "trace"} & set(routes):
        psi = normalize(psi)
    grid = psi.grid
    if grid.rank != 4:
        raise FieldError("Chern densities live on rank-4 grids")
    sign = ORIENTATION_SIGN * grid.orientation
    order = 2                       # of the dA stencils
    sums = {route: Quadrature(grid) for route in routes}

    def first_pass():
        for slab in slabs(grid):
            samples, dvalues = (component_major(block, 4) for block in psi.slab_samples(slab))
            for route, kernel in (("spinor", _spinor_values), ("unit", _unit_values)):
                if route in sums:
                    sums[route].add(slab, sign * kernel(dvalues))
            if "trace" in sums:
                gauge = parallel_components(_slab_current(slab, samples, dvalues)[3])
                del samples, dvalues         # not held through the trace pass
                yield slab, [gauge]

    for slab, (gauge,), (held,) in stencil_windows(grid, order, first_pass()):
        sums["trace"].add(slab, sign * _trace_values(gauge, derivative_stack(
            gauge, grid, order, slab, held, components_first=True, diagonal=False)))
    return {route: quadrature.total() for route, quadrature in sums.items()}


def _spinor_values(dvalues: np.ndarray) -> np.ndarray:
    """Spinor-route density of d Psi, component-major ``(planes, 4, 2,
    ...)``.  With I_mn = Im t_mn, t_mn - t_nm = 2i I_mn, so the contraction
    2 (p01 p23 - p02 p13 + p03 p12) of p_mn = t_mn - t_nm is
    -8 (I01 I23 - I02 I13 + I03 I12)."""
    def im(m, n):
        return _im_pair(dvalues, m, n)
    return 8.0 * (im(0, 1) * im(2, 3) - im(0, 2) * im(1, 3) + im(0, 3) * im(1, 2)) \
        / (4.0 * np.pi**2)


def _unit_values(dvalues: np.ndarray) -> np.ndarray:
    """Unit-route density (2/pi^2) det[d_m n^a] of a normalized spinor's
    d Psi, component-major ``(planes, 4, 2, ...)``: row m is d_m n, the
    real and imaginary parts of d_m Psi_0 and of d_m Psi_1."""
    rows = np.stack((dvalues.real, dvalues.imag), axis=3)
    rows = rows.reshape(rows.shape[:2] + (4,) + rows.shape[4:])
    return (2.0 / np.pi**2) * _det4(*rows.swapaxes(0, 1))


def _field_strength(gauge: np.ndarray, dgauge: np.ndarray) -> np.ndarray:
    """F_mn^a = d_m A_n^a - d_n A_m^a - (A_m x A_n)^a for the pairs mu < nu
    of :data:`~su2topo.conventions.PAIRS4`, from component-major A
    ``(planes, 4, 3, ...)`` and dA ``(planes, 4, 4, 3, ...)``: with
    T_a = sigma_a/(2i) the commutator is [A_m, A_n]^a = eps_abc A_m^b
    A_n^c.  Shape ``(planes, 6, 3, ...)``."""
    out = np.empty(gauge.shape[:1] + (6,) + gauge.shape[2:])
    for idx, (mu, nu) in enumerate(PAIRS4):
        out[:, idx] = (dgauge[:, mu, nu] - dgauge[:, nu, mu]
                       - np.cross(gauge[:, mu], gauge[:, nu], axis=1))
    return out


def _trace_values(gauge: np.ndarray, dgauge: np.ndarray) -> np.ndarray:
    """Trace-route density -eps^{mnlr} F_mn . F_lr / (64 pi^2) of
    component-major A and dA (:func:`_field_strength`), the color dot
    product summed as :func:`~su2topo.su2_algebra._colour_dot` does."""
    f = _field_strength(gauge, dgauge)
    return -(8.0 * (_colour_dot(f[:, 0], f[:, 5]) - _colour_dot(f[:, 1], f[:, 4])
                    + _colour_dot(f[:, 2], f[:, 3]))) / (64.0 * np.pi**2)


def check_flux_box(grid: Grid) -> None:
    """Raise :class:`FieldError` unless ``grid`` is a box whose 8 faces
    :func:`boundary_degree` can sum: rank 4, open and vertex-centered."""
    if grid.rank != 4:
        raise FieldError("boundary flux sums need a rank-4 box")
    if any(grid.periodic) or grid.cell_centered:
        raise FieldError("boundary flux sums need an open vertex-centered box")


def boundary_degree(phi: PhiField) -> float:
    """The Chern-Simons flux of the unit spinor of phi through the 8 faces:
    the degree density of n = phi/|phi| (:func:`_degree_density`) of each
    face slab (:func:`~su2topo.fields.face_restrict`), fed to a
    :class:`~su2topo.lattice.Quadrature` of the face.  The face orthogonal
    to axis ``m`` counts with sign (-1)^m (top minus bottom), as
    eps^{0123} = +1 in the volume.  By Stokes this is the sum of the
    degrees of the zeros inside, up to O(h^2) quadrature error.  phi
    vanishing on a face raises :class:`NormalizationError`, a norm that
    overflows :class:`FieldError`."""
    grid = phi.grid
    check_flux_box(grid)
    total = 0.0
    for axis in range(4):
        for side, side_sign in ((1, 1.0), (0, -1.0)):
            face = face_restrict(phi, axis, side)
            quadrature = Quadrature(face.grid)
            for slab in slabs(face.grid):
                samples, dvalues = (component_major(block, 3)
                                    for block in face.slab_samples(slab))
                norms = _norms(samples)
                if np.min(norms) < EPS_ZERO or np.max(norms) == np.inf:
                    try:        # names the site of the zero or of the overflow
                        _check_nonvanishing(phi_to_spinor(face), slab.start)
                    except NormalizationError as exc:
                        raise NormalizationError(
                            f"phi vanishes on the {('low', 'high')[side]} face of axis "
                            f"{axis}: {exc}", site=exc.site) from exc
                quadrature.add(slab, _degree_density(samples, dvalues))
            total += (-1.0) ** axis * side_sign * quadrature.total()
    return ORIENTATION_SIGN * grid.orientation * total


def _degree_density(samples: np.ndarray, dvalues: np.ndarray) -> np.ndarray:
    """det[phi, d_1 phi, d_2 phi, d_3 phi] / (2 pi^2 |phi|^4) of a rank-3
    slab's component-major samples ``(planes, 4, ...)`` and derivatives
    ``(planes, 3, 4, ...)``, with every row divided by |phi| first: det[phi,
    d phi] overflows where |phi|^2 does not."""
    norms = _norms(samples)[:, None]
    rows = (dvalues / norms[:, None]).swapaxes(0, 1)
    return _det4(samples / norms, *rows) / (2.0 * np.pi**2)


def _det4(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The determinants of the 4x4 matrices with rows ``a``, ``b``, ``c``
    and ``d``, each component-major ``(planes, 4, ...)``: the Laplace
    expansion over the 2x2 minors of the rows a, b and of the rows c, d."""
    def minor(u, v, i, j):
        return u[:, i] * v[:, j] - u[:, j] * v[:, i]
    return (minor(a, b, 0, 1) * minor(c, d, 2, 3) - minor(a, b, 0, 2) * minor(c, d, 1, 3)
            + minor(a, b, 0, 3) * minor(c, d, 1, 2) + minor(a, b, 1, 2) * minor(c, d, 0, 3)
            - minor(a, b, 1, 3) * minor(c, d, 0, 2) + minor(a, b, 2, 3) * minor(c, d, 0, 1))
