"""Chern density on rank-4 grids and the second Chern number.

Three pointwise routes to the density rho(x), one function each
(:func:`spinor_chern_density`, :func:`unit_chern_density` and
:func:`trace_chern_density`):

  spinor:  rho = -1/(4 pi^2) eps^{mnlr} d_m Psi^dag d_n Psi d_l Psi^dag d_r Psi
  unit:    rho = 1/(12 pi^2) eps^{mnlr} eps_{abcd}
                  d_m n^a d_n n^b d_l n^c d_r n^d  =  (2/pi^2) det[d_m n^a]
  trace:   rho = -1/(64 pi^2) eps^{mnlr} F_mn^a F_lr^a

The spinor and unit forms are the same algebraic function of first
derivatives (they agree at machine epsilon on jets).  On exactly unit data
the density vanishes pointwise away from zeros of the underlying 4-vector
field: the whole charge concentrates at those zeros, where the unit
spinor is singular.

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
from .fields import (EPS_ZERO, GaugeField, PhiField, SpinorField, _check_nonvanishing,
                     _norms, face_restrict, phi_to_spinor)
from .lattice import Grid, Quadrature, ScalarField, component_major, read_only, slabs
from .chern_simons import Density


def field_strength(gauge: GaugeField) -> np.ndarray:
    """F_mn = d_m A_n - d_n A_m - [A_m, A_n] on a rank-4 grid, in components.

    Derivatives come from the gauge jet when present (exact), otherwise
    from second-order finite differences.  With T_a = sigma_a/(2i) the
    commutator is [A_m, A_n]^a = eps_abc A_m^b A_n^c, so
    F_mn^a = dA - dA - (A_m x A_n)^a.  Returns the read-only components
    F_mn^a for mu < nu, antisymmetric by storage: shape ``(*shape, 6, 3)``
    indexed by :data:`su2topo.conventions.PAIRS4`.
    """
    grid = gauge.grid
    if grid.rank != 4:
        raise FieldError("field strength needs a rank-4 grid")
    da = gauge.derivatives()  # (*s, deriv, axis, 3)
    a = gauge.values
    pairs = np.empty(grid.shape + (6, 3))
    for idx, (mu, nu) in enumerate(PAIRS4):
        curl = da[..., mu, nu, :] - da[..., nu, mu, :]
        comm = np.cross(a[..., mu, :], a[..., nu, :])
        pairs[..., idx, :] = curl - comm
    return read_only(pairs)


def spinor_chern_values(dvalues: np.ndarray) -> np.ndarray:
    """Spinor-route density from derivative samples ``(..., 4, 2)``."""
    t = np.einsum("...mc,...nc->...mn", np.conj(dvalues), dvalues)
    p01 = t[..., 0, 1] - t[..., 1, 0]
    p02 = t[..., 0, 2] - t[..., 2, 0]
    p03 = t[..., 0, 3] - t[..., 3, 0]
    p12 = t[..., 1, 2] - t[..., 2, 1]
    p13 = t[..., 1, 3] - t[..., 3, 1]
    p23 = t[..., 2, 3] - t[..., 3, 2]
    contraction = 2.0 * (p01 * p23 - p02 * p13 + p03 * p12)
    return -contraction / (4.0 * np.pi**2)


def unit_chern_values(dvalues: np.ndarray) -> np.ndarray:
    """Unit/4-vector-route density (2/pi^2) det[d_m v^a] from ``(..., 4, 4)``."""
    return (2.0 / np.pi**2) * np.linalg.det(dvalues)


def _route_sign(source, kind: type, route: str) -> float:
    """The orientation sign of a route's density; raises
    :class:`FieldError` unless ``source`` is a rank-4 ``kind`` field."""
    if not isinstance(source, kind):
        raise FieldError(f"{route} route needs a {kind.__name__}")
    if source.grid.rank != 4:
        raise FieldError("Chern densities live on rank-4 grids")
    return ORIENTATION_SIGN * source.grid.orientation


def spinor_chern_density(psi: SpinorField) -> Density:
    """Spinor-route density of a rank-4 spinor: typically normalized, but
    any smooth spinor is accepted (the formula is the exterior derivative
    of its Chern-Simons form either way)."""
    sign = _route_sign(psi, SpinorField, "spinor")
    raw = spinor_chern_values(psi.derivatives()) * sign
    return Density(ScalarField(psi.grid, raw.real), float(np.max(np.abs(raw.imag))))


def unit_chern_density(psi: SpinorField) -> Density:
    """Unit-route density of a normalized rank-4 spinor: the real view of
    its derivatives is dn of the unit 4-vector n."""
    sign = _route_sign(psi, SpinorField, "unit")
    if not psi.normalized:
        raise FieldError("unit route needs a normalized spinor")
    raw = unit_chern_values(psi.derivatives().view(np.float64)) * sign
    return Density(ScalarField(psi.grid, read_only(raw)), 0.0)


def trace_chern_density(gauge: GaugeField) -> Density:
    """Trace-route density of a rank-4 gauge field, from its
    :func:`field_strength`."""
    sign = _route_sign(gauge, GaugeField, "trace")
    raw = -_eps4_pair_contract_dot(field_strength(gauge)) / (64.0 * np.pi**2) * sign
    return Density(ScalarField(gauge.grid, read_only(raw)), 0.0)


def _eps4_pair_contract_dot(pairs: np.ndarray) -> np.ndarray:
    """eps^{mnlr} F_mn . F_lr with the color dot product folded in."""
    def dot(i, j):
        return np.einsum("...a,...a->...", pairs[..., i, :], pairs[..., j, :])
    return 8.0 * (dot(0, 5) - dot(1, 4) + dot(2, 3))


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
