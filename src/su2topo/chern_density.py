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
over the eight 3-faces of a 4-box.  The faces of a box whose zeros lie
inside it carry no singularity, so the boundary sum is the route the zero
ledger is checked against.
"""

from __future__ import annotations

import numpy as np

from .conventions import ORIENTATION_SIGN, PAIRS4
from .errors import FieldError, NormalizationError
from .fields import (GaugeField, PhiField, SpinorField, face_restrict, normalize,
                     phi_to_spinor)
from .lattice import Grid, ScalarField, read_only
from .chern_simons import Density, spinor_cs_values


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
    :func:`boundary_cs_sum` can sum: rank 4, open and vertex-centered."""
    if grid.rank != 4:
        raise FieldError("boundary flux sums need a rank-4 box")
    if any(grid.periodic) or grid.cell_centered:
        raise FieldError("boundary flux sums need an open vertex-centered box")


def boundary_cs_sum(field):
    """Oriented sum of spinor Chern-Simons integrals over the 8 faces.

    The face orthogonal to axis ``m`` contributes with sign (-1)^m (top
    minus bottom), matching eps^{0123} = +1 in the volume.  By Stokes this
    telescopes to the volume integral of the spinor Chern density; the
    discrepancy is pure quadrature error, O(h^2) on vertex-centered boxes.

    A :class:`SpinorField` is summed as given.  A :class:`PhiField` is
    restricted to each face first and only that face is converted to a
    unit spinor, so no normalized copy of the whole grid is built; phi
    vanishing on a face raises :class:`NormalizationError`.  Each face's
    integrand is filled from its ``slab_currents()`` (a face without a
    stored jet reads its jet one slab at a time, see
    :func:`~su2topo.fields.face_restrict`) and summed by one ``np.sum``
    over the whole face.

    Returns ``(real_sum, imag_residue)``.
    """
    grid = field.grid
    check_flux_box(grid)
    total = 0.0 + 0.0j
    sign_global = ORIENTATION_SIGN * grid.orientation
    for axis in range(4):
        face_sign = (-1.0) ** axis
        for side, side_sign in ((1, 1.0), (0, -1.0)):
            face = face_restrict(field, axis, side)
            if isinstance(face, PhiField):
                try:
                    face = normalize(phi_to_spinor(face))
                except NormalizationError as exc:
                    raise NormalizationError(
                        f"phi vanishes on the {('low', 'high')[side]} face of axis "
                        f"{axis}: {exc}", site=exc.site) from exc
            total += face_sign * side_sign * _face_flux(face)
    total *= sign_global
    return float(total.real), float(abs(total.imag))


def _face_flux(face: SpinorField) -> complex:
    """The spinor Chern-Simons integral over one face: its integrand filled
    slab by slab from the component-major ``face.slab_currents()``, then
    one ``np.sum``."""
    raw = np.empty(face.grid.shape, dtype=np.complex128)
    for slab, _, dvalues, current in face.slab_currents():
        raw[slab] = spinor_cs_values(current[:, :, 0], dvalues)
        del dvalues, current        # not held while the next slab is computed
    return np.sum(raw * face.grid.quadrature_weights())

