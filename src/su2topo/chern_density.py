"""Chern density on rank-4 grids and the second Chern number.

Three pointwise routes to the density rho(x):

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

from dataclasses import dataclass

import numpy as np

from .conventions import ORIENTATION_SIGN, PAIRS4
from .errors import FieldError, NormalizationError
from .fields import (GaugeField, PhiField, SpinorField, face_restrict, normalize,
                     phi_to_spinor)
from .lattice import Grid, ScalarField, read_only
from .chern_simons import Density, spinor_cs_values


@dataclass(frozen=True, eq=False)
class FieldStrength:
    """Components F_mn^a for mu < nu, antisymmetric by storage.

    ``pairs`` has shape ``(*shape, 6, 3)`` indexed by
    :data:`su2topo.conventions.PAIRS4`.
    """

    grid: Grid
    pairs: np.ndarray


def field_strength(gauge: GaugeField) -> FieldStrength:
    """F_mn = d_m A_n - d_n A_m - [A_m, A_n] on a rank-4 grid, in components.

    Derivatives come from the gauge jet when present (exact), otherwise
    from second-order finite differences.  With T_a = sigma_a/(2i) the
    commutator is [A_m, A_n]^a = eps_abc A_m^b A_n^c, so
    F_mn^a = dA - dA - (A_m x A_n)^a; the returned pairs are read-only.
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
    return FieldStrength(grid, read_only(pairs))


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


def chern_density(source, method: str) -> Density:
    """Chern density by the requested route.

    ``source`` is a :class:`SpinorField` for ``method="spinor"`` (typically
    normalized; any smooth spinor is accepted, the formula is the exterior
    derivative of its Chern-Simons form either way), a normalized
    :class:`SpinorField` for ``"unit"`` (the real view of its derivatives
    is dn of the unit 4-vector n), and a :class:`GaugeField` or
    :class:`FieldStrength` for ``"trace"``.
    """
    if method in ("spinor", "unit"):
        if not isinstance(source, SpinorField):
            raise FieldError(f"{method} route needs a SpinorField")
        grid = source.grid
        if grid.rank != 4:
            raise FieldError("Chern densities live on rank-4 grids")
        sign = ORIENTATION_SIGN * grid.orientation
        if method == "unit":
            if not source.normalized:
                raise FieldError("unit route needs a normalized spinor")
            raw = unit_chern_values(source.derivatives().view(np.float64)) * sign
            return Density(ScalarField(grid, read_only(raw)), "unit", 0.0)
        raw = spinor_chern_values(source.derivatives()) * sign
        residue = float(np.max(np.abs(raw.imag)))
        return Density(ScalarField(grid, raw.real), "spinor", residue)
    if method == "trace":
        strength = source if isinstance(source, FieldStrength) else field_strength(source)
        grid = strength.grid
        dot = _eps4_pair_contract_dot(strength.pairs)
        raw = -dot / (64.0 * np.pi**2) * (ORIENTATION_SIGN * grid.orientation)
        return Density(ScalarField(grid, read_only(raw)), "trace", 0.0)
    raise FieldError(f"unknown Chern density method {method!r}")


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
    vanishing on a face raises :class:`NormalizationError`.

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
            dvalues = face.derivatives()
            raw = spinor_cs_values(face.current(dvalues=dvalues)[..., 0], dvalues)
            flux = np.sum(raw * face.grid.quadrature_weights())
            total += face_sign * side_sign * flux
    total *= sign_global
    return float(total.real), float(abs(total.imag))

