"""Spinor decomposition of the SU(2) gauge potential.

The potential splits site by site into A_mu = a_mu + b_mu with

    a_mu = (dPsi Psi^dag - Psi dPsi^dag)/(Psi^dag Psi) - (trace part)
    b_mu = -[(DPsi Psi^dag - Psi DPsi^dag)/(Psi^dag Psi) - (trace part)]

where D is the covariant derivative and the trace parts subtract half the
matrix trace times the identity.  The split is an exact algebraic identity
in (Psi, dPsi, A), whatever the derivative samples are: `a` transforms
like a connection, `b` like a vector, and `b` vanishes exactly when Psi is
parallel (D Psi = 0).

Both parts are su(2)-valued 1-forms, so both are :class:`GaugeField`s with
components read from Psi bilinears.  `a` comes from the spinor current
J_mu^A = Psi^dag sigma_A d_mu Psi (sigma_0 = 1), computed once per field as
``SpinorField.current``; the parallel potential A^a = -2 Im J^a comes from
the same array.  `b` comes from Psi^dag sigma_a D_mu Psi, a bilinear of the
computed covariant derivative: deriving it from J by the Pauli product rule
would make the reconstruction check true by construction.

Every part is pointwise in (Psi, dPsi, A), so the covariant derivative, a,
b and the residual run one axis-0 slab at a time
(:func:`~su2topo.lattice.slabs`) into the whole-grid arrays returned; each
entry is bit for bit the whole-grid evaluation, and the residual's maximum
is exact in any order.  The fresh arrays are handed to their fields
read-only, which adopt them without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2_algebra
from .errors import FieldError, ReconstructionError
from .fields import GaugeField, SpinorField, _check_nonvanishing, norm_squared
from .lattice import read_only, slabs

#: Largest max|a^c + b^c - A^c| accepted, relative to 1 + max|A^c|.
RECONSTRUCTION_TOL = 1e-12


def covariant_derivative(psi: SpinorField, gauge: GaugeField) -> np.ndarray:
    """D_mu Psi = d_mu Psi - (1/2i) A_mu^a sigma_a Psi.

    Returns per-axis spinor samples, shape ``(*shape, rank, 2)``, a new
    writable array filled slab by slab.  The adjoint counterpart is the
    entrywise conjugate of the result.
    """
    if psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    grid = psi.grid
    out = np.empty(grid.shape + (grid.rank, 2), dtype=np.complex128)
    for slab in slabs(grid):
        # A^a T_a Psi = -(i/2) (A^a sigma_a) Psi
        connection = su2_algebra.sigma_apply(gauge.values[slab],
                                             psi.values[slab][..., None, :])
        np.add(psi.derivatives(slab=slab), 0.5j * connection, out=out[slab])
    return out


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The parts a_mu, b_mu of A_mu = a_mu + b_mu as gauge fields.

    ``residual`` is max|a^c + b^c - A^c| over sites, axes and colors.
    ``covariant`` holds the read-only D_mu Psi samples the split was built
    from (``(*shape, rank, 2)``), so callers need not recompute them.
    """

    a: GaugeField
    b: GaugeField
    residual: float
    covariant: np.ndarray


def decompose(psi: SpinorField, gauge: GaugeField) -> Decomposition:
    """Split A into its spinor-gauge part `a` and covariant part `b`.

    Psi need not be normalized: both parts carry explicit 1/(Psi^dag Psi)
    weights, so the split is invariant under constant rescaling of Psi.
    Their components are a^c = -2 w Im J^c and b^c = 2 w Im t^c with
    w = 1/(Psi^dag Psi), J the spinor current (``psi.current``) and
    t = Psi^dag sigma_a D Psi of the computed covariant derivative.

    The split is algebraic in (Psi, dPsi, A), so one rule holds with exact
    jets and with finite differences alike: a residual max|a + b - A|
    beyond ``RECONSTRUCTION_TOL`` times 1 + max|A| raises
    :class:`ReconstructionError`.  It catches a wrong current or a wrong
    covariant derivative.  A spinor norm below ``fields.EPS_ZERO`` raises
    :class:`NormalizationError`.
    """
    if psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    grid = psi.grid
    density = norm_squared(psi)
    _check_nonvanishing(np.sqrt(density), "spinor")

    dcov = read_only(covariant_derivative(psi, gauge))
    a = np.empty(gauge.values.shape)
    b = np.empty(gauge.values.shape)
    residual = 0.0
    amax = 0.0
    for slab in slabs(grid):
        weight = (2.0 / density[slab])[..., None, None]     # 2w
        current = psi.current[slab]
        np.multiply(current[..., 1:].imag, -weight, out=a[slab])
        t = su2_algebra.sigma_bilinear(psi.values[slab][..., None, :], dcov[slab])
        np.multiply(t.imag, weight, out=b[slab])
        mismatch = a[slab] + b[slab]
        mismatch -= gauge.values[slab]
        residual = max(residual, float(np.max(np.abs(mismatch))))
        amax = max(amax, float(np.max(np.abs(gauge.values[slab]))))
    if residual > RECONSTRUCTION_TOL * (1.0 + amax):
        raise ReconstructionError(
            f"decomposition identity violated: max|a + b - A| = {residual:.3e}")
    return Decomposition(GaugeField(grid, read_only(a)), GaugeField(grid, read_only(b)),
                         residual, dcov)


def parallel_gauge_potential(psi: SpinorField) -> GaugeField:
    """The potential i(Psi^dag sigma_a dPsi - dPsi^dag sigma_a Psi).

    For a normalized spinor this solves the parallel condition D Psi = 0
    exactly, and feeding the result back into :func:`decompose` returns
    b = 0 at machine epsilon when jets are exact.  The components are real
    by construction.
    """
    if not psi.normalized:
        raise FieldError("parallel potential requires a normalized spinor")
    return GaugeField(psi.grid, read_only(-2.0 * psi.current[..., 1:].imag))
