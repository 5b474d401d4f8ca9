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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2_algebra
from .errors import FieldError, ReconstructionError
from .fields import GaugeField, SpinorField, _check_nonvanishing, norm_squared

#: Largest max|a^c + b^c - A^c| accepted, relative to 1 + max|A^c|.
RECONSTRUCTION_TOL = 1e-12


def covariant_derivative(psi: SpinorField, gauge: GaugeField) -> np.ndarray:
    """D_mu Psi = d_mu Psi - (1/2i) A_mu^a sigma_a Psi.

    Returns per-axis spinor samples, shape ``(*shape, rank, 2)``.  The
    adjoint counterpart is the entrywise conjugate of the result.
    """
    if psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    # A^a T_a Psi = -(i/2) (A^a sigma_a) Psi
    connection = su2_algebra.sigma_apply(gauge.values, psi.values[..., None, :])
    return psi.derivatives() + 0.5j * connection


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
    density = norm_squared(psi)
    _check_nonvanishing(np.sqrt(density), "spinor")
    weight = 2.0 / density     # 2w

    dcov = covariant_derivative(psi, gauge)
    dcov.setflags(write=False)
    a = psi.current[..., 1:].imag * -weight[..., None, None]
    b = su2_algebra.sigma_bilinear(psi.values[..., None, :], dcov).imag
    b *= weight[..., None, None]

    mismatch = a + b
    mismatch -= gauge.values
    residual = float(np.max(np.abs(mismatch)))
    scale = 1.0 + float(np.max(np.abs(gauge.values)))
    if residual > RECONSTRUCTION_TOL * scale:
        raise ReconstructionError(
            f"decomposition identity violated: max|a + b - A| = {residual:.3e}")
    return Decomposition(GaugeField(psi.grid, a), GaugeField(psi.grid, b),
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
    return GaugeField(psi.grid, -2.0 * psi.current[..., 1:].imag)
