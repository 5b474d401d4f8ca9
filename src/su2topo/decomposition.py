"""Spinor decomposition of the SU(2) gauge potential.

The potential splits site by site into A_mu = a_mu + b_mu with

    a_mu = (dPsi Psi^dag - Psi dPsi^dag)/(Psi^dag Psi) - (trace part)
    b_mu = -[(DPsi Psi^dag - Psi DPsi^dag)/(Psi^dag Psi) - (trace part)]

where D is the covariant derivative and the trace parts subtract half the
matrix trace times the identity.  The split is an exact algebraic identity
in (Psi, dPsi, A): `a` transforms like a connection, `b` like a vector, and
`b` vanishes exactly when Psi is parallel (D Psi = 0).

Both parts are read from Psi bilinears.  `a` comes from the spinor current
J_mu^A = Psi^dag sigma_A d_mu Psi (sigma_0 = 1), computed once per field as
``SpinorField.current``; the parallel potential A^a = -2 Im J^a comes from
the same array.  `b` comes from Psi^dag sigma_a D_mu Psi, a bilinear of the
computed covariant derivative: deriving it from J by the Pauli product rule
would make the reconstruction check true by construction.  With exact jets all
residuals here sit at machine epsilon; with finite differences they relax
to O(h^2) and the reported regime says which applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2_algebra
from .errors import FieldError, NormalizationError, ReconstructionError
from .fields import GaugeField, SpinorField, norm_squared


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
    """Matrix fields a_mu, b_mu with their exactness diagnostics.

    ``covariant`` holds the D_mu Psi samples the split was built from
    (``(*shape, rank, 2)``), so callers need not recompute them.
    """

    a: np.ndarray
    b: np.ndarray
    residual: float
    component_residual: float
    regime: str
    covariant: np.ndarray | None = None

    def __post_init__(self):
        # Arrays that are already read-only (as decompose hands over its
        # own) are kept; writable ones are copied so the caller cannot
        # mutate the result.
        for name in ("a", "b", "covariant"):
            arr = getattr(self, name)
            if arr is not None and arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)


def _anti_hermitian(im_t: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The traceless anti-Hermitian matrices c_a sigma_a / (2i) whose
    components are c = -2 weight Im t, written entry by entry.

    ``im_t`` is ``Im(Psi^dag sigma_a X)`` per axis (..., m, 3) and
    ``weight`` per site (...).  The entries are +-i w Im t_3 on the
    diagonal and w (Im t_2 + i Im t_1) above it.
    """
    w = im_t * weight[..., None, None]
    out = np.empty(im_t.shape[:-1] + (2, 2), dtype=np.complex128)
    out.real[..., 0, 0] = 0.0
    out.imag[..., 0, 0] = w[..., 2]
    out.real[..., 1, 1] = 0.0
    out.imag[..., 1, 1] = -w[..., 2]
    out.real[..., 0, 1] = w[..., 1]
    out.imag[..., 0, 1] = w[..., 0]
    out.real[..., 1, 0] = -w[..., 1]
    out.imag[..., 1, 0] = w[..., 0]
    return out


def decompose(psi: SpinorField, gauge: GaugeField, eps_zero: float = 1e-12,
              tol: float = 1e-12) -> Decomposition:
    """Split A into its spinor-gauge part `a` and covariant part `b`.

    Psi need not be normalized: both parts carry explicit 1/(Psi^dag Psi)
    weights, so the split is invariant under constant rescaling of Psi.
    Their components are a^c = -2 w Im t1^c and b^c = 2 w Im t2^c with
    w = 1/(Psi^dag Psi), t1 = J^a (the spinor current, ``psi.current``)
    and t2 = Psi^dag sigma_a D Psi of the computed covariant derivative.

    Two residuals are checked: the matrix reconstruction max|a + b - A| and
    the component form max|-2 w (Im t1 - Im t2) - A^c|.  Both come from the
    same bilinears, so they are not independent routes: they catch a wrong
    current, a wrong covariant derivative or a wrong matrix assembly.  The
    matrix entries carry half the components, so the matrix residual is
    about half the component residual.  In the jet regime a violation
    beyond ``tol`` (relative to the field scale) raises, because it can
    only mean an algebra bug.
    """
    if psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    density = norm_squared(psi)
    if np.min(density) < eps_zero**2:
        site = tuple(map(int, np.unravel_index(int(np.argmin(density)), density.shape)))
        raise NormalizationError(
            f"spinor norm below {eps_zero:.1e} at site {site}", site=site)
    weight = 1.0 / density

    dcov = covariant_derivative(psi, gauge)
    im_t1 = psi.current[..., 1:].imag
    im_t2 = su2_algebra.sigma_bilinear(psi.values[..., None, :], dcov).imag

    # The components a^c + b^c = -2 w (Im t1 - Im t2) against A^c.
    comp = im_t1 - im_t2
    comp *= -2.0 * weight[..., None, None]
    comp -= gauge.values
    component_residual = float(np.max(np.abs(comp)))
    del comp

    a = _anti_hermitian(im_t1, weight)
    b = _anti_hermitian(im_t2, -weight)
    del im_t2
    for arr in (dcov, a, b):
        arr.setflags(write=False)

    # a + b - A on the entries (0, 0) and (0, 1); the other two repeat them
    # up to sign and conjugation.  A_00 = -i A^3/2, A_01 = -(A^2 + i A^1)/2.
    comps = gauge.values
    diag = a.imag[..., 0, 0] + b.imag[..., 0, 0] + 0.5 * comps[..., 2]
    off = np.hypot(a.real[..., 0, 1] + b.real[..., 0, 1] + 0.5 * comps[..., 1],
                   a.imag[..., 0, 1] + b.imag[..., 0, 1] + 0.5 * comps[..., 0])
    residual = max(float(np.max(np.abs(diag))), float(np.max(off)))

    regime = "jet" if psi.has_jet else "fd"
    if regime == "jet":
        scale = 1.0 + float(np.max(np.abs(gauge.values)))
        if residual > tol * scale or component_residual > tol * scale:
            raise ReconstructionError(
                f"decomposition identity violated with exact jets: "
                f"matrix residual {residual:.3e}, "
                f"component residual {component_residual:.3e}")
    return Decomposition(a, b, residual, component_residual, regime, dcov)


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
