"""Spinor decomposition of the SU(2) gauge potential.

The potential splits site by site into A_mu = a_mu + b_mu with

    a_mu = (dPsi Psi^dag - Psi dPsi^dag)/(Psi^dag Psi) - (trace part)
    b_mu = -[(DPsi Psi^dag - Psi DPsi^dag)/(Psi^dag Psi) - (trace part)]

where D is the covariant derivative and the trace parts subtract half the
matrix trace times the identity.  The split is an exact algebraic identity
in (Psi, dPsi, A): `a` transforms like a connection, `b` like a vector, and
`b` vanishes exactly when Psi is parallel (D Psi = 0).  With exact jets all
residuals here sit at machine epsilon; with finite differences they relax
to O(h^2) and the reported regime says which applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2_algebra
from .errors import FieldError, NormalizationError, ReconstructionError
from .fields import GaugeField, SpinorField, norm_squared


def covariant_derivative(psi: SpinorField, gauge: GaugeField,
                         dpsi: np.ndarray | None = None) -> np.ndarray:
    """D_mu Psi = d_mu Psi - (1/2i) A_mu^a sigma_a Psi.

    Returns per-axis spinor samples, shape ``(*shape, rank, 2)``.  The
    adjoint counterpart is the entrywise conjugate of the result.
    """
    if psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    if dpsi is None:
        dpsi = psi.derivatives()
    # A^a T_a Psi = -(i/2) (A^a sigma_a) Psi
    return dpsi + 0.5j * su2_algebra.sigma_apply(gauge.values, psi.values[..., None, :])


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


def _traceless_outer(u: np.ndarray, v: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight * (u v^dag - v u^dag) minus half its trace times I.

    ``u`` is a per-axis jet (..., m, 2) and ``v`` a spinor (..., 2).  The
    result is anti-Hermitian and traceless, so it is written entry by entry:
    diagonal +-i Im(u0 v0* - u1 v1*) w, off-diagonal (u0 v1* - v0 u1*) w.
    """
    u0, u1 = u[..., 0], u[..., 1]
    v0, v1 = v[..., None, 0], v[..., None, 1]
    w = weight[..., None]
    diag = (u0 * np.conj(v0) - u1 * np.conj(v1)).imag * w
    off = (u0 * np.conj(v1) - v0 * np.conj(u1)) * w
    out = np.empty(u.shape[:-1] + (2, 2), dtype=np.complex128)
    out.real[..., 0, 0] = 0.0
    out.imag[..., 0, 0] = diag
    out.real[..., 1, 1] = 0.0
    out.imag[..., 1, 1] = -diag
    out[..., 0, 1] = off
    out[..., 1, 0] = -np.conj(off)
    return out


def decompose(psi: SpinorField, gauge: GaugeField, eps_zero: float = 1e-12,
              tol: float = 1e-12) -> Decomposition:
    """Split A into its spinor-gauge part `a` and covariant part `b`.

    Psi need not be normalized: both parts carry explicit 1/(Psi^dag Psi)
    weights, so the split is invariant under constant rescaling of Psi.
    The reconstruction a + b = A and an independent trace-form recomputation
    of the components are checked; in the jet regime a violation beyond
    ``tol`` (relative to the field scale) raises, because it can only mean
    an algebra bug.
    """
    if psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    density = norm_squared(psi)
    if np.min(density) < eps_zero**2:
        site = tuple(map(int, np.unravel_index(int(np.argmin(density)), density.shape)))
        raise NormalizationError(
            f"spinor norm below {eps_zero:.1e} at site {site}", site=site)
    weight = 1.0 / density

    dpsi = psi.derivatives()
    dcov = covariant_derivative(psi, gauge, dpsi=dpsi)
    a = _traceless_outer(dpsi, psi.values, weight)
    b = _traceless_outer(dcov, psi.values, -weight)
    for arr in (dcov, a, b):
        arr.setflags(write=False)

    amat = gauge.matrices()
    residual = float(np.max(np.abs(a + b - amat)))

    # Independent route: recover the components from trace bilinears.
    # i w ((t1 - t1*) - (t2 - t2*)) = -2 w (Im t1 - Im t2)
    t1 = su2_algebra.sigma_bilinear(psi.values[..., None, :], dpsi)
    t2 = su2_algebra.sigma_bilinear(psi.values[..., None, :], dcov)
    comp = -2.0 * weight[..., None, None] * (t1.imag - t2.imag)
    component_residual = float(np.max(np.abs(comp - gauge.values)))

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
    dpsi = psi.derivatives()
    bilinear = su2_algebra.sigma_bilinear(psi.values[..., None, :], dpsi)
    return GaugeField(psi.grid, -2.0 * bilinear.imag)
