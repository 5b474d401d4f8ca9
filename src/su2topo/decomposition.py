"""Spinor decomposition of the SU(2) gauge potential.

The potential splits site by site into A_mu = a_mu + b_mu with

    a_mu = (dPsi Psi^dag - Psi dPsi^dag)/(Psi^dag Psi) - (trace part)
    b_mu = -[(DPsi Psi^dag - Psi DPsi^dag)/(Psi^dag Psi) - (trace part)]

where D is the covariant derivative and the trace parts subtract half the
matrix trace times the identity.  The split is an exact algebraic identity
in (Psi, dPsi, A), whatever the derivative samples are: `a` transforms
like a connection, `b` like a vector, and `b` vanishes exactly when Psi is
parallel (D Psi = 0).

Both parts are su(2)-valued 1-forms with components read from Psi
bilinears.  `a` comes from the spinor current
J_mu^A = Psi^dag sigma_A d_mu Psi (sigma_0 = 1), which
``SpinorField.slab_currents`` computes per slab; the parallel
potential A^a = -2 Im J^a comes from the same current.  `b` comes from
Psi^dag sigma_a D_mu Psi, a bilinear of the computed covariant derivative:
deriving it from J by the Pauli product rule would make the reconstruction
check true by construction.

Every part is pointwise in (Psi, dPsi, A), so the per-slab kernels
(:func:`covariant_derivative` and :func:`_axis_parts`) give D Psi, a and b
on one axis-0 slab (:func:`~su2topo.lattice.slabs`) at a time from the
slab's samples, d Psi, current, norms Psi^dag Psi and A, each taken once
by the sweep; no kernel reads a field.  They are
component-major (:func:`~su2topo.lattice.component_major`): the
components follow axis 0 and the sites of a plane come last, so every
ufunc runs over a plane's contiguous sites, and each runs once a slab
for every derivative axis, Psi broadcast over them.  A is the
given potential's slab or, with none given, the parallel potential of the
slab's own current, never held whole.  :func:`decompose` keeps only the
kernels' maxima (:func:`slab_maxima`), as the knot-charge sweep
(:func:`~su2topo.chern_simons.chern_simons`) does on the inputs it holds:
no part is kept, and maxima are exact in any order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2_algebra
from .errors import FieldError, ReconstructionError
from .fields import (EPS_ZERO, GaugeField, SpinorField, _check_nonvanishing, _max_abs,
                     norm_squared, normalize)
from .lattice import component_major

#: Largest max|a^c + b^c - A^c| accepted, relative to 1 + max|A^c|.
RECONSTRUCTION_TOL = 1e-12


def covariant_derivative(samples: np.ndarray, dvalues: np.ndarray,
                         gauge: np.ndarray) -> np.ndarray:
    """D_mu Psi = d_mu Psi - (1/2i) A_mu^a sigma_a Psi of one slab, from its
    component-major spinor ``samples`` ``(planes, 2, ...)``, d Psi
    ``dvalues`` ``(planes, rank, 2, ...)`` and components of A ``gauge``
    ``(planes, rank, 3, ...)``.

    Returns component-major per-axis spinor samples, shape
    ``(planes, rank, 2, ...)``, a new writable array, computed for every
    derivative axis by one call of each kernel.  The adjoint counterpart
    is the entrywise conjugate of the result.
    """
    # A^a T_a Psi = -(i/2) (A^a sigma_a) Psi, Psi broadcast over the axes
    out = np.empty(dvalues.shape, dtype=np.complex128)
    su2_algebra.sigma_apply(gauge.swapaxes(1, 2), samples[:, :, None], out.swapaxes(1, 2))
    out *= 0.5j
    return np.add(dvalues, out, out=out)


def _axis_parts(samples: np.ndarray, current: np.ndarray, norms: np.ndarray,
                dcov: np.ndarray) -> tuple:
    """The component-major components of a_mu and b_mu of one slab, each
    ``(planes, rank, 3, ...)``.

    a^c = -2 w Im J^c and b^c = 2 w Im t^c with w = 1/(Psi^dag Psi), J the
    spinor current and t = Psi^dag sigma_c D Psi.  Both read the slab's
    ``samples``, its current, its Psi^dag Psi ``norms`` and its D Psi
    ``dcov``, as a sweep over the slabs took them.
    """
    weight = (2.0 / norms)[:, None, None]                        # 2w
    t = np.empty(dcov.shape[:2] + (3,) + dcov.shape[3:], dtype=np.complex128)
    su2_algebra.sigma_bilinear(samples[:, :, None], dcov.swapaxes(1, 2), t.swapaxes(1, 2))
    b = np.multiply(t.imag, weight)
    del t                       # not held beside a
    return np.multiply(current[:, :, 1:].imag, -weight), b


def slab_maxima(samples: np.ndarray, dvalues: np.ndarray, current: np.ndarray,
                norms: np.ndarray, gauge: np.ndarray) -> tuple:
    """The per-slab kernel of :func:`decompose`: max|a + b - A|, max|A|,
    max|D Psi| and max|b| of one slab, from its component-major
    ``samples``, d Psi ``dvalues``, current and A ``gauge``, and its
    Psi^dag Psi ``norms``.

    Maxima are exact in any order, so those of a grid are the entrywise
    maxima over its slabs (:func:`fold_maxima`).
    """
    dcov = covariant_derivative(samples, dvalues, gauge)
    a, b = _axis_parts(samples, current, norms, dcov)
    mismatch = np.add(a, b, out=a)
    mismatch -= gauge
    # the entries of b^a sigma_a/(2i) are -i b^3/2 on the diagonal and
    # -(b^2 + i b^1)/2 off it; np.abs of that complex is the matrix's
    # own modulus bit for bit (np.hypot is not)
    half = np.multiply(b, 0.5, out=b)
    off = np.empty(half.shape[:2] + half.shape[3:], dtype=np.complex128)
    off.real, off.imag = half[:, :, 1], half[:, :, 0]
    return (_max_abs(mismatch), _max_abs(gauge), float(np.max(np.abs(dcov))),
            float(np.maximum(_max_abs(half[:, :, 2]), np.max(np.abs(off)))))


def fold_maxima(maxima: tuple, more: tuple) -> tuple:
    """The entrywise maxima of two :func:`slab_maxima` tuples, as floats.

    A NaN in either survives (``np.maximum``; the builtin ``max(0.0,
    nan)`` is 0.0), so a non-finite sample fails the reconstruction
    check instead of vanishing from it.
    """
    return tuple(map(float, np.maximum(maxima, more)))


@dataclass(frozen=True, eq=False)
class Decomposition:
    """The reductions of the split A_mu = a_mu + b_mu of one (Psi, A) pair.

    ``residual`` is max|a^c + b^c - A^c| over sites, axes and colors,
    ``max_covariant`` is max|D_mu Psi| over the spinor entries and
    ``max_b`` is max|b_mu| over the entries of its matrix form, taken in
    closed form from the components without building the matrices.
    """

    residual: float
    max_covariant: float
    max_b: float

    @classmethod
    def from_maxima(cls, maxima: tuple) -> "Decomposition":
        """The split whose sweep took the :func:`slab_maxima` ``maxima``.

        A residual max|a + b - A| beyond ``RECONSTRUCTION_TOL`` times
        1 + max|A|, or a NaN among them, raises :class:`ReconstructionError`.
        """
        residual, amax, dmax, bmax = maxima
        if not residual <= RECONSTRUCTION_TOL * (1.0 + amax):
            raise ReconstructionError(
                f"decomposition identity violated: max|a + b - A| = {residual:.3e}")
        return cls(residual, dmax, bmax)


def _slab_inputs(psi: SpinorField, gauge: GaugeField | None):
    """``psi.slab_currents()`` with the slab's component-major A appended:
    that of ``gauge``, or without one the parallel potential of the
    current."""
    for slab, samples, dvalues, current in psi.slab_currents():
        yield slab, samples, dvalues, current, (
            su2_algebra.parallel_components(current) if gauge is None
            else component_major(gauge.values_at(slab), psi.grid.rank))


def decompose(psi: SpinorField, gauge: GaugeField | None = None) -> Decomposition:
    """Split A into its spinor-gauge part `a` and covariant part `b`.

    Without ``gauge``, A is the parallel potential of the unit spinor
    (:func:`~su2topo.fields.normalize`), taken per slab from its current,
    and the split is that spinor's.  With one, Psi need not be normalized:
    both parts carry explicit 1/(Psi^dag Psi) weights, so the split is
    invariant under constant rescaling of Psi.

    The split is algebraic in (Psi, dPsi, A), so one rule holds with exact
    jets and with finite differences alike: a residual max|a + b - A|
    beyond ``RECONSTRUCTION_TOL`` times 1 + max|A| raises
    :class:`ReconstructionError`.  It catches a wrong current or a wrong
    covariant derivative.  A spinor norm below ``fields.EPS_ZERO`` raises
    :class:`NormalizationError` at the smallest norm of the grid, as
    :func:`~su2topo.fields.normalize` does; no slab with such a norm
    reaches the kernel, and the error reads the slabs from the first such
    one on, never the whole grid.
    """
    if gauge is None:
        psi = normalize(psi)
    elif psi.grid != gauge.grid:
        raise FieldError("spinor and gauge grids differ")
    maxima = (0.0,) * 4
    for slab, samples, dvalues, current, potential in _slab_inputs(psi, gauge):
        norms = norm_squared(samples, slab.start)
        if np.sqrt(np.min(norms)) < EPS_ZERO:
            # no earlier slab holds such a norm: the grid's smallest is here
            # or later
            _check_nonvanishing(psi, slab.start)
        maxima = fold_maxima(maxima, slab_maxima(samples, dvalues, current, norms,
                                                 potential))
    return Decomposition.from_maxima(maxima)
