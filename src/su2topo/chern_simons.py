"""Chern-Simons 3-form densities and the knot (Hopf) charge.

Two routes to the same density on a rank-3 chart:

  trace:   w = -1/(16 pi^2) eps^{ijk} [A_i^a d_j A_k^a
                                       - (1/3) eps^{abc} A_i^a A_j^b A_k^c]
  spinor:  w = -1/(4 pi^2)  eps^{ijk} (Psi^dag d_i Psi)(d_j Psi^dag d_k Psi)

and the Abelian (sigma-model) route through m_a = Psi^dag sigma_a Psi:

  H_ij = -m . (d_i m x d_j m),   C_i = i(Psi^dag d_i Psi - d_i Psi^dag Psi)
  Q_fn = 1/(32 pi^2) Integral eps_{ijk} C_i H_jk d^3x

All three integrate to the same integer winding on closed charts; the
pointwise identity (1/4) eps C H = eps Tr(A dA - 2/3 AAA) ties the Abelian
and non-Abelian integrands together.  The spinor and Abelian integrands
are algebraic in first derivatives and therefore exact with jets; the
trace route needs dA by finite differences and carries O(h^2) error.

All three read the spinor current J_i^A = Psi^dag sigma_A d_i Psi
(sigma_0 = 1): the spinor route takes Psi^dag d_i Psi = J^0, the trace
route the parallel potential A^a = -2 Im J^a, and the Abelian route
d m^a = 2 Re J^a and C = -2 Im J^0.

:func:`chern_simons` runs the three routes in one sweep over the axis-0
slabs (:func:`~su2topo.lattice.slabs`).  It reads each slab's samples once
(a chart field computes them then, see
:meth:`~su2topo.lattice.LatticeField.values_at`) and takes d Psi once per
slab (finite differences for bare samples) and J from them
(``SpinorField.slab_currents``, which never stores J), and from these the
spinor and Abelian densities and the slab's A, c and h_pairs.  The
kernels take the slab's arrays and read no field; each runs once a slab,
for every derivative axis at once, and writes into its output arrays.
The sweep drops each slab's samples, d Psi and J before the trace pass
runs.  dA and dC read the planes next to each slab, so the trace density
and the exactness residual run a slab behind
(:func:`~su2topo.lattice.stencil_windows`), on each slab's own A and c and
the planes of its neighbours, held as the first pass made them and never
copied: A and c are held as a halo of planes and H for the slabs still to
be read, never for the whole grid.  The trace density reads d_j A_k for
j != k only, so d_i A_i is not computed; dC is taken whole, since its
maximum bounds the exactness residual.  Asked for the parallel condition,
the sweep also runs the per-slab kernel of
:func:`~su2topo.decomposition.decompose` on the slab's samples, d Psi, J,
norms and A.  Every per-slab kernel here is component-major
(:func:`~su2topo.lattice.component_major`): a slab has the shape
``(planes, components..., n1, n2)``, so each ufunc runs over a plane's
contiguous sites, and A and c are differenced in that layout
(``derivative_stack(..., components_first=True)``).  The trace density
sums its color contraction in einsum's order on color-last rows,
(A^0 D^0 + A^2 D^2) + A^1 D^1, so every density keeps its bits.  Each
density is summed as it is swept (:class:`~su2topo.lattice.Quadrature`,
whose total does not depend on the slabs), bit for bit the quadrature of
the whole-grid density, and not kept; the exactness residual and the
decomposition's reductions are maxima over the slabs, folded so that a
NaN survives.  No density, potential or curvature is kept whole: a
caller gets the charges and those maxima (:class:`KnotCharges`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conventions import ORIENTATION_SIGN
from .decomposition import Decomposition, fold_maxima, slab_maxima
from .errors import FieldError, ReconstructionError
from .fields import (GaugeField, SpinorField, _max_abs, norm_squared, normalize,
                     sigma_model_field)
from .lattice import Quadrature, component_major, derivative_stack, stencil_windows
from .su2_algebra import _colour_dot, _im_pair, parallel_components

_CYCLIC3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))   # even permutations of (0,1,2)


def spinor_cs_values(j0: np.ndarray, dvalues: np.ndarray) -> np.ndarray:
    """Raw (complex) spinor Chern-Simons integrand of a component-major
    slab.

    ``j0`` is J_i^0 = Psi^dag d_i Psi ``(planes, 3, ...)``, entry 0 of
    the current of ``SpinorField.slab_currents``, and ``dvalues`` the
    jets d_i Psi ``(planes, 3, 2, ...)``.  Only the antisymmetric part of
    s2_jk = d_j Psi^dag d_k Psi enters the contraction, and
    s2_jk - s2_kj = 2i Im s2_jk (:func:`~su2topo.su2_algebra._im_pair`).
    """
    out = np.zeros(j0.shape[:1] + j0.shape[2:], dtype=np.complex128)
    for i, j, k in _CYCLIC3:
        out += j0[:, i] * _im_pair(dvalues, j, k)
    out *= 2j
    return -out / (4.0 * np.pi**2)


def _det3(m: np.ndarray) -> np.ndarray:
    """det of component-major 3x3 matrices ``(planes, 3, 3, ...)``,
    expanded along the first row."""
    return (m[:, 0, 0] * (m[:, 1, 1] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 1])
            - m[:, 0, 1] * (m[:, 1, 0] * m[:, 2, 2] - m[:, 1, 2] * m[:, 2, 0])
            + m[:, 0, 2] * (m[:, 1, 0] * m[:, 2, 1] - m[:, 1, 1] * m[:, 2, 0]))


def _triple(m: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m . (u x v) for component-major vectors ``(planes, 3, ...)``."""
    return (m[:, 0] * (u[:, 1] * v[:, 2] - u[:, 2] * v[:, 1])
            + m[:, 1] * (u[:, 2] * v[:, 0] - u[:, 0] * v[:, 2])
            + m[:, 2] * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]))


def trace_cs_values(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    """Trace-route Chern-Simons integrand from component-major components
    and derivatives.

    ``a`` has shape (planes, 3, 3, ...) (axis, color); ``da`` has shape
    (planes, 3, 3, 3, ...) (derivative axis, axis, color).
    """
    term1 = np.zeros(a.shape[:1] + a.shape[3:])
    for i, j, k in _CYCLIC3:
        term1 += _colour_dot(a[:, i], da[:, j, k] - da[:, k, j])
    # eps^{ijk} eps^{abc} A_i^a A_j^b A_k^c = 3! det(A)
    term2 = 6.0 * _det3(a)
    return -(term1 - term2 / 3.0) / (16.0 * np.pi**2)


#: The curvature pairs (i, j), i < j, in the order H_ij is stored.
H_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True, eq=False)
class KnotCharges:
    """The three routes to the knot charge Q of one normalized spinor.

    ``q_spinor``, ``q_trace`` and ``q_fn`` are the integrals of the route
    densities, summed as the sweep computed them.  ``exactness_residual``
    is max |d_i C_j - d_j C_i - H_ij| of the Abelian potential C of the FN
    (Faddeev-Niemi) route, with finite differences on C; it must shrink as
    O(h^2) or the potential choice is inconsistent with the curvature.
    ``parallel`` is the parallel condition b = 0 on the trace route's
    potential, from the :func:`~su2topo.decomposition.slab_maxima` the
    sweep took when asked (``parallel_maxima``), else None; reading it
    raises :class:`ReconstructionError` as
    :func:`~su2topo.decomposition.decompose` does.
    """

    q_spinor: float
    q_trace: float
    q_fn: float
    exactness_residual: float
    parallel_maxima: tuple | None = None

    @cached_property
    def parallel(self) -> Decomposition | None:
        if self.parallel_maxima is None:
            return None
        return Decomposition.from_maxima(self.parallel_maxima)


#: Exactness residuals above this times (h/L)^2 times the scale of dC and H
#: raise.  Correct fields read at most about 101 (q^4 on a 24^3 chart), a
#: Berry potential of the wrong sign about 1150 at 24^3 and 2040 at 32^3.
RESIDUAL_FACTOR = 320.0


def _potentials(samples: np.ndarray, current: np.ndarray) -> tuple:
    """The sweep's kernel: the parallel potential A^a = -2 Im J^a, the
    Abelian potential C = -2 Im J^0 and the curvature pairs
    H_ij = -m . (d_i m x d_j m), d m^a = 2 Re J^a, of one slab of a
    normalized spinor, from its samples and spinor current, all
    component-major."""
    m = sigma_model_field(samples)
    dm = 2.0 * current[:, :, 1:].real
    h_pairs = np.empty(m.shape)
    for idx, (i, j) in enumerate(H_PAIRS):
        h_pairs[:, idx] = -_triple(m, dm[:, i], dm[:, j])
    return (parallel_components(current), np.multiply(current[:, :, 0].imag, -2.0),
            h_pairs)


def chern_simons(psi: SpinorField, *, parallel: bool = False) -> KnotCharges:
    """The spinor, trace and Abelian knot-charge routes of a spinor on a
    rank-3 chart, in one sweep over its unit spinor
    (:func:`~su2topo.fields.normalize`).

    The spinor density uses Psi and its jets only (exact); the trace
    density differentiates the parallel potential A = -2 Im J^a by finite
    differences; the Abelian route reads d_i m^a = 2 Re J_i^a and the
    potential C_i = -2 Im J_i^0.  Raises when the exactness residual of C
    exceeds ``RESIDUAL_FACTOR * (h/L)^2`` times max(max|H|, max|d_i C_j|),
    or is not a number, which would mean the chosen potential does not
    actually generate H.  h/L is the largest spacing over covered length
    of an axis: the residual is the O(h^2) error of the stencils on C, so
    the bound does not depend on the size of the box, and the scale of dC
    keeps it above the stencil error of bare samples where H vanishes.
    Each density is summed slab by slab as it is swept
    (:class:`~su2topo.lattice.Quadrature`) and not kept; a charge that is
    not finite raises :class:`FieldError`.

    With ``parallel``, the sweep also runs the per-slab kernel of
    :func:`~su2topo.decomposition.decompose` on each slab's samples,
    d Psi, current, norms and A, so ``KnotCharges.parallel`` needs no
    second sweep.
    """
    psi = normalize(psi)
    if psi.grid.rank != 3:
        raise FieldError("Chern-Simons densities live on rank-3 charts")
    return _sweep(psi, parallel)


def _sweep(psi: SpinorField, parallel: bool) -> KnotCharges:
    """The one sweep of :func:`chern_simons`: each slab's density of each
    route is fed to that route's :class:`~su2topo.lattice.Quadrature` as
    it is computed, the trace route's a slab behind, and with
    ``parallel`` the :func:`~su2topo.decomposition.slab_maxima` of the
    slabs are folded; raises :class:`ReconstructionError` as
    :func:`chern_simons` describes."""
    grid = psi.grid
    sign = ORIENTATION_SIGN * grid.orientation
    order = 2                       # of the dA and dC stencils
    sums = {route: Quadrature(grid) for route in ("spinor", "trace", "fn")}
    h_of = {}                       # H of the slabs the second pass has not read
    maxima = (0.0,) * 4 if parallel else None

    def first_pass():
        nonlocal maxima
        for slab, samples, dvalues, current in psi.slab_currents():
            sums["spinor"].add(slab, (sign * spinor_cs_values(current[:, :, 0], dvalues)).real)
            gauge, c, h_pairs = _potentials(samples, current)
            sums["fn"].add(slab, fn_pointwise(c, h_pairs) * sign / (8.0 * np.pi**2))
            if parallel:
                maxima = fold_maxima(maxima, slab_maxima(
                    samples, dvalues, current, norm_squared(samples, slab.start), gauge))
            h_of[slab.start] = h_pairs
            del samples, dvalues, current   # not held through the trace pass
            yield slab, (gauge, c)

    # dA and dC read the planes next to each slab: a slab's second pass
    # runs once they are swept, and only those planes are held.  Maxima
    # fold by np.maximum, which keeps a NaN (the builtin max(0.0, nan) is
    # 0.0).
    curl_res = h_max = dc_max = 0.0
    for slab, (gauge, c), (held_a, held_c) in stencil_windows(grid, order, first_pass()):
        sums["trace"].add(slab, sign * trace_cs_values(gauge, derivative_stack(
            gauge, grid, order, slab, held_a, components_first=True, diagonal=False)))
        dc = derivative_stack(c, grid, order, slab, held_c, components_first=True)
        h = h_of.pop(slab.start)
        for idx, (i, j) in enumerate(H_PAIRS):
            curl_res = np.maximum(curl_res, _max_abs(dc[:, i, j] - dc[:, j, i] - h[:, idx]))
        h_max = np.maximum(h_max, _max_abs(h))
        dc_max = np.maximum(dc_max, _max_abs(dc))
    resolution = max((h / grid.axis_extent(i)) ** 2 for i, h in enumerate(grid.spacing))
    if not curl_res <= RESIDUAL_FACTOR * resolution * np.maximum(h_max, dc_max):
        raise ReconstructionError(
            f"Abelian potential is not a potential for H: residual {curl_res:.3e}")
    return KnotCharges(sums["spinor"].total(), sums["trace"].total(), sums["fn"].total(),
                       float(curl_res), maxima)


def fn_pointwise(c: np.ndarray, h: np.ndarray) -> np.ndarray:
    """(1/4) eps_{ijk} C_i H_jk of the potential ``c`` and curvature pairs
    ``h``, component-major ``(planes, 3, ...)``: the Abelian side of the
    integrand identity.

    With H stored as the pairs (H_01, H_02, H_12), the contraction is
    2 (C_0 H_12 - C_1 H_02 + C_2 H_01).
    """
    return 0.5 * (c[:, 0] * h[:, 2] - c[:, 1] * h[:, 1] + c[:, 2] * h[:, 0])


def trace_pointwise(gauge: GaugeField) -> np.ndarray:
    """eps_{ijk} Tr(A_i d_j A_k - 2/3 A_i A_j A_k), the non-Abelian side, of
    a gauge field that stores its samples: dA is its stored jet, else the
    second-order differences of its samples."""
    da = derivative_stack(gauge.values, gauge.grid) if gauge.jet is None else gauge.jet
    a, da = (component_major(block, 3) for block in (gauge.values, da))
    return 8.0 * np.pi**2 * trace_cs_values(a, da)
