"""Field containers and representation conversions.

A spinor sample Psi = (Psi1, Psi2) is equivalent to four real components
(phi0, phi1, phi2, phi3) via Psi1 = phi0 + i phi1, Psi2 = phi2 + i phi3.
The unit spinor Psi/|Psi| is therefore the unit 4-vector n = phi/|phi|:
a normalized :class:`SpinorField` is the unit field, its real view is n,
and its bilinear m_a = Psi^dag sigma_a Psi is the unit 3-vector.  Every
container here is one of the FLD file kinds.

Every container may carry a "jet": exact first-derivative samples, one
per grid axis per site, stored or computed block by block when asked
(``block_jet``, see :meth:`~su2topo.lattice.LatticeField.exact_jet`): a
box field's from the map's jet kernel, a chart field's from the chart
formula, a file's from its planes.  Code here reads jets through ``exact_jet``; the conversions
hand a block jet on, and :func:`normalize` and :func:`face_restrict` serve
theirs block by block from the input's, so no whole jet is stored.
Identities algebraic in a field and its first derivatives are then
testable at machine epsilon instead of hiding behind O(h^2)
discretization error.  Fields are immutable after construction.  A
constructor adopts an array that nothing can write any more (read-only,
aligned, no writable base) and copies any other, so the conversions here
hand over views of a field's own arrays without a second copy of the
grid.

A field may store no samples either: a box or chart field serves each
block's from its formula
(:meth:`~su2topo.lattice.LatticeField.values_at`), :func:`normalize`
serves each block's from the input's, and the conversions hand that on.
:meth:`SpinorField.slab_currents` and the one check of :func:`normalize`
(zero, overflow and unit norms) read the samples one axis-0 slab
(:func:`~su2topo.lattice.slabs`) at a time; nothing here reads them
whole.

The kernels here (:func:`norm_squared`, :func:`sigma_model_field` and the
spinor current of :meth:`SpinorField.slab_currents`) take one slab's
arrays and read no field, so only a slab of the current, and of finite
differences for bare samples, exists at once; every entry equals the
whole-grid evaluation bit for bit.  Like every per-slab kernel they are
component-major (:func:`~su2topo.lattice.component_major`): the
components follow axis 0 and the sites of a plane come last, and
:meth:`SpinorField.slab_currents` transposes each slab's samples and
d Psi once, on entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import su2_algebra
from .errors import FieldError, NormalizationError
from .lattice import Grid, LatticeField, component_major, site_major, slabs

#: Largest deviation of |Psi|^2 from 1 at which a spinor counts as normalized.
NORM_TOL = 1e-10
#: Norms below this mark a zero of the field (see :func:`normalize`).
EPS_ZERO = 1e-12
#: Largest imaginary residue of m_a = Psi^dag sigma_a Psi accepted.
IMAG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpinorField(LatticeField):
    """Two complex components per site, optionally with exact jets.

    The jet is stored, or computed block by block when asked
    (``block_jet``): a chart generator's comes from the chart formula, a
    file's is read from the file, and :func:`phi_to_spinor` hands on a phi
    field's block jet as a complex view.  The samples are stored too, or
    served block by block (``block_values``, a field built with
    ``values=None``): :func:`phi_to_spinor` hands on a chart field's.  The
    rank-3 routes and the decomposition take each slab's samples, d Psi
    and current from :meth:`slab_currents` and pass them to their kernels.
    """

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None
    block_jet: object = field(default=None, repr=False, compare=False)
    block_values: object = field(default=None, repr=False, compare=False)

    DTYPE = np.complex128
    COMPONENTS = (2,)
    FLD_KIND = 1
    LABEL = "spinor"

    def slab_currents(self):
        """Yield ``(slab, samples, dvalues, current)`` for each axis-0 slab
        (:func:`~su2topo.lattice.slabs`), all component-major: the slab's
        samples and derivatives, taken once
        (:meth:`~su2topo.lattice.LatticeField.slab_samples`, which reads
        bare samples once a slab) and transposed once, and the spinor
        current computed from them (:func:`_slab_current`).  The tuple is
        built by that helper, so the suspended generator holds no slab
        array and a sweep that drops a slab's arrays frees them."""
        rank = self.grid.rank
        for slab in slabs(self.grid):
            yield _slab_current(slab, *(component_major(block, rank)
                                        for block in self.slab_samples(slab)))


def _slab_current(slab: slice, samples: np.ndarray, dvalues: np.ndarray) -> tuple:
    """``(slab, samples, dvalues, current)``: the spinor current
    J_mu^A = Psi^dag sigma_A d_mu Psi, sigma_0 = 1, of one slab's
    component-major ``samples`` ``(planes, 2, ...)`` and d Psi ``dvalues``
    ``(planes, rank, 2, ...)``, shape ``(planes, rank, 4, ...)``.

    J is a new array on every call and not kept with the field.  Every
    rank-3 route reads its Psi-dPsi bilinears from it: the parallel
    potential ``-2 Im J^a``, the sigma-model gradient ``d m^a = 2 Re J^a``
    (normalized Psi), the Berry potential ``-2 Im J^0`` and the spinor
    Chern-Simons factor ``J^0``.
    """
    current = np.empty(dvalues.shape[:2] + (4,) + dvalues.shape[3:], dtype=np.complex128)
    # one call for every axis: the derivative axis is moved behind the
    # component axis, where Psi broadcasts over it
    su2_algebra.spinor_current(samples[:, :, None], dvalues.swapaxes(1, 2),
                               current.swapaxes(1, 2))
    return slab, samples, dvalues, current


@dataclass(frozen=True, eq=False)
class PhiField(LatticeField):
    """Four real components per site; the raw (unnormalized) 4-vector field.

    Generator-built fields may attach an analytic ``sampler``: it maps
    points ``(n, rank)`` to ``(values, jacobians)`` of shapes ``(n, 4)``
    and ``(n, rank, 4)``, the derivative axis first as in ``jet``.  The
    sampler only evaluates points off the lattice (zero refinement); it is
    not a jet source, so a field with a sampler and no jet has lattice
    derivatives from stencils.

    ``block_jet`` maps a block (an axis-0 slice, or a tuple of per-axis
    slices) to the exact jet of its sites when no jet is stored.  A box
    generator's runs the map's jet kernel on the block's axis coordinates,
    a rank-3 chart generator's evaluates the chart formula on the block,
    and a field read from an FLD file gets one that reads the block from
    the file (:func:`~su2topo.fldio.read_field`).

    ``block_values`` maps a block to its samples in the same way, for a
    field built with ``values=None``: a box generator's computes them from
    the block's axis coordinates and a rank-3 chart generator's from the
    chart formula, so the field stores no samples at all and
    :meth:`~su2topo.lattice.LatticeField.values_at` serves each block; a
    field read from an FLD file reads each block from the file.  Random
    fields store their values.
    """

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None
    sampler: object = field(default=None, repr=False, compare=False)
    block_jet: object = field(default=None, repr=False, compare=False)
    block_values: object = field(default=None, repr=False, compare=False)

    COMPONENTS = (4,)
    FLD_KIND = 2
    LABEL = "phi"


@dataclass(frozen=True, eq=False)
class GaugeField(LatticeField):
    """Real components A[mu][a] per site; matrix form A_mu^a sigma_a/(2i).

    The optional jet stores exact derivative samples d_nu A_mu^a with
    shape ``(*shape, rank, rank, 3)`` (derivative axis first).  A field
    read from an FLD file stores neither: ``block_jet`` and
    ``block_values`` read each block from the file.
    """

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None
    block_jet: object = field(default=None, repr=False, compare=False)
    block_values: object = field(default=None, repr=False, compare=False)

    FLD_KIND = 3
    LABEL = "gauge field"

    @classmethod
    def component_shape(cls, rank: int) -> tuple:
        return (rank, 3)


def norm_squared(samples: np.ndarray, first: int) -> np.ndarray:
    """Pointwise Psi^dag Psi (real, equals phi_a phi_a) of a slab's
    component-major spinor ``samples`` ``(planes, 2, ...)``, whose axis 0
    starts at plane ``first``: |Psi_1|^2 + |Psi_2|^2 of the two component
    planes, bit for bit numpy's sum over a trailing component axis.  A
    norm that overflows raises :class:`FieldError` naming its site."""
    with np.errstate(over="ignore"):
        norms = np.abs(samples[:, 0]) ** 2
        norms += np.abs(samples[:, 1]) ** 2
    _finite_max(norms, SpinorField.LABEL, first)
    return norms


def _norms(block: np.ndarray) -> np.ndarray:
    """|phi| at the sites of the component-major ``block`` ``(planes, 4,
    ...)``: sqrt(((x0^2 + x1^2) + x2^2) + x3^2) over the component planes,
    the order of ``np.linalg.norm`` over a trailing component axis."""
    with np.errstate(over="ignore"):
        return np.sqrt(block[:, 0] * block[:, 0] + block[:, 1] * block[:, 1]
                       + block[:, 2] * block[:, 2] + block[:, 3] * block[:, 3])


def _max_abs(x: np.ndarray) -> float:
    """max|x| of a real array, as max(max x, -min x), which makes no
    temporary: exact, and a NaN survives."""
    return abs(float(np.maximum(np.max(x), -np.min(x))))


def _finite_max(norms: np.ndarray, name: str, first: int = 0) -> float:
    """The largest of per-site ``norms``, whose axis 0 starts at plane
    ``first``.  A norm that is not finite, of samples too large to square,
    raises :class:`FieldError` naming its site."""
    top = float(np.max(norms))
    if not np.isfinite(top):
        site = np.unravel_index(int(np.argmin(np.isfinite(norms))), norms.shape)
        site = (first + int(site[0]),) + tuple(map(int, site[1:]))
        raise FieldError(f"{name} norm overflows at site {site}: its samples are too "
                         "large to square")
    return top


def _check_nonvanishing(psi: SpinorField, start: int) -> float:
    """Raise :class:`NormalizationError` at the first smallest norm |Psi| of
    the axis-0 slabs (:func:`~su2topo.lattice.slabs`) from the one that
    starts at plane ``start`` on, read one at a time, when it is below
    ``EPS_ZERO``; else return the largest deviation of |Psi|^2 from 1 in
    those slabs, exact in any order.  A caller that found no such norm
    before ``start`` names the grid's smallest."""
    least, site, worst = np.inf, None, 0.0
    for slab in slabs(psi.grid):
        if slab.start >= start:
            squares = norm_squared(np.moveaxis(psi.values_at(slab), -1, 1), slab.start)
            worst = max(worst, _max_abs(squares - 1.0))
            norms = np.sqrt(squares)
            index = np.unravel_index(int(np.argmin(norms)), norms.shape)
            if norms[index] < least:
                least = float(norms[index])
                site = (slab.start + int(index[0]),) + tuple(map(int, index[1:]))
    if least < EPS_ZERO:
        raise NormalizationError(
            f"spinor norm {least:.3e} < {EPS_ZERO:.1e} at site {site}", site=site)
    return worst


def normalize(psi: SpinorField) -> SpinorField:
    """The unit spinor Psi/|Psi|, its jet transported by the quotient rule,
    for every route that needs one: ``psi`` itself if every |Psi|^2 is 1
    to ``NORM_TOL``.  Else both are pointwise, and the result stores
    nothing: it serves its samples block by block (``block_values``), each
    block ``psi.values_at`` of that block over its own norms, and, for a
    spinor with a jet, stored or computed block by block, its jet the same
    way (``block_jet``) from ``psi.exact_jet`` of that block.  Each equals
    the whole-grid rule bit for bit.  Bare samples give a bare result.
    The jet's blocks are computed component-major
    (:func:`~su2topo.lattice.component_major`): the samples
    ``(planes, 2, ...)`` and the jet ``(planes, rank, 2, ...)``, so every
    operation runs over a plane's sites instead of component axes of
    length 2 and 3, with Psi^dag d Psi summed in the order of ``np.einsum``
    over a trailing component axis; the block jet is served as a
    site-major view (:func:`~su2topo.lattice.site_major`) of the
    component-major result.

    One sweep of the slabs (:func:`_check_nonvanishing`) decides, and
    raises :class:`NormalizationError` with the offending site when the
    norm drops below ``EPS_ZERO`` and :class:`FieldError` where a norm
    overflows: a vanishing spinor marks a zero of the 4-vector field,
    which carries topological charge and must be excluded or re-gridded
    by the caller, never clamped.
    """
    if _check_nonvanishing(psi, 0) <= NORM_TOL:
        return psi

    # the sweep found no norm that overflows, so no block's norm_squared
    # names a site
    def unit(block):
        samples = psi.values_at(block)
        return samples / np.sqrt(norm_squared(np.moveaxis(samples, -1, 1), 0))[..., None]

    def quotient(block):
        rank = psi.grid.rank
        samples, jet = (component_major(x, rank)
                        for x in (psi.values_at(block), psi.exact_jet(block)))
        norm = np.sqrt(norm_squared(samples, 0))[:, None]
        sr, si, jr, ji = samples.real, samples.imag, jet.real, jet.imag
        # Re sum_c conj(Psi_c) d_m Psi_c, in the order of numpy's einsum
        # over a trailing c, its zero start included
        dnorm = ((0.0 + (sr[:, None, 0] * jr[:, :, 0] + si[:, None, 0] * ji[:, :, 0]))
                 + (sr[:, None, 1] * jr[:, :, 1] + si[:, None, 1] * ji[:, :, 1])) / norm
        out = jet / norm[:, None]
        del jet, jr, ji             # not held while the second term is built
        out -= samples[:, None] * (dnorm / norm ** 2)[:, :, None]
        return site_major(out, rank)

    bare = psi.jet is None and psi.block_jet is None
    return SpinorField(psi.grid, None, block_values=unit,
                       block_jet=None if bare else quotient)


def _reinterpret(field: LatticeField, kind, dtype) -> LatticeField:
    """The field of ``kind`` whose samples and jet, stored or block by
    block, are ``dtype`` views of those of ``field``.  A block that is not
    contiguous (a box generator's site-major view may not be) is copied
    first."""
    def per_block(compute):
        return None if compute is None else (
            lambda block: np.ascontiguousarray(compute(block)).view(dtype))

    values = None if field.values is None else field.values.view(dtype)
    jet = None if field.jet is None else field.jet.view(dtype)
    return kind(field.grid, values, jet=jet, block_jet=per_block(field.block_jet),
                block_values=per_block(field.block_values))


def spinor_to_phi(psi: SpinorField) -> PhiField:
    """Real 4-vector components (Re Psi1, Im Psi1, Re Psi2, Im Psi2).

    That is the memory layout of the complex pair, so both conversions
    reinterpret the samples and the jet and are exact; the new field
    adopts the read-only views and shares the samples, and a block jet or
    served samples are handed on as a view of each block.
    """
    return _reinterpret(psi, PhiField, np.float64)


def phi_to_spinor(phi: PhiField) -> SpinorField:
    """Exact inverse of :func:`spinor_to_phi`; the spinor keeps phi's exact
    jet, stored or block by block (a box, chart or file one), and its
    samples, stored or served (a box or chart generator's)."""
    return _reinterpret(phi, SpinorField, np.complex128)


def sigma_model_field(samples: np.ndarray) -> np.ndarray:
    """m_a = Psi^dag sigma_a Psi of a slab's component-major spinor
    ``samples`` ``(planes, 2, ...)`` (:func:`~su2topo.lattice.component_major`),
    shape ``(planes, 3, ...)``.

    |m| = |Psi|^2, so m is the unit vector of a normalized spinor, which
    the caller checks.  The imaginary residue of the bilinear is a
    data-corruption indicator and raises above ``IMAG_TOL``.
    """
    m = su2_algebra.sigma_bilinear(samples, samples)
    residue = _max_abs(m.imag)
    if residue > IMAG_TOL:
        raise FieldError(f"m field imaginary residue {residue:.3e} > {IMAG_TOL:.1e}")
    return m.real


def face_restrict(field: LatticeField, axis: int, side: int) -> LatticeField:
    """Restrict a rank-4 field to one boundary face of an open axis.

    ``side`` is 0 for the low face, 1 for the high face.  The face's values
    are :meth:`~LatticeField.values_at` of its one-plane block, so a field
    that computes its samples computes the face's only.  Its jet keeps the
    in-face derivative components and is served block by block
    (``block_jet``) whenever the field has a jet, stored or served: each
    block of the face is read as ``exact_jet`` of the field on that block,
    so the face's jet is never whole; bare samples give a bare face.  A
    component axis that runs over the grid axes (a gauge field's A_mu)
    keeps its in-face entries too, in the values and the jet.  Faces of vertex-centered grids lie exactly on the domain
    boundary, as boundary-flux sums require.  The face is a field of the
    same kind, so a phi field's sampler is dropped.
    """
    grid = field.grid
    if grid.periodic[axis]:
        raise FieldError("boundary faces exist only on open axes")
    index = 0 if side == 0 else grid.shape[axis] - 1
    face = (slice(None),) * axis + (slice(index, index + 1),)
    keep = [i for i in range(grid.rank) if i != axis]
    # component axes whose length follows the rank are indexed by grid axes
    comps = (Ellipsis,) + tuple(
        keep if n != m else slice(None)
        for n, m in zip(field.component_shape(grid.rank),
                        field.component_shape(grid.rank - 1)))

    fgrid = grid.drop_axis(axis)
    values = field.values_at(face).squeeze(axis)[comps]
    if field.jet is None and field.block_jet is None:
        return type(field)(fgrid, values)

    def block_jet(block):
        parts = ((block if isinstance(block, tuple) else (block,))
                 + (slice(None),) * grid.rank)[:grid.rank - 1]
        jet = field.exact_jet(parts[:axis] + (face[axis],) + parts[axis:])
        return jet.squeeze(axis)[(slice(None),) * (grid.rank - 1) + (keep,)][comps]
    return type(field)(fgrid, values, block_jet=block_jet)
