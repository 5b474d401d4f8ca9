"""Field containers and representation conversions.

A spinor sample Psi = (Psi1, Psi2) is equivalent to four real components
(phi0, phi1, phi2, phi3) via Psi1 = phi0 + i phi1, Psi2 = phi2 + i phi3.
The unit spinor Psi/|Psi| is therefore the unit 4-vector n = phi/|phi|:
a normalized :class:`SpinorField` is the unit field, its real view is n,
and its bilinear m_a = Psi^dag sigma_a Psi is the unit 3-vector.  Every
container here is one of the FLD file kinds.

Every container optionally carries a "jet": exact first-derivative samples,
one per grid axis per site (a generator-built phi field computes its jet
from its analytic sampler instead of storing one).  Identities that are
algebraic in a field and its first derivatives are then testable at
machine epsilon instead of hiding behind O(h^2) discretization error.  Fields are immutable after
construction and safe to share across workers.  A constructor adopts an
array that nothing can write any more (read-only, aligned, no writable
base) and copies any other, so the conversions here hand over the fresh
arrays they build as :func:`~su2topo.lattice.read_only`, and views of a
field's own arrays, without a second copy of the grid.

The spinor current is not stored: :meth:`SpinorField.current` computes it
for one axis-0 slab (:func:`~su2topo.lattice.slabs`) when asked, so only a
slab of it, and of finite differences for bare samples, exists at once;
every entry equals the whole-grid evaluation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import su2_algebra
from .errors import FieldError, NormalizationError
from .lattice import Grid, LatticeField, read_only, slabs

#: Largest deviation of |Psi|^2 from 1 at which a spinor counts as normalized.
NORM_TOL = 1e-10
#: Norms below this mark a zero of the field (see :func:`normalize`).
EPS_ZERO = 1e-12
#: Largest imaginary residue of m_a = Psi^dag sigma_a Psi accepted.
IMAG_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpinorField(LatticeField):
    """Two complex components per site, optionally with exact jets."""

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None

    DTYPE = np.complex128
    COMPONENTS = (2,)
    FLD_KIND = 1
    LABEL = "spinor"

    @cached_property
    def normalized(self) -> bool:
        """Whether every |Psi|^2 is 1 to ``NORM_TOL``, read from the samples."""
        return bool(np.max(np.abs(norm_squared(self) - 1.0)) <= NORM_TOL)

    def current(self, slab: slice = slice(None),
                dvalues: np.ndarray | None = None) -> np.ndarray:
        """The spinor current J_mu^A = Psi^dag sigma_A d_mu Psi, sigma_0 = 1,
        on the planes ``slab`` of axis 0.

        Shape ``(*slab_shape, rank, 4)``, a new array computed from
        ``dvalues``, the slab's :meth:`derivatives` (taken here when not
        given), on every call and not kept with the field, so callers ask
        for it one slab at a time.  A caller that reads d Psi itself passes
        it in, so bare samples are differenced once per slab.  Every rank-3
        route reads its Psi-dPsi bilinears from it: the parallel potential
        ``-2 Im J^a``, the sigma-model gradient ``d m^a = 2 Re J^a``
        (normalized Psi), the Berry potential ``-2 Im J^0`` and the spinor
        Chern-Simons factor ``J^0``.
        """
        if dvalues is None:
            dvalues = self.derivatives(slab=slab)
        return su2_algebra.spinor_current(self.values[slab][..., None, :], dvalues)


@dataclass(frozen=True, eq=False)
class PhiField(LatticeField):
    """Four real components per site; the raw (unnormalized) 4-vector field.

    Generator-built fields may attach an analytic ``sampler``: it maps
    points ``(n, rank)`` to ``(values, jacobians)`` of shapes ``(n, 4)``
    and ``(n, rank, 4)``, the derivative axis first as in ``jet``; called
    with ``jet=False`` it may skip the jacobians and return None for them.
    The sampler sharpens off-lattice evaluation (zero refinement and sphere
    sampling) and, when no jet is stored, is the field's exact jet: such a
    field is not bare input, and neither :meth:`exact_jet` nor
    :func:`face_restrict` ever falls back to stencils for it.

    ``block_jet`` maps a block (an axis-0 slice, or a tuple of per-axis
    slices) to the exact jet of its sites when no jet is stored.  A
    sampler's block jet is its jacobians at the block's points, and is set
    from the sampler unless given; a field read from an FLD file gets one
    that reads the block from the file (:func:`~su2topo.fldio.read_field`).
    """

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None
    sampler: object = field(default=None, repr=False, compare=False)
    block_jet: object = field(default=None, repr=False, compare=False)

    COMPONENTS = (4,)
    FLD_KIND = 2
    LABEL = "phi"

    def __post_init__(self):
        super().__post_init__()
        if self.block_jet is None and self.sampler is not None:
            object.__setattr__(self, "block_jet", _sampled_jet(self.grid, self.sampler))

    def exact_jet(self, slab: slice | tuple = slice(None)) -> np.ndarray | None:
        """The stored jet, else the block jet, else None, on the planes
        ``slab`` of axis 0 (or a block of per-axis slices).

        ``block_jet`` is asked for that block only; the whole grid's jet
        is filled into one new ``(*shape, rank, 4)`` array an axis-0 slab
        (:func:`~su2topo.lattice.slabs`) at a time, one call per slab, so
        no whole-grid temporaries are built.  A block jet is not kept with
        the field.
        """
        if self.jet is not None or self.block_jet is None:
            return super().exact_jet(slab)
        if slab != slice(None):
            return self.block_jet(slab)
        grid = self.grid
        out = np.empty(grid.shape + (grid.rank, 4))
        for part in slabs(grid):
            out[part] = self.block_jet(part)
        return out


def _sampled_jet(grid: Grid, sampler):
    """The block jet of ``sampler``: its jacobians at the block's points."""
    def block_jet(block):
        points = grid.points(block)
        return np.reshape(sampler(points.reshape(-1, grid.rank))[1], points.shape + (4,))
    return block_jet


@dataclass(frozen=True, eq=False)
class GaugeField(LatticeField):
    """Real components A[mu][a] per site; matrix form A_mu^a sigma_a/(2i).

    The optional jet stores exact derivative samples d_nu A_mu^a with
    shape ``(*shape, rank, rank, 3)`` (derivative axis first).
    """

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None

    FLD_KIND = 3
    LABEL = "gauge field"

    @classmethod
    def component_shape(cls, rank: int) -> tuple:
        return (rank, 3)

    def matrices(self) -> np.ndarray:
        """Anti-Hermitian traceless matrices, shape (*shape, rank, 2, 2)."""
        return su2_algebra.matrix_from_components(self.values)


@dataclass(frozen=True, eq=False)
class SU2Field(LatticeField):
    """One SU(2) matrix per site.

    ``jet2`` optionally stores exact symmetric second derivatives
    ``(*shape, rank, rank, 2, 2)``; it is needed only where a product of
    transformed fields must itself carry an exact jet.
    """

    grid: Grid
    values: np.ndarray
    jet: np.ndarray | None = None
    jet2: np.ndarray | None = None

    DTYPE = np.complex128
    COMPONENTS = (2, 2)
    FLD_KIND = 4
    LABEL = "su2 field"

    def _check_values(self):
        if not su2_algebra.is_su2(self.values):
            raise FieldError("su2 field entries violate S^dag S = I, det S = 1")

    def __post_init__(self):
        super().__post_init__()
        if self.jet2 is not None:
            rank = self.grid.rank
            self._freeze("jet2", self.grid.shape + (rank, rank, 2, 2))


def norm_squared(psi: SpinorField, slab: slice = slice(None)) -> np.ndarray:
    """Pointwise Psi^dag Psi (real, equals phi_a phi_a) on the planes
    ``slab`` of axis 0."""
    return np.sum(np.abs(psi.values[slab]) ** 2, axis=-1)


def _check_nonvanishing(norms: np.ndarray, name: str) -> None:
    """Raise :class:`NormalizationError` at the smallest norm below ``EPS_ZERO``."""
    if np.min(norms) < EPS_ZERO:
        site = tuple(map(int, np.unravel_index(int(np.argmin(norms)), norms.shape)))
        raise NormalizationError(
            f"{name} norm {float(norms[site]):.3e} < {EPS_ZERO:.1e} at site {site}",
            site=site)


def normalize(psi: SpinorField) -> SpinorField:
    """Rescale to unit norm, transporting the jet by the quotient rule.

    Raises :class:`NormalizationError` with the offending site when the
    norm drops below ``EPS_ZERO``: a vanishing spinor marks a zero of the
    4-vector field, which carries topological charge and must be excluded
    or re-gridded by the caller, never clamped.
    """
    norms = np.sqrt(norm_squared(psi))
    _check_nonvanishing(norms, "spinor")
    values = read_only(psi.values / norms[..., None])
    jet = None
    if psi.jet is not None:
        dnorm = np.einsum("...c,...mc->...m", np.conj(psi.values), psi.jet).real / norms[..., None]
        jet = read_only(psi.jet / norms[..., None, None]
                        - psi.values[..., None, :] * (dnorm / norms[..., None] ** 2)[..., None])
    return SpinorField(psi.grid, values, jet=jet)


def spinor_to_phi(psi: SpinorField) -> PhiField:
    """Real 4-vector components (Re Psi1, Im Psi1, Re Psi2, Im Psi2).

    That is the memory layout of the complex pair, so both conversions
    reinterpret the samples and are exact; the new field adopts the
    read-only views and shares the samples.
    """
    jet = None if psi.jet is None else psi.jet.view(np.float64)
    return PhiField(psi.grid, psi.values.view(np.float64), jet=jet)


def phi_to_spinor(phi: PhiField) -> SpinorField:
    """Exact inverse of :func:`spinor_to_phi`; the spinor keeps phi's exact
    jet, a generator-built field's sampled one included."""
    jet = phi.exact_jet()
    jet = None if jet is None else read_only(jet).view(np.complex128)
    return SpinorField(phi.grid, phi.values.view(np.complex128), jet=jet)


def sigma_model_field(psi: SpinorField, slab: slice = slice(None)) -> np.ndarray:
    """m_a = Psi^dag sigma_a Psi of a normalized spinor, shape ``(*shape, 3)``.

    |m| = |Psi|^2 = 1 site by site.  The imaginary residue of the bilinear
    is a data-corruption indicator and raises above ``IMAG_TOL``.  Only
    the planes ``slab`` of axis 0 are computed.
    """
    if not psi.normalized:
        raise FieldError("sigma-model projection requires a normalized spinor")
    values = psi.values[slab]
    m = su2_algebra.sigma_bilinear(values, values)
    residue = float(np.max(np.abs(m.imag)))
    if residue > IMAG_TOL:
        raise FieldError(f"m field imaginary residue {residue:.3e} > {IMAG_TOL:.1e}")
    return m.real


def su2_product(s2: SU2Field, s1: SU2Field) -> SU2Field:
    """Pointwise product S2 S1 with product-rule jets."""
    values = s2.values @ s1.values
    jet = None
    if s2.jet is not None and s1.jet is not None:
        jet = s2.jet @ s1.values[..., None, :, :] + s2.values[..., None, :, :] @ s1.jet
    return SU2Field(s2.grid, values, jet=jet)


def su2_dagger(s: SU2Field) -> SU2Field:
    """Pointwise Hermitian conjugate with conjugated jets."""
    dag = np.conj(np.swapaxes(s.values, -1, -2))
    jet = None if s.jet is None else np.conj(np.swapaxes(s.jet, -1, -2))
    jet2 = None if s.jet2 is None else np.conj(np.swapaxes(s.jet2, -1, -2))
    return SU2Field(s.grid, dag, jet=jet, jet2=jet2)


def gauge_transform(psi: SpinorField, gauge: GaugeField, s: SU2Field):
    """Apply Psi -> S Psi, A -> S A S^dag + (dS) S^dag.

    The transformed matrices are re-projected to exact anti-Hermitian
    traceless form; the projection residual is returned and stays below
    1e-10 when S carries an exact jet.  When both the gauge field jet and
    the second-derivative samples of S are available, the transformed
    gauge field carries an exact jet as well.

    Returns ``(psi', gauge', projection_residual)``.
    """
    if psi.grid is not s.grid and psi.grid != s.grid:
        raise FieldError("spinor and transformation grids differ")
    ds = s.derivatives()
    sdag = np.conj(np.swapaxes(s.values, -1, -2))

    new_values = np.einsum("...ij,...j->...i", s.values, psi.values)
    new_jet = None
    if psi.jet is not None:
        new_jet = (np.einsum("...mij,...j->...mi", ds, psi.values)
                   + np.einsum("...ij,...mj->...mi", s.values, psi.jet))
    psi_out = SpinorField(psi.grid, new_values, jet=new_jet)

    amat = gauge.matrices()
    transformed = (s.values[..., None, :, :] @ amat @ sdag[..., None, :, :]
                   + ds @ sdag[..., None, :, :])
    projected, residual = su2_algebra.project_anti_hermitian_traceless(transformed)
    comps, _ = su2_algebra.components_from_matrix(projected)

    new_gjet = None
    if gauge.jet is not None and s.jet is not None and s.jet2 is not None:
        da = su2_algebra.matrix_from_components(gauge.jet)  # (*s, n, m, 2, 2)
        dsdag = np.conj(np.swapaxes(s.jet, -1, -2))
        s_b = s.values[..., None, None, :, :]
        sd_b = sdag[..., None, None, :, :]
        ds_n = ds[..., :, None, :, :]        # derivative axis n
        ds_m = ds[..., None, :, :, :]        # gauge axis m
        dsd_n = dsdag[..., :, None, :, :]
        a_b = amat[..., None, :, :, :]
        dmat = (ds_n @ a_b @ sd_b + s_b @ da @ sd_b + s_b @ a_b @ dsd_n
                + s.jet2 @ sd_b + ds_m @ dsd_n)
        dproj, _ = su2_algebra.project_anti_hermitian_traceless(dmat)
        new_gjet, _ = su2_algebra.components_from_matrix(dproj)

    gauge_out = GaugeField(gauge.grid, comps, jet=new_gjet)
    return psi_out, gauge_out, residual


def pure_gauge_potential(s: SU2Field) -> GaugeField:
    """The flat potential (dS) S^dag of a transformation field."""
    ds = s.derivatives()
    sdag = np.conj(np.swapaxes(s.values, -1, -2))
    matrices = ds @ sdag[..., None, :, :]
    projected, _ = su2_algebra.project_anti_hermitian_traceless(matrices)
    comps, _ = su2_algebra.components_from_matrix(projected)
    return GaugeField(s.grid, comps)


def face_restrict(field: LatticeField, axis: int, side: int) -> LatticeField:
    """Restrict a rank-4 field to one boundary face of an open axis.

    ``side`` is 0 for the low face, 1 for the high face.  The face's jet is
    :meth:`~LatticeField.exact_jet` of its one-plane slice, so a sampler is
    evaluated on the face's sites only; it keeps the in-face derivative
    components.  A component axis that runs over the grid axes (a gauge
    field's A_mu) keeps its in-face entries too, in the values and the jet.
    Faces of vertex-centered grids lie exactly on the domain boundary, as
    boundary-flux sums require.  The face is a field of the same kind built
    from its samples and jet, so a phi field's sampler is dropped.
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
    jet = field.exact_jet(face)
    if jet is not None:
        jet = jet.squeeze(axis)[(slice(None),) * (grid.rank - 1) + (keep,)][comps]
    return type(field).from_samples(grid.drop_axis(axis),
                                    field.values[face].squeeze(axis)[comps], jet)
