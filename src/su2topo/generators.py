"""Analytic test configurations with exact jets.

Every generator gives exact first derivatives so that ground-truth charges
never depend on finite-difference error; discretization studies and
correctness tests stay decoupled.  Quaternion-valued maps double as
degree-n references: q^n has boundary degree n (negative powers go through
the conjugate, q^-1 = conj(q) on unit quaternions), and products
prod_j (q - c_j) plant zeros at chosen roots.

4-vector fields on a box store nothing: the values of a block are the map
at that block's points, computed when the block is read
(:meth:`~su2topo.lattice.LatticeField.values_at`), and an analytic sampler
gives values and jets anywhere.  The zero search uses it for
machine-precision root refinement, and every exact jet of the field comes
from it (:meth:`~su2topo.lattice.LatticeField.exact_jet`): the zero screen
reads the values one slab at a time, the boundary flux reads values and
jets on the 8 faces slab by slab, and a file write reads both slab by
slab.
Fields on the rank-3 chart store nothing either: the sin and cos of the
chart coordinates are taken once, and the values and the exact jet of a
block are the chart formula on that block, computed when the block is
read and equal to the whole chart's bit for bit.  The random fields store
their values and jets.  Every generator hands its fresh
arrays to the field read-only, so the field adopts them without a copy.

On a box, q is the point itself, so d_mu q = e_mu: the product-rule terms
e_mu s and p e_mu of the jets are signed permutations of the components of
s and p, and no identity jet is materialised.  ``qmul`` is written component
by component in the operation order of the vector form; the rank-3 chart
computes its exact chart jets per block with the generic product rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .fields import GaugeField, PhiField, SpinorField, phi_to_spinor
from .lattice import Grid, read_only


# --------------------------------------------------------------------------
# quaternion arithmetic on (..., 4) arrays
# --------------------------------------------------------------------------

def qmul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays.

    Written component by component in the operation order of the vector
    form p0 q0 - p.q, p0 q + q0 p + p x q, so the result is bit-identical
    to it; the ``+ 0.0`` turns a -0.0 dot product into +0.0, as ``np.sum``
    does.
    """
    p0, p1, p2, p3 = (p[..., a] for a in range(4))
    q0, q1, q2, q3 = (q[..., a] for a in range(4))
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = p0 * q0 - (p1 * q1 + p2 * q2 + p3 * q3 + 0.0)
    out[..., 1] = p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2)
    out[..., 2] = p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3)
    out[..., 3] = p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1)
    return out


def qconj(q: np.ndarray) -> np.ndarray:
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


# Products with the basis units e_mu = 1, i, j, k are signed permutations:
# (e_mu p)[a] = LEFT[mu, a] p[PERM[mu, a]] and (p e_mu)[a] = RIGHT[mu, a]
# p[PERM[mu, a]].  A sign flip is exact, so they equal qmul with a unit
# operand entry for entry; only an entry that is exactly zero may differ
# from it, in the sign of the zero.
_UNIT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_UNIT_LEFT = np.array([[1.0, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]])
_UNIT_RIGHT = np.array([[1.0, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]])


def _unit_products(p: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Stack (..., 4, 4) of signed unit products of p, unit axis at -2."""
    out = p[..., _UNIT_PERM]
    out *= signs
    return out


def _qpower_values(q: np.ndarray, n: int) -> np.ndarray:
    """q^n; the value half of :func:`_qpower_with_jet`, operation for operation."""
    if n < 0:
        q = qconj(q)
        n = -n
    value = q
    for _ in range(n - 1):
        value = qmul(q, value)
    return value


def _qpower_with_jet(q: np.ndarray, dq: np.ndarray | None, n: int):
    """q^n with product-rule jets; dq has the derivative axis at -2.

    ``dq=None`` is the box, where q is the point itself and d_mu q = e_mu
    at every point (conj(e_mu) = -e_mu for mu > 0 once n < 0): the terms
    dq q^k and q dq are then signed unit products.
    """
    box = dq is None
    if box:
        dq = np.eye(4)
    if n < 0:
        q = qconj(q)
        dq = qconj(dq)
        n = -n
    # on the box, d_mu q = signs[mu] e_mu
    signs = np.diagonal(dq)[:, None] if box else None
    value = q
    jet = None if box else dq
    for _ in range(n - 1):
        if box:
            left = _unit_products(value, _UNIT_LEFT * signs)
            if jet is None:
                right = _unit_products(q, _UNIT_RIGHT * signs)
            else:
                right = qmul(q[..., None, :], jet)
        else:
            left = qmul(dq, value[..., None, :])
            right = qmul(q[..., None, :], jet)
        left += right
        jet = left
        value = qmul(q, value)
    if jet is None:
        jet = np.broadcast_to(dq, q.shape[:-1] + (4, 4))
    return value, jet


def _qpoly_values(q: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """prod_j (q - c_j); the value half of :func:`_qpoly_with_jet`,
    operation for operation."""
    value = q - roots[0]
    for root in roots[1:]:
        value = qmul(value, q - root)
    return value


def _qpoly_with_jet(q: np.ndarray, roots: np.ndarray):
    """Left-ordered product prod_j (q - c_j) with product-rule jets.

    q is a box point, so d_mu q = e_mu and the product-rule terms
    e_mu (q - c) and P e_mu are signed unit products.
    """
    value = q - roots[0]
    jet = None
    for root in roots[1:]:
        factor = q - root
        if jet is None:
            left = _unit_products(factor, _UNIT_LEFT)
        else:
            left = qmul(jet, factor[..., None, :])
        left += _unit_products(value, _UNIT_RIGHT)
        jet = left
        value = qmul(value, factor)
    if jet is None:
        jet = np.broadcast_to(np.eye(4), q.shape[:-1] + (4, 4))
    return value, jet


# --------------------------------------------------------------------------
# domains
# --------------------------------------------------------------------------

def s3_chart_grid(resolution) -> Grid:
    """Cell-centered hyperspherical chart of the unit 3-sphere.

    Axis order (chi, theta, phi) over (0,pi) x (0,pi) x (0,2pi), periodic
    in phi only; cell-centering keeps the poles off the sample set.
    """
    if np.isscalar(resolution):
        resolution = (int(resolution),) * 3
    nchi, ntheta, nphi = (int(r) for r in resolution)
    if min(nchi, ntheta, nphi) < 8:
        raise FieldError("chart resolution must be at least 8 per axis")
    return Grid(shape=(nchi, ntheta, nphi), origin=(0.0, 0.0, 0.0),
                spacing=(np.pi / nchi, np.pi / ntheta, 2.0 * np.pi / nphi),
                periodic=(False, False, True), cell_centered=True)


def box_grid(shape, lo, hi) -> Grid:
    """Open vertex-centered box grid with uniform per-axis bounds lists."""
    shape = tuple(int(n) for n in shape)
    lo = np.broadcast_to(np.asarray(lo, dtype=np.float64), (len(shape),))
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (len(shape),))
    with np.errstate(over="ignore"):        # an infinite spacing is the grid's to reject
        spacing = tuple((hi[i] - lo[i]) / (shape[i] - 1) for i in range(len(shape)))
    return Grid(shape=shape, origin=tuple(lo), spacing=spacing,
                periodic=(False,) * len(shape))


def _chart_trig(grid: Grid) -> tuple:
    """sin and cos of each chart coordinate, one 1-D pair per axis.

    Computed once per grid and sliced per block: sin and cos of a shorter
    array are not promised the same bits (SIMD paths depend on length).
    """
    return tuple((np.sin(x), np.cos(x)) for x in map(grid.coords, range(3)))


def _block_trig(trig: tuple, block) -> tuple:
    """The factors of ``trig`` on ``block`` (an axis-0 slice or a tuple of
    per-axis slices), shaped to broadcast."""
    parts = (block if isinstance(block, tuple) else (block,)) + (slice(None),) * 3
    return tuple(f[(None,) * axis + (parts[axis],) + (None,) * (2 - axis)]
                 for axis, pair in enumerate(trig) for f in pair)


def s3_points(grid: Grid, block=slice(None), trig=None) -> np.ndarray:
    """Chart points as unit 4-vectors of shape ``(*block_shape, 4)``,
    without jets, on the planes ``block`` of axis 0 (or a block of per-axis
    slices); ``trig`` is :func:`_chart_trig` of the grid, computed here
    when not given."""
    sc, cc, st, ct, sp, cp = _block_trig(trig or _chart_trig(grid), block)
    shape = np.broadcast_shapes(sc.shape, st.shape, sp.shape)
    n = np.empty(shape + (4,))
    n[..., 0] = np.broadcast_to(cc, shape)
    n[..., 1] = sc * ct
    n[..., 2] = sc * st * cp
    n[..., 3] = sc * st * sp
    return n


def s3_unit_vectors(grid: Grid, block=slice(None), trig=None):
    """Chart points as unit 4-vectors with exact chart jets, on ``block``
    as in :func:`s3_points`.

    Returns ``(n, dn)`` with shapes ``(*block_shape, 4)`` and
    ``(*block_shape, 3, 4)``; each entry equals the whole chart's bit for
    bit.
    """
    trig = trig or _chart_trig(grid)
    return s3_points(grid, block, trig), _chart_jet(trig, block)


def _chart_jet(trig: tuple, block) -> np.ndarray:
    """The ``dn`` of :func:`s3_unit_vectors` on ``block``, from the
    :func:`_chart_trig` factors ``trig``, without the points."""
    sc, cc, st, ct, sp, cp = _block_trig(trig, block)
    shape = np.broadcast_shapes(sc.shape, st.shape, sp.shape)
    dn = np.zeros(shape + (3, 4))
    dn[..., 0, 0] = np.broadcast_to(-sc, shape)
    dn[..., 0, 1] = cc * ct
    dn[..., 0, 2] = cc * st * cp
    dn[..., 0, 3] = cc * st * sp
    dn[..., 1, 1] = -sc * st
    dn[..., 1, 2] = sc * ct * cp
    dn[..., 1, 3] = sc * ct * sp
    dn[..., 2, 2] = -sc * st * sp
    dn[..., 2, 3] = sc * st * cp
    return dn


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

def _box_field(grid: Grid, value_fn, jet_fn) -> PhiField:
    """The field of a map on a box, with its analytic sampler; it stores
    neither values nor jet.

    ``value_fn(x)`` returns the values and ``jet_fn(x)`` returns
    ``(value, jet)`` for box points ``x`` (..., 4), the jet with the
    derivative axis at -2.  Both compute the values with the same
    operations, so the sampler's values equal the lattice samples bit for
    bit, and the sampler asked for values only (``jet=False``, the degree
    spheres) returns ``value_fn``'s without computing a jet.  The samples
    of a block are ``value_fn`` of that block's points, computed when the
    block is read (``block_values``, checked finite as it is served) and
    not kept; a whole-grid read is filled one axis-0 slab at a time
    (:func:`~su2topo.lattice.slabs`), so no whole-grid coordinates or
    product temporaries are built.  The exact jet of a block comes from
    the sampler.
    """
    def evaluate(points, jet=True):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        # A map that overflows on the box gives non-finite values, which
        # values_at rejects as one error; its jets overflow only where the
        # values do.
        with np.errstate(over="ignore", invalid="ignore"):
            return jet_fn(points) if jet else (value_fn(points), None)

    return PhiField(grid, None, sampler=evaluate,
                    block_values=lambda block: evaluate(grid.points(block), jet=False)[0])


def identity_map_s3(resolution=32) -> SpinorField:
    """The canonical unit-norm spinor of the 3-sphere chart (degree +1).

    Nothing is stored: the samples of a block are the chart points
    :func:`s3_points` of that block (``block_values``, checked finite as
    they are served), and its exact jet is the chart formula of
    :func:`s3_unit_vectors` there.
    """
    grid = s3_chart_grid(resolution)
    trig = _chart_trig(grid)
    phi = PhiField(grid, None,
                   block_values=lambda block: s3_points(grid, block, trig),
                   block_jet=lambda block: _chart_jet(trig, block))
    return phi_to_spinor(phi)


def quaternion_power_field(n: int, grid: Grid) -> PhiField:
    """phi = q^n with exact jets.

    On a rank-3 chart, q runs over the unit quaternions of the 3-sphere
    (phi stays unit-norm); nothing is stored: the values of a block are
    :func:`_qpower_values` of that block's chart points, and its exact jet
    is :func:`_qpower_with_jet` of those points and their chart jets.  On
    a rank-4 box, q = x0 + x1 i + x2 j + x3 k; negative powers use
    conjugate-quaternion products so the field stays polynomial with
    boundary degree n.
    """
    if n == 0:
        raise FieldError("quaternion power needs n != 0")
    if not -4 <= n <= 4:
        raise FieldError("quaternion power limited to |n| <= 4")
    if grid.rank == 3:
        trig = _chart_trig(grid)
        return PhiField(grid, None,
                        block_values=lambda block: _qpower_values(
                            s3_points(grid, block, trig), n),
                        block_jet=lambda block: _qpower_with_jet(
                            *s3_unit_vectors(grid, block, trig), n)[1])
    return _box_field(grid, lambda q: _qpower_values(q, n),
                      lambda q: _qpower_with_jet(q, None, n))


def quaternion_polynomial_field(roots, grid: Grid) -> PhiField:
    """phi(q) = prod_j (q - c_j), zeros planted at the given quaternions.

    Roots must lie inside the box and be pairwise separated by at least
    four cell widths so the zero search can resolve them.
    """
    if grid.rank != 4:
        raise FieldError("quaternion polynomials need a rank-4 box")
    roots = np.atleast_2d(np.asarray(roots, dtype=np.float64))
    if roots.shape[-1] != 4:
        raise FieldError("roots must be quaternions (4 components)")
    hmax = max(grid.spacing)
    for i in range(len(roots)):
        for ax in range(4):
            lo = grid.coords(ax)[0]
            hi = grid.coords(ax)[-1]
            if not lo < roots[i, ax] < hi:
                raise FieldError(f"root {roots[i]} outside the grid box")
        for j in range(i + 1, len(roots)):
            gap = np.linalg.norm(roots[i] - roots[j])
            if 0.0 < gap < 4.0 * hmax:
                raise FieldError(
                    f"roots {i} and {j} separated by {gap:.3e} < 4 h = {4*hmax:.3e}")

    return _box_field(grid, lambda q: _qpoly_values(q, roots),
                      lambda q: _qpoly_with_jet(q, roots))


def linear_phi_field(matrix, shift, grid: Grid) -> PhiField:
    """phi = M (x - c); the canonical regular-zero configuration."""
    if grid.rank != 4:
        raise FieldError("linear 4-vector fields need a rank-4 box")
    matrix = np.asarray(matrix, dtype=np.float64).reshape(4, 4)
    if abs(np.linalg.det(matrix)) < 1e-12:
        raise FieldError("matrix must be nonsingular")
    shift = np.asarray(shift, dtype=np.float64).reshape(4)

    def value_fn(points):
        return np.einsum("ab,...b->...a", matrix, points - shift)

    def jet_fn(points):
        return (value_fn(points),
                np.broadcast_to(matrix.T, points.shape[:-1] + (4, 4)).copy())

    return _box_field(grid, value_fn, jet_fn)


# --------------------------------------------------------------------------
# seeded random band-limited fields
# --------------------------------------------------------------------------

@dataclass
class _TrigChannel:
    """One band-limited trigonometric polynomial over a grid box."""

    freqs: np.ndarray      # (nmodes, rank) angular frequencies
    cos_amp: np.ndarray    # (nmodes,)
    sin_amp: np.ndarray
    const: float

    def evaluate(self, pts: np.ndarray):
        phase = np.einsum("ka,...a->...k", self.freqs, pts)
        c, s = np.cos(phase), np.sin(phase)
        value = self.const + c @ self.cos_amp + s @ self.sin_amp
        coeff = -s * self.cos_amp + c * self.sin_amp        # (..., k)
        jet = np.einsum("...k,ka->...a", coeff, self.freqs)
        return value, jet


_GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))


def _random_channel(rng: np.random.Generator, grid: Grid, amplitude: float,
                    nmodes: int = 6, max_mode: int = 2) -> _TrigChannel:
    # Frequencies are deliberately incommensurate with the box (golden-ratio
    # stretch): exactly periodic maps have vanishing net Jacobian volume,
    # which would degenerate volume-vs-boundary comparisons.
    rank = grid.rank
    extent = np.array([grid.axis_extent(i) for i in range(rank)])
    modes = rng.integers(-max_mode, max_mode + 1, size=(nmodes, rank))
    freqs = 2.0 * np.pi * modes / (extent * _GOLDEN)
    cos_amp = rng.normal(size=nmodes)
    sin_amp = rng.normal(size=nmodes)
    scale = amplitude / max(1e-12, np.sum(np.abs(cos_amp)) + np.sum(np.abs(sin_amp)))
    return _TrigChannel(freqs=freqs, cos_amp=cos_amp * scale,
                        sin_amp=sin_amp * scale, const=0.0)


def random_config(seed: int, kind: str, grid: Grid):
    """Seeded smooth random field with exact jets.

    ``kind="spinor"`` keeps the norm at least 0.5 everywhere (the total
    trigonometric amplitude is bounded by construction) and ``"gauge"``
    emits per-axis color components with a jet; any other kind raises
    :class:`FieldError`.  The seed must be a non-negative integer.
    """
    if seed < 0:
        raise FieldError(f"random seed must be non-negative, not {seed}")
    rng = np.random.default_rng(seed)
    pts = grid.points()
    rank = grid.rank

    if kind == "spinor":
        values = np.zeros(grid.shape + (2,), dtype=np.complex128)
        jet = np.zeros(grid.shape + (rank, 2), dtype=np.complex128)
        base = np.array([1.0 + 0.0j, 0.0j])
        for comp in range(2):
            for part, unit in ((0, 1.0), (1, 1.0j)):
                chan = _random_channel(rng, grid, amplitude=0.3)
                v, dv = chan.evaluate(pts)
                values[..., comp] += unit * v
                jet[..., comp] += unit * dv
        values += base
        return SpinorField(grid, read_only(values), jet=read_only(jet))

    if kind == "gauge":
        values = np.zeros(grid.shape + (rank, 3))
        jet = np.zeros(grid.shape + (rank, rank, 3))
        for mu in range(rank):
            for a in range(3):
                chan = _random_channel(rng, grid, amplitude=0.8)
                v, dv = chan.evaluate(pts)
                values[..., mu, a] = v
                jet[..., mu, a] = dv
        return GaugeField(grid, read_only(values), jet=read_only(jet))

    raise FieldError(f"unknown random field kind {kind!r}")
