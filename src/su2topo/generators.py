"""Analytic test configurations with exact jets.

Every generator gives exact first derivatives so that ground-truth charges
never depend on finite-difference error; discretization studies and
correctness tests stay decoupled.  Quaternion-valued maps double as
degree-n references: q^n has boundary degree n (negative powers go through
the conjugate, q^-1 = conj(q) on unit quaternions), and products
prod_j (q - c_j) plant zeros at chosen roots.

4-vector fields on a box store nothing: the values and the exact jet of a
block are the map and its product-rule jet on that block, computed when
the block is read (:meth:`~su2topo.lattice.LatticeField.values_at`,
:meth:`~su2topo.lattice.LatticeField.exact_jet`), and an analytic sampler
runs the same kernels at any points; it only evaluates points and is
not the lattice jet.  The zero search uses it for
machine-precision root refinement; the zero screen and its simplex count
read the values one slab at a time, the boundary flux reads values and
jets on the 8 faces slab by slab, and a file write reads both slab by
slab.
Fields on the rank-3 chart store nothing either: the sin and cos of the
chart coordinates are taken once, and the values and the exact jet of a
block are the chart formula on that block, computed when the block is
read and equal to the whole chart's bit for bit.  The random fields store
their values and jets.  Every generator hands its fresh
arrays to the field read-only, so the field adopts them without a copy.

The quaternion kernels are component-major: a quaternion is its four
components, each an array of sites, so every ufunc runs over whole arrays
of sites instead of a trailing axis of length 4.  On a box block the four
components of q are the block's axis coordinates, each shaped to broadcast
with length on its own axis only (:func:`_box_axes`), so no meshgrid of
the block's points is built, and the kernels write the values ``(4, ...)``
and the jet ``(4, 4, ...)`` (derivative axis first) through views of a
rank-4 block in the lattice's component-major layout ``(planes, 4, ...)``
(:func:`~su2topo.lattice.component_major`); the block is served as its
site-major view (:func:`~su2topo.lattice.site_major`), so a reader that
takes it component-major again gets it without a copy.  The sampler runs
the same kernels on the components of its points, ``points.T``.

On a box, q is the point itself, so d_mu q = e_mu: the product-rule terms
e_mu s and p e_mu of the jets are signed picks of the components of s and
p, and no identity jet is materialised.  ``qmul`` is written component by
component in the operation order of the vector form, and the linear map in
the order of numpy's ``einsum``, so every value and jet entry is the
site-major evaluation's bit for bit.  The rank-3 chart computes its exact
chart jets per block with the generic product rule, through component
views of the chart points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .fields import GaugeField, PhiField, SpinorField, phi_to_spinor
from .lattice import Grid, read_only, site_major


# --------------------------------------------------------------------------
# quaternion arithmetic on component arrays
# --------------------------------------------------------------------------

def qmul(p, q, out=None) -> np.ndarray:
    """Hamilton product of the quaternions ``p`` and ``q``.

    A quaternion is its four components: four arrays, or an array whose
    axis 0 runs over them; the components of both broadcast together.  The
    product is ``(4, ...)``, written into ``out`` when given (a view of
    any layout whose axis 0 runs over the components).  It is written
    component by component in the operation order of the vector form
    p0 q0 - p.q, p0 q + q0 p + p x q, so the result is bit-identical to
    it; the ``+ 0.0`` turns a -0.0 dot product into +0.0, as ``np.sum``
    does.
    """
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    if out is None:
        out = np.empty((4,) + _shape(p, q))
    out[0] = p0 * q0 - (p1 * q1 + p2 * q2 + p3 * q3 + 0.0)
    out[1] = p0 * q1 + q0 * p1 + (p2 * q3 - p3 * q2)
    out[2] = p0 * q2 + q0 * p2 + (p3 * q1 - p1 * q3)
    out[3] = p0 * q3 + q0 * p3 + (p1 * q2 - p2 * q1)
    return out


def qconj(q) -> tuple:
    """The conjugate of the quaternion ``q`` (as in :func:`qmul`), as its
    four components."""
    return (q[0],) + tuple(c * -1.0 for c in q[1:])


def _shape(*quaternions) -> tuple:
    """The shape the components of ``quaternions`` broadcast to."""
    return np.broadcast_shapes(*(np.shape(c) for q in quaternions for c in q))


def _shifted(q, c) -> tuple:
    """The components of q - c for a constant quaternion ``c``."""
    return tuple(qa - ca for qa, ca in zip(q, c))


def _fill(out, q) -> None:
    """Write the components of the quaternion ``q`` into ``out``, each
    broadcast to the sites, unless ``q`` is ``out``."""
    if q is not out:
        for a in range(4):
            out[a] = q[a]


def _fill_jet(jet, dq) -> None:
    """Write ``dq`` into ``jet`` ``(rank, 4, ...)``: a jet of that shape,
    or a ``(rank, 4)`` matrix that is the same at every site."""
    jet[...] = np.reshape(dq, np.shape(dq) + (1,) * (jet.ndim - np.ndim(dq)))


# Products with the basis units e_mu = 1, i, j, k are signed permutations:
# (e_mu p)[a] = LEFT[mu, a] p[PERM[mu, a]] and (p e_mu)[a] = RIGHT[mu, a]
# p[PERM[mu, a]].  A sign flip is exact, so they equal qmul with a unit
# operand entry for entry; only an entry that is exactly zero may differ
# from it, in the sign of the zero.
_UNIT_PERM = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_UNIT_LEFT = np.array([[1.0, 1, 1, 1], [-1, 1, -1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1]])
_UNIT_RIGHT = np.array([[1.0, 1, 1, 1], [-1, 1, 1, -1], [-1, -1, 1, 1], [-1, 1, -1, 1]])
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def _unit(p, signs: np.ndarray, mu: int, a: int) -> np.ndarray:
    """Component ``a`` of the unit product of ``p`` whose signs are
    ``signs`` (e_mu p for ``_UNIT_LEFT``, p e_mu for ``_UNIT_RIGHT``): a
    signed pick of one component of ``p``, with no gather."""
    return signs[mu, a] * p[_UNIT_PERM[mu, a]]


def _qpower_values(q, n: int, out) -> None:
    """q^n into ``out`` ``(4, ...)``, by the same products as the powers
    of q in :func:`_qpower_with_jet`."""
    if n < 0:
        q, n = qconj(q), -n
    value = q
    for k in range(2, n + 1):
        value = qmul(q, value, out if k == n else None)
    _fill(out, value)


def _qpower_with_jet(q, dq, n: int, jet) -> None:
    """The product-rule jet of q^n into ``jet`` ``(rank, 4, ...)``, the
    derivative axis first; the powers of q it needs are those of
    :func:`_qpower_values`, operation for operation.

    ``dq`` is the jet of q, of the same layout, or None on the box, where
    q is the point itself and d_mu q = e_mu at every point (conj(e_mu) =
    -e_mu for mu > 0 once n < 0): the terms dq q^k and q dq are then
    signed unit products.
    """
    box = dq is None
    if box:
        dq = np.eye(4)
    if n < 0:
        q, n = qconj(q), -n
        dq = dq * _CONJ.reshape((4,) + (1,) * (dq.ndim - 2))
    # on the box, d_mu q = signs[mu] e_mu
    signs = np.diagonal(dq)[:, None] if box else None
    left, right = (_UNIT_LEFT * signs, _UNIT_RIGHT * signs) if box else (None, None)
    value, prev = q, None if box else dq
    if n == 1:
        _fill_jet(jet, dq)
    for k in range(2, n + 1):
        new = jet if k == n else np.empty(jet.shape)
        if not box:
            qmul(dq.swapaxes(0, 1), value, new.swapaxes(0, 1))
            new += qmul(q, prev.swapaxes(0, 1)).swapaxes(0, 1)
        elif prev is None:
            for mu in range(4):
                for a in range(4):
                    new[mu, a] = _unit(value, left, mu, a) + _unit(q, right, mu, a)
        else:
            qmul(q, prev.swapaxes(0, 1), new.swapaxes(0, 1))
            for mu in range(4):
                for a in range(4):
                    new[mu, a] += _unit(value, left, mu, a)
        prev = new
        if k < n:
            value = qmul(q, value)


def _qpoly_values(q, roots: np.ndarray, out) -> None:
    """prod_j (q - c_j) into ``out`` ``(4, ...)``, by the same products as
    the partial products in :func:`_qpoly_with_jet`."""
    value = _shifted(q, roots[0])
    for k in range(1, len(roots)):
        value = qmul(value, _shifted(q, roots[k]), out if k == len(roots) - 1 else None)
    _fill(out, value)


def _qpoly_with_jet(q, roots: np.ndarray, jet) -> None:
    """The product-rule jet of the left-ordered product prod_j (q - c_j)
    into ``jet`` ``(4, 4, ...)``; its partial products are those of
    :func:`_qpoly_values`, operation for operation.

    q is a box point, so d_mu q = e_mu and the product-rule terms
    e_mu (q - c) and P e_mu are signed unit products.
    """
    value, last = _shifted(q, roots[0]), len(roots) - 1
    if last == 0:
        _fill_jet(jet, np.eye(4))
    for k in range(1, last + 1):
        factor = _shifted(q, roots[k])
        new = jet if k == last else np.empty(jet.shape)
        if k == 1:
            for mu in range(4):
                for a in range(4):
                    new[mu, a] = (_unit(factor, _UNIT_LEFT, mu, a)
                                  + _unit(value, _UNIT_RIGHT, mu, a))
        else:
            qmul(prev.swapaxes(0, 1), factor, new.swapaxes(0, 1))
            for mu in range(4):
                for a in range(4):
                    new[mu, a] += _unit(value, _UNIT_RIGHT, mu, a)
        prev = new
        if k < last:
            value = qmul(value, factor)


def _component_major_out(shape: tuple, comps: tuple) -> tuple:
    """A new block of ``shape`` (sites, or points ``(n,)``) with the
    component axes ``comps`` right after axis 0, the layout of
    :func:`~su2topo.lattice.component_major`, and its view with the
    component axes first, for a kernel to write into."""
    block = np.empty(shape[:1] + comps + shape[1:])
    return block, np.moveaxis(block, range(1, 1 + len(comps)), range(len(comps)))


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

def _box_axes(grid: Grid, block) -> tuple:
    """The four components of q = x on ``block`` (an axis-0 slice or a
    tuple of per-axis slices): each axis's coordinates on the block,
    shaped to broadcast, with length on that axis only."""
    parts = (block if isinstance(block, tuple) else (block,)) + (slice(None),) * 4
    return tuple(grid.coords(axis)[parts[axis]].reshape((1,) * axis + (-1,) + (1,) * (3 - axis))
                 for axis in range(4))


def _box_field(grid: Grid, value_fn, jet_fn) -> PhiField:
    """The field of a map on a box, with its analytic sampler; it stores
    neither values nor jet.

    The map's kernels take the components of q and write into views whose
    leading axes run over the components: ``value_fn(q, out)`` the values
    ``(4, ...)``, and ``jet_fn(q, jet)`` the jet ``(4, 4, ...)``, the
    derivative axis first.  The values (``block_values``, checked finite
    as they are served) and the jet (``block_jet``) of a block are the
    kernels on its :func:`_box_axes`, computed when the block is read and
    not kept, and written component-major, so the site-major block served
    is a view (:func:`~su2topo.lattice.site_major`); a whole-grid read is
    filled one axis-0 slab at a time (:func:`~su2topo.lattice.slabs`).
    The sampler only evaluates points (Newton steps): it runs ``value_fn``
    and ``jet_fn`` on the components of its points, ``points.T``, and
    returns ``(n, 4)`` values and ``(n, 4, 4)`` jets, so its values equal
    the lattice samples bit for bit.
    """
    def run(shape, kernel, q, comps):
        # A map that overflows on the box gives non-finite values, which
        # values_at rejects as one error; its jets overflow only where the
        # values do.
        block, view = _component_major_out(shape, comps)
        with np.errstate(over="ignore", invalid="ignore"):
            kernel(q, view)
        return block

    def evaluate(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n, q = points.shape[:1], points.T
        return run(n, value_fn, q, (4,)), run(n, jet_fn, q, (4, 4))

    def served(kernel, comps):
        def block_array(block):
            q = _box_axes(grid, block)
            return site_major(run(_shape(q), kernel, q, comps), 4)
        return block_array

    return PhiField(grid, None, sampler=evaluate, block_values=served(value_fn, (4,)),
                    block_jet=served(jet_fn, (4, 4)))


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

        def block_values(block):
            q = s3_points(grid, block, trig)
            values, out = _component_major_out(q.shape[:-1], (4,))
            _qpower_values(np.moveaxis(q, -1, 0), n, out)
            return site_major(values, 3)

        def block_jet(block):
            q, dq = s3_unit_vectors(grid, block, trig)
            jet, view = _component_major_out(q.shape[:-1], (3, 4))
            _qpower_with_jet(np.moveaxis(q, -1, 0), np.moveaxis(dq, (-2, -1), (0, 1)), n,
                             view)
            return site_major(jet, 3)

        return PhiField(grid, None, block_values=block_values, block_jet=block_jet)
    return _box_field(grid, lambda q, out: _qpower_values(q, n, out),
                      lambda q, jet: _qpower_with_jet(q, None, n, jet))


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

    return _box_field(grid, lambda q, out: _qpoly_values(q, roots, out),
                      lambda q, jet: _qpoly_with_jet(q, roots, jet))


def linear_phi_field(matrix, shift, grid: Grid) -> PhiField:
    """phi = M (x - c); the canonical regular-zero configuration."""
    if grid.rank != 4:
        raise FieldError("linear 4-vector fields need a rank-4 box")
    matrix = np.asarray(matrix, dtype=np.float64).reshape(4, 4)
    if abs(np.linalg.det(matrix)) < 1e-12:
        raise FieldError("matrix must be nonsingular")
    shift = np.asarray(shift, dtype=np.float64).reshape(4)

    def value_fn(q, out):
        d = _shifted(q, shift)
        for a in range(4):
            # np.einsum("ab,...b->...a", matrix, x - shift), in the order
            # numpy's einsum sums in, its zero start included
            out[a] = ((matrix[a, 0] * d[0] + matrix[a, 2] * d[2])
                      + (matrix[a, 1] * d[1] + matrix[a, 3] * d[3])) + 0.0

    return _box_field(grid, value_fn, lambda q, jet: _fill_jet(jet, matrix.T))


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
