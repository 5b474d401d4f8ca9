"""Rectangular sampling grids in 3 and 4 dimensions.

Derivatives are second-order central stencils (optionally fourth-order),
with wraparound on periodic axes and one-sided stencils of matching order
on the boundary layers of open axes.  Quadrature is the midpoint rule on
periodic and cell-centered axes and the trapezoidal rule on vertex-centered
open axes; both are O(h^2) on smooth integrands.

Pointwise work runs one axis-0 slab at a time (:func:`slabs`): a route
reads each slab of its inputs, with ``derivative_stack(..., slab=...)``
reading the ``order // 2`` neighbouring planes the stencils need, hands
the slab's arrays to kernels that read no field, and folds or sums what
they return (:class:`Quadrature`).  A route that differentiates what its
own sweep computes runs those stencils a slab behind
(:func:`stencil_windows`), on each slab's own arrays and the planes of
other slabs next to it, held where they were made: no plane is copied,
and that input is never held for the whole grid.  A field that computes
its samples from the coordinates (:meth:`Grid.coords`) of a block, or
from another field's samples, serves them a block at a time
(:meth:`LatticeField.values_at`) without storing them, and is never read
whole.  Every value is computed by
the same operations as on the whole grid, so slabbing changes no bit.

Fields store their samples site-major, ``(*shape, *components)``.  The
per-slab kernels of the rank-3 sweep take them component-major
(:func:`component_major`), ``(planes, *components, *shape[1:])``: axis 0
keeps its planes, and each component is a contiguous array of a plane's
sites, so their ufuncs run over whole planes instead of the short
component axes.  :func:`derivative_stack` differences either layout.
Periodic stencils read slices of their input and wrap only the rows at
its ends.

All operations are pure: fields are immutable after construction, and
quadrature has one summation order of its own, fed a slab at a time
(:class:`Quadrature`) so that no whole-grid density need be held: each
axis-0 plane is summed by ``np.add.reduce`` and the plane sums exactly
by ``math.fsum``, so results do not depend on the sweep or its slabs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import FieldError, LatticeError

OPEN = "open"
PERIODIC = "periodic"

#: Sites per axis-0 slab in slab-wise evaluation; a slab holds one plane at least.
SLAB_SITES = 1 << 14


@dataclass(frozen=True)
class Grid:
    """A rectangular lattice of rank 3 or 4.

    Site ``k`` on axis ``i`` sits at ``origin[i] + k*spacing[i]`` for
    vertex-centered grids and at ``origin[i] + (k + 1/2)*spacing[i]`` for
    cell-centered ones.  Cell-centered placement keeps coordinate-singular
    chart boundaries (e.g. the poles of angular charts) off the sample set.
    Origins and spacings must be finite and spacings normal positive
    floats, and every axis's coordinates and extent finite, the
    coordinates strictly increasing: an origin of 1e308 or a spacing that
    overflows or is subnormal is rejected (:class:`LatticeError`).
    """

    shape: tuple
    origin: tuple
    spacing: tuple
    periodic: tuple
    cell_centered: bool = False
    orientation: int = 1

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        origin = tuple(float(o) for o in self.origin)
        spacing = tuple(float(h) for h in self.spacing)
        periodic = tuple(bool(p) for p in self.periodic)
        if len(shape) not in (3, 4):
            raise LatticeError(f"grid rank must be 3 or 4, got {len(shape)}")
        if not len(shape) == len(origin) == len(spacing) == len(periodic):
            raise LatticeError("shape/origin/spacing/periodic lengths differ")
        if any(n < 4 for n in shape):
            raise LatticeError(f"need at least 4 points per axis, got {shape}")
        if any(h <= 0 for h in spacing):
            raise LatticeError(f"spacings must be positive, got {spacing}")
        if not np.all(np.isfinite(origin + spacing)):
            raise LatticeError(
                f"origins and spacings must be finite, got {origin}, {spacing}")
        if min(spacing) < np.finfo(np.float64).tiny:
            raise LatticeError(f"spacings must be normal floats, got {spacing}")
        if self.orientation not in (-1, 1):
            raise LatticeError("orientation must be +1 or -1")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "periodic", periodic)
        for axis in range(len(shape)):
            with np.errstate(over="ignore", invalid="ignore"):
                coords, extent = self.coords(axis), self.axis_extent(axis)
                increasing = np.all(np.diff(coords) > 0)
            if not (np.all(np.isfinite(coords)) and increasing and np.isfinite(extent)):
                raise LatticeError(f"axis {axis} coordinates from {origin[axis]!r} by "
                                   f"{spacing[axis]!r} are not finite and strictly "
                                   "increasing")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def coords(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis."""
        self._check_axis(axis)
        off = 0.5 if self.cell_centered else 0.0
        n = self.shape[axis]
        return self.origin[axis] + (np.arange(n) + off) * self.spacing[axis]

    def points(self) -> np.ndarray:
        """Site coordinates, shape ``(*shape, rank)``."""
        axes = [self.coords(i) for i in range(self.rank)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def axis_extent(self, axis: int) -> float:
        """Length of the interval covered by quadrature along one axis."""
        n, h = self.shape[axis], self.spacing[axis]
        if self.periodic[axis] or self.cell_centered:
            return n * h
        return (n - 1) * h

    def _axis_weights(self) -> list:
        """The per-axis quadrature weights, whose outer product weighs the
        sites; :class:`LatticeError` unless the smallest and the largest
        site weight are finite and positive."""
        weights = []
        for i in range(self.rank):
            n, h = self.shape[i], self.spacing[i]
            w = np.full(n, h)
            if not (self.periodic[i] or self.cell_centered):
                w[0] = w[-1] = 0.5 * h
            weights.append(w)
        low = math.prod(float(w.min()) for w in weights)
        high = math.prod(float(w.max()) for w in weights)
        if not (low > 0.0 and math.isfinite(high)):
            raise LatticeError(f"quadrature weights from spacings {self.spacing} run "
                               f"from {low!r} to {high!r}; they must be finite and "
                               "positive")
        return weights

    def drop_axis(self, axis: int) -> "Grid":
        """The rank-(r-1) grid of a boundary face orthogonal to ``axis``."""
        self._check_axis(axis)
        keep = [i for i in range(self.rank) if i != axis]
        return Grid(
            shape=tuple(self.shape[i] for i in keep),
            origin=tuple(self.origin[i] for i in keep),
            spacing=tuple(self.spacing[i] for i in keep),
            periodic=tuple(self.periodic[i] for i in keep),
            cell_centered=self.cell_centered,
            orientation=self.orientation,
        )

    def _check_axis(self, axis: int):
        if not 0 <= axis < self.rank:
            raise LatticeError(f"axis {axis} out of range for rank {self.rank}")


class LatticeField:
    """Base of the per-site field containers.

    Subclasses are frozen dataclasses whose leading fields are ``grid`` and
    ``values``, plus ``jet`` where the kind may carry exact first-derivative
    samples (axis index before the component axes).  Each declares its
    sample ``DTYPE``, its per-site ``component_shape`` and its ``FLD_KIND``
    code: every field kind is a file kind.  Construction freezes ``values``
    and ``jet`` as read-only arrays of that dtype and checks their shapes
    and that the samples are finite.

    A kind that can carry a jet also declares a ``block_jet`` field: a
    function from a block (an axis-0 slice, or a tuple of per-axis slices)
    to the exact jet of its sites, which :meth:`exact_jet` asks when no
    jet is stored; a jet derived from another field's (a normalized
    spinor's, a boundary face's) is served so, whether that one's was
    stored or served.  Every kind declares a ``block_values`` field the same
    way, a function from a block to its samples: given one and
    ``values=None``, the field stores no samples, and :meth:`values_at`
    asks it for each block it serves and checks that block's samples are
    finite.  Box and chart generators and :func:`~su2topo.fields.normalize`
    serve their samples so, and a field read from an FLD file reads them
    from the file.  ``values`` is then None: every read takes the block
    it needs, through :meth:`values_at`, and no served field is ever read
    whole.

    An array that is already read-only and aligned, of the kind's dtype and
    with no writable array in its ``.base`` chain, is adopted without a
    copy: nothing can change it any more.  Library code hands the fresh
    arrays it builds for a field over that way (:func:`read_only`).  Every
    other array is copied.
    """

    DTYPE = np.float64
    COMPONENTS = ()
    LABEL = "field"
    jet = None
    block_jet = None
    block_values = None

    @classmethod
    def component_shape(cls, rank: int) -> tuple:
        """Per-site component shape on a grid of ``rank``."""
        return cls.COMPONENTS

    def __post_init__(self):
        grid = self.grid
        comps = self.component_shape(grid.rank)
        # served samples are checked block by block as they are served
        if self.values is not None or self.block_values is None:
            self._freeze("values", grid.shape + comps)
            self._check_finite(self.values)
        if self.jet is not None:
            self._freeze("jet", grid.shape + (grid.rank,) + comps)

    def _check_finite(self, samples: np.ndarray) -> None:
        if not np.all(np.isfinite(samples)):
            raise FieldError(f"{self.LABEL} contains non-finite samples")

    def _freeze(self, name: str, expected: tuple) -> None:
        array = np.asarray(getattr(self, name), dtype=self.DTYPE)
        if not _immutable(array):
            array = read_only(array.copy())
        if array.shape != expected:
            raise FieldError(f"{self.LABEL} {name} shape {array.shape} != {expected}")
        object.__setattr__(self, name, array)

    def values_at(self, block: slice | tuple) -> np.ndarray:
        """The samples on the planes ``block`` of axis 0, or on a block of
        per-axis slices: the stored ones, else those ``block_values``
        computes for that block, checked finite (:class:`FieldError`)."""
        if self.values is not None:
            return self.values[block]
        samples = read_only(self.block_values(block))
        self._check_finite(samples)
        return samples

    def exact_jet(self, block: slice | tuple) -> np.ndarray | None:
        """Exact first-derivative samples on the planes ``block`` of axis 0
        (or a block of per-axis slices): the stored jet's, else those
        ``block_jet`` computes for that block, else None for bare samples."""
        if self.jet is not None:
            return self.jet[block]
        return None if self.block_jet is None else self.block_jet(block)

    def slab_samples(self, slab: slice, order: int = 2) -> tuple:
        """``(values_at(slab), derivatives)`` of the planes ``slab`` of axis
        0: the derivatives are the slab's exact jet if there is one, else
        its finite differences of ``order``, each entry that of
        :func:`derivative_stack` of the whole grid bit for bit.  Bare
        samples are read once, on the planes the slab's stencils read
        (:func:`stencil_planes`, wrapped runs on a periodic axis 0), and
        the slab's own samples are a view of them."""
        jet = self.exact_jet(slab)
        if jet is not None:
            return self.values_at(slab), jet
        n, planes = self.grid.shape[0], stencil_planes(self.grid, order, slab)
        runs, plane = [], planes.start
        while plane < planes.stop:
            lo = plane % n
            hi = min(n, lo + planes.stop - plane)
            runs.append(self.values_at(slice(lo, hi)))
            plane += hi - lo
        window = runs[0] if len(runs) == 1 else np.concatenate(runs)
        lo, hi, _ = slab.indices(n)
        own = window[lo - planes.start:hi - planes.start]
        held = {q % n: window[q - planes.start] for q in planes if not lo <= q % n < hi}
        return own, derivative_stack(own, self.grid, order, slab, held)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, flagged read-only so that a field constructor adopts it."""
    array.setflags(write=False)
    return array


def _immutable(array: np.ndarray) -> bool:
    """Whether ``array`` is read-only and aligned and only read-only arrays
    lie under it, so that no writable alias of its data exists."""
    if not array.flags.aligned:
        return False
    while array is not None:
        if not isinstance(array, np.ndarray) or array.flags.writeable:
            return False
        array = array.base
    return True


def slabs(grid: Grid):
    """Yield the axis-0 slabs of ``grid`` in order, as slices.

    Each slab holds at most ``SLAB_SITES`` sites, and one plane at least.
    """
    plane = int(np.prod(grid.shape[1:]))
    step = max(1, SLAB_SITES // plane)
    for start in range(0, grid.shape[0], step):
        yield slice(start, min(start + step, grid.shape[0]))


def component_major(block: np.ndarray, rank: int) -> np.ndarray:
    """A new contiguous copy of the site-major ``block`` of a rank-``rank``
    grid, ``(planes, *plane, *components)``, with its component axes moved
    right after axis 0: ``(planes, *components, *plane)``, the layout of
    the per-slab kernels.  Axis 0 keeps its planes, and each component is
    a contiguous array of a plane's sites."""
    comps = range(rank, block.ndim)
    return np.ascontiguousarray(np.moveaxis(block, comps, range(1, 1 + len(comps))))


def site_major(block: np.ndarray, rank: int) -> np.ndarray:
    """The component-major ``block`` as a site-major view, the inverse of
    :func:`component_major`."""
    comps = range(1, 1 + block.ndim - rank)
    return np.moveaxis(block, comps, range(rank, block.ndim))


def derivative_stack(values: np.ndarray, grid: Grid, order: int = 2,
                     slab: slice = slice(None), held: dict | None = None, *,
                     components_first: bool = False, diagonal: bool = True) -> np.ndarray:
    """Stack of axis derivatives, shape ``(*shape, rank, *components)``.

    Each axis derivative is written into its slot of one preallocated
    array; ``values`` may carry trailing component axes.  The interior
    stencils are exact for polynomials of degree <= ``order`` along the
    axis, and the one-sided boundary stencils on open axes match that order.

    Given ``slab``, a slice of axis 0 (as :func:`slabs` yields), only those
    planes are computed: the axis-0 stencils read ``order // 2`` planes
    beyond the slab (wrapping when axis 0 is periodic, one-sided at its true
    ends), and the result equals ``derivative_stack(values, grid,
    order)[slab]`` bit for bit.

    Given ``held``, ``values`` is not the whole grid but the planes
    ``slab`` only, and ``held`` maps every other plane of
    ``stencil_planes(grid, order, slab)`` (by its index modulo the axis
    length) to that plane, as :func:`stencil_windows` gives them: the
    axis-0 stencils of the rows next to the slab's ends read those planes
    where they are, and the result is again that of the whole grid bit for
    bit.

    With ``components_first``, ``values`` is component-major
    (:func:`component_major`), ``(planes, *components, *shape[1:])``, and
    so is the result, with the derivative axis right after axis 0:
    ``(planes, rank, *components, *shape[1:])``.  Each entry is that of the
    site-major stack bit for bit.  With ``diagonal=False``, the first
    component axis runs over the grid axes, as a potential A_i's does, and
    the entries d_i A_i are not computed: they are NaN.
    """
    values = _check_stencil(values, grid, order, None if held is None else slab,
                            components_first)
    rank = grid.rank
    lo, hi, _ = slab.indices(grid.shape[0])
    first = 0 if held is None else lo
    block = values[lo - first:hi - first]
    dtype = np.result_type(values, np.float64)
    if components_first:
        out = np.empty(block.shape[:1] + (rank,) + block.shape[1:], dtype=dtype)
        slots = [out[:, axis] for axis in range(rank)]
        skip = values.ndim - rank       # grid axis k > 0 is array axis k + skip
        comps = 1                       # the first component axis of values
    else:
        out = np.empty(block.shape[:rank] + (rank,) + block.shape[rank:], dtype=dtype)
        slots = [out[(slice(None),) * rank + (axis,)] for axis in range(rank)]
        skip, comps = 0, rank
    for axis in range(rank):
        # the runs of components to difference: all, or those but d_i A_i
        indices = [()]
        if not diagonal:
            slots[axis][(slice(None),) * comps + (axis,)] = np.nan
            indices = [(slice(None),) * comps + (part,) for part in
                       (slice(0, axis), slice(axis + 1, rank)) if part.start < part.stop]
        for index in indices:
            if axis == 0:
                planes = held and {q: plane[index[1:]] for q, plane in held.items()}
                _diff_into(slots[0][index], values[index], grid, 0, order, slab, first,
                           held=planes)
            else:
                _diff_into(slots[axis][index], block[index], grid, axis, order,
                           at=axis + skip)
    return out


def stencil_planes(grid: Grid, order: int, slab: slice) -> range:
    """The axis-0 planes that the ``order`` stencils of the planes ``slab``
    read: ``order // 2`` beyond each side, counted on past the ends of a
    periodic axis 0, and on an open one the ``order + 1`` planes of the
    one-sided stencils at a true end."""
    n, halo = grid.shape[0], order // 2
    lo, hi, _ = slab.indices(n)
    if grid.periodic[0]:
        return range(lo - halo, hi + halo)
    start, stop = max(0, lo - halo), min(n, hi + halo)
    if lo < halo:
        stop = min(n, max(stop, order + 1))
    if hi > n - halo:
        start = max(0, min(start, n - order - 1))
    return range(start, stop)


def stencil_windows(grid: Grid, order: int, blocks):
    """Run axis-0 stencils one slab behind the sweep that makes their input.

    ``blocks`` yields ``(slab, arrays)`` for the slabs of :func:`slabs` in
    order, each array holding the slab's planes of one whole-grid quantity.
    For each slab, as soon as every plane of its :func:`stencil_planes`
    has arrived, this yields ``(slab, arrays, held)``: the slab's own
    arrays, the very ones ``blocks`` yielded, and for each a dict of the
    other planes its stencils read, keyed by their index modulo the axis
    length, for ``derivative_stack(array, grid, order, slab, held)``.  The
    planes are views of the arrays that brought them: none is copied.  A
    plane is dropped once no slab still to come reads it, so on an open
    axis 0 only a halo of planes stays; on a periodic one the first slab
    waits for the last planes, and keeps its own planes until the end.
    """
    n = grid.shape[0]
    reads = {part.start: stencil_planes(grid, order, part) for part in slabs(grid)}
    readers = Counter(plane % n for planes in reads.values() for plane in planes)
    held, own, pending = {}, {}, []
    for slab, arrays in blocks:
        own[slab.start] = arrays
        for plane in range(slab.start, slab.stop):
            held[plane] = [array[plane - slab.start] for array in arrays]
        pending.append(slab)
        for part in [p for p in pending if all(q % n in held for q in reads[p.start])]:
            pending.remove(part)
            planes = {q % n for q in reads[part.start]} - set(range(part.start, part.stop))
            yield part, own.pop(part.start), [{q: held[q][k] for q in planes}
                                              for k in range(len(arrays))]
            for plane in reads[part.start]:
                readers[plane % n] -= 1
                if not readers[plane % n]:
                    del held[plane % n]


def _check_stencil(values, grid: Grid, order: int, slab: slice | None = None,
                   components_first: bool = False) -> np.ndarray:
    """``values`` checked against ``grid``: the whole grid, or ``slab``'s planes."""
    if order not in (2, 4):
        raise LatticeError(f"stencil order must be 2 or 4, got {order}")
    values = np.asarray(values)
    plane = values.shape[values.ndim - grid.rank + 1:] if components_first else (
        values.shape[1:grid.rank])
    planes = grid.shape[0] if slab is None else len(range(*slab.indices(grid.shape[0])))
    if values.ndim < grid.rank or plane != grid.shape[1:] or values.shape[0] != planes:
        raise LatticeError("value array does not match grid shape")
    return values


def _diff_into(out: np.ndarray, values: np.ndarray, grid: Grid, axis: int,
               order: int, rows: slice = slice(None), first: int = 0,
               at: int | None = None, held: dict | None = None) -> None:
    """Write the ``order`` derivative of ``values`` along grid ``axis`` into
    ``out``, at the sites whose index on ``axis`` lies in ``rows``.  The axis
    is axis ``at`` of ``values`` and ``out`` (``axis`` unless given).
    ``values`` holds the planes on the axis from ``first`` on: the whole
    axis, or a slab's own planes (see :func:`derivative_stack`), and a plane
    the stencils read beyond them comes from ``held``, by its index modulo
    the axis length on a periodic axis.  Rows whose stencils read
    ``values`` only read slices of it; the rest read their planes one row
    at a time."""
    h = grid.spacing[axis]
    n = grid.shape[axis]
    lo, hi, _ = rows.indices(n)
    # the stencils are entrywise, so the other axes may come in any order
    f = np.swapaxes(values, 0, axis if at is None else at)
    d = np.swapaxes(out, 0, axis if at is None else at)
    periodic, halo = grid.periodic[axis], order // 2
    if order == 4 and n < 5 and not periodic:
        raise LatticeError("fourth-order open stencil needs at least 5 points")

    def plane(k):
        k = k % n if periodic else k
        return f[k - first] if first <= k < first + f.shape[0] else held[k]

    def stencil(shifted, target):
        if order == 2:
            np.subtract(shifted(1), shifted(-1), out=target)
            target /= 2.0 * h
        else:
            target[...] = (-shifted(2) + 8.0 * shifted(1) - 8.0 * shifted(-1)
                           + shifted(-2)) / (12.0 * h)

    # one-sided stencils on the end rows of an open axis
    if order == 2:
        ends = {0: lambda p: (-3.0 * p(0) + 4.0 * p(1) - p(2)) / (2.0 * h),
                n - 1: lambda p: (3.0 * p(n - 1) - 4.0 * p(n - 2) + p(n - 3)) / (2.0 * h)}
    else:
        ends = {
            0: lambda p: (-25.0 * p(0) + 48.0 * p(1) - 36.0 * p(2) + 16.0 * p(3)
                          - 3.0 * p(4)) / (12.0 * h),
            1: lambda p: (-3.0 * p(0) - 10.0 * p(1) + 18.0 * p(2) - 6.0 * p(3)
                          + p(4)) / (12.0 * h),
            n - 2: lambda p: (3.0 * p(n - 1) + 10.0 * p(n - 2) - 18.0 * p(n - 3)
                              + 6.0 * p(n - 4) - p(n - 5)) / (12.0 * h),
            n - 1: lambda p: (25.0 * p(n - 1) - 48.0 * p(n - 2) + 36.0 * p(n - 3)
                              - 16.0 * p(n - 4) + 3.0 * p(n - 5)) / (12.0 * h),
        }
    # central stencils that stay inside ``values`` read slices of it
    a, b = max(lo, first + halo), min(hi, first + f.shape[0] - halo)
    if not periodic:
        a, b = max(a, halo), min(b, n - halo)
    if a < b and at == values.ndim - 1 and all(
            x.strides[-2] == n * x.strides[-1] for x in (values, out)):
        # the rows of the last axis run on in memory: one run differences
        # them all, and what it writes across row ends is rewritten below
        fm, dm = (np.reshape(x, x.shape[:-2] + (-1,), copy=False) for x in (values, out))
        stencil(lambda shift: fm[..., a + shift:fm.shape[-1] - a + shift],
                dm[..., a:dm.shape[-1] - a])
    elif a < b:
        stencil(lambda shift: f[a - first + shift:b - first + shift], d[a - lo:b - lo])
    for row in range(lo, hi):
        if a <= row < b:
            continue
        if periodic or halo <= row < n - halo:
            stencil(lambda shift: plane(row + shift), d[row - lo])
        else:
            d[row - lo] = ends[row](plane)


class Quadrature:
    """The quadrature of per-site samples over a grid, fed one axis-0 slab
    at a time, in any order, without holding them.

    The sum has one definition: each axis-0 plane's samples times their
    weights, the outer product of the per-axis ones, are summed in C order
    by one ``np.add.reduce``, and the plane sums by ``math.fsum``, which is exact
    (where its running sum overflows, finite plane sums are added exactly
    as fractions, and only a total that rounds past the largest float is
    not finite).  So the total depends neither on the slabs nor on the order they are
    fed in (a stencil sweep finishes a periodic axis 0's first slab last),
    and only the plane sums are held.  The weights are checked when the
    quadrature is made (:meth:`Grid._axis_weights`).
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._axes = grid._axis_weights()
        self._sums = [None] * grid.shape[0]     # each plane's sum, once fed

    def add(self, slab: slice, values: np.ndarray) -> None:
        """Feed the samples ``values`` on the planes ``slab`` of axis 0;
        :class:`LatticeError` if one of them was fed before."""
        lo, hi, _ = slab.indices(self.grid.shape[0])
        weights = reduce(np.multiply.outer, self._axes[1:], self._axes[0][lo:hi])
        values = np.asarray(values)
        if values.shape != weights.shape:
            raise LatticeError("value array does not match grid shape")
        if any(s is not None for s in self._sums[lo:hi]):
            raise LatticeError(f"quadrature fed a plane of {lo}..{hi - 1} twice")
        with np.errstate(over="ignore", invalid="ignore"):
            weighted = values * weights
            self._sums[lo:hi] = [float(np.add.reduce(plane.reshape(-1)))
                                 for plane in weighted]

    def total(self) -> float:
        """The quadrature of the samples fed.  Raises :class:`LatticeError`
        unless every plane was fed, and :class:`FieldError` on a sum that
        is not finite (the samples times the weights overflow, or a sample
        is not finite)."""
        missing = self._sums.count(None)
        if missing:
            raise LatticeError(f"quadrature fed {len(self._sums) - missing} of "
                               f"{len(self._sums)} planes")
        try:
            total = math.fsum(self._sums)
        except OverflowError:       # a running sum overflows
            total = math.copysign(math.inf, sum(self._sums))
            if all(map(math.isfinite, self._sums)):
                from fractions import Fraction      # imported here: it loads decimal
                exact = sum(map(Fraction, self._sums))
                try:
                    total = float(exact)            # rounded once
                except OverflowError:               # past the largest float
                    total = math.inf if exact > 0 else -math.inf
        except ValueError:          # plane sums of +inf and -inf
            total = math.nan
        if not math.isfinite(total):
            raise FieldError(f"quadrature sum over the grid is {total}, not finite")
        return total


def _fractional_index(grid: Grid, points: np.ndarray) -> tuple:
    """Base indices and fractions ``(npts, rank)`` of the points ``(npts,
    rank)`` for multilinear interpolation, all axes at once.  Open axes
    reject points outside the sampled interval."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    off = 0.5 if grid.cell_centered else 0.0
    t = (points - np.asarray(grid.origin)) / np.asarray(grid.spacing) - off
    n = np.asarray(grid.shape)
    periodic = np.asarray(grid.periodic)
    reach = t[:, ~periodic]
    if np.any(reach < -1e-9) or np.any(reach > n[~periodic] - 1 + 1e-9):
        raise LatticeError("interpolation point outside open-axis domain")
    t = np.where(periodic, t, np.clip(t, 0.0, n - 1.0))
    base = np.floor(t).astype(np.int64)
    base = np.where(periodic, base, np.minimum(base, n - 2))
    return np.where(periodic, base % n, base), t - base


def interpolation_window(grid: Grid, points: np.ndarray, index=None) -> list:
    """The per-axis sites of the smallest block that holds every corner
    multilinear interpolation reads at ``points`` ``(npts, rank)``: on each
    axis a run of consecutive sites, which on a periodic axis may wrap once
    past the end (it starts after the widest gap between the sites read).
    Open axes reject points outside the sampled interval.  ``index`` is
    the points' :func:`_fractional_index`, if already taken."""
    bases = (index or _fractional_index(grid, points))[0]
    take = []
    for base, n, periodic in zip(bases.T, grid.shape, grid.periodic):
        if not periodic:
            take.append(np.arange(base.min(), base.max() + 2))
            continue
        read = np.zeros(n, dtype=bool)
        read[base] = read[(base + 1) % n] = True
        sites = np.flatnonzero(read)
        gaps = np.diff(sites, append=sites[0] + n)
        widest = int(np.argmax(gaps))
        start = sites[(widest + 1) % sites.size]
        take.append((start + np.arange(n + 1 - gaps[widest])) % n)
    return take


def _interpolate(values: np.ndarray, grid: Grid, points: np.ndarray, first, index,
                 gradient: bool):
    """Multilinear interpolation of ``values`` at ``points`` ``(npts, rank)``
    and, with ``gradient``, its gradient (else None), from the ``2**rank``
    corners of each point: their flat indices in ``values``, a block whose
    per-axis first sites are ``first`` (counted on cyclically past the end
    of a periodic axis; the whole grid if None), their weights, the
    products of the per-axis factors (1 - frac or frac) in axis order, and
    the gradient's, +-1/h times the other axes' factors in axis order,
    each built with one broadcast per axis and summed corner by corner.
    """
    bases, fracs = index or _fractional_index(grid, points)
    rank = grid.rank
    bits = (np.arange(1 << rank)[:, None] >> np.arange(rank)) & 1   # (corner, axis)
    first = (0,) * rank if first is None else first
    sites, factors = 0, []
    for axis in range(rank):
        local = bases[:, axis] + bits[:, axis, None] - first[axis]
        if grid.periodic[axis]:
            local %= grid.shape[axis]
        sites = sites + local * math.prod(values.shape[axis + 1:rank])
        frac = fracs[:, axis]
        factors.append(np.where(bits[:, axis, None] == 1, frac, 1.0 - frac))
    comps = values.shape[rank:]
    pad = (1,) * len(comps)
    corners = values.reshape((-1,) + comps).take(sites, axis=0)   # (corner, npts, ...)
    vals = _corner_sum(reduce(np.multiply, factors).reshape(sites.shape + pad) * corners)
    if not gradient:
        return vals, None
    slopes = np.empty(sites.shape + (rank,))
    for axis in range(rank):
        slope = np.where(bits[:, axis, None] == 1, 1.0, -1.0) / grid.spacing[axis]
        slopes[..., axis] = reduce(np.multiply, factors[:axis] + factors[axis + 1:], slope)
    return vals, _corner_sum(slopes.reshape(slopes.shape + pad) * corners[:, :, None])


def _corner_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` over axis 0, corner by corner from 0 in order."""
    out = np.zeros(terms.shape[1:], dtype=terms.dtype)
    for term in terms:
        out += term
    return out


def interpolate(values: np.ndarray, grid: Grid, points: np.ndarray,
                first=None, index=None) -> np.ndarray:
    """Multilinear interpolation of grid samples at arbitrary points.

    ``points`` has shape ``(npts, rank)``; the result keeps any trailing
    component axes of ``values``.  Periodic axes wrap; open axes reject
    points outside the sampled interval.  ``values`` holds the whole grid,
    or given ``first`` the block whose per-axis first sites those are, as
    :func:`interpolation_window` gives it; the corners are read with one
    ``take`` from the block seen as ``(sites, components)``.  ``index``
    is the points' :func:`_fractional_index`, if already taken.
    """
    return _interpolate(values, grid, points, first, index, False)[0]


def interpolate_with_gradient(values: np.ndarray, grid: Grid, points: np.ndarray,
                              first=None, index=None):
    """Multilinear interpolation plus its exact gradient.

    Returns ``(vals, grads)`` with ``grads`` of shape
    ``(npts, rank, *components)``; the gradient is the analytic derivative
    of the multilinear interpolant itself.  ``values``, ``first`` and
    ``index`` are those of :func:`interpolate`.
    """
    return _interpolate(values, grid, points, first, index, True)
