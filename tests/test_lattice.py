import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import site_major as oracle
from su2topo import FieldError, Grid, LatticeError, lattice
from su2topo.lattice import (Quadrature, _fractional_index, derivative_stack, interpolate,
                             interpolate_with_gradient, slabs, stencil_planes,
                             stencil_windows)


def periodic_grid(n=64):
    return Grid((n, 8, 8), (0.0, 0.0, 0.0),
                (2 * np.pi / n, 0.1, 0.1), (True, False, False))


def central_diff(values, grid, axis, order=2):
    """The central differences of ``values`` along ``axis``: that axis's
    slot of :func:`derivative_stack`."""
    return derivative_stack(values, grid, order)[(slice(None),) * grid.rank + (axis,)]


def test_grid_validation():
    with pytest.raises(LatticeError):
        Grid((3, 8, 8), (0, 0, 0), (0.1, 0.1, 0.1), (False,) * 3)
    with pytest.raises(LatticeError):
        Grid((8, 8, 8), (0, 0, 0), (0.1, -0.1, 0.1), (False,) * 3)
    with pytest.raises(LatticeError):
        Grid((8, 8), (0, 0), (0.1, 0.1), (False, False))


@pytest.mark.parametrize("origin, spacing, cell_centered", [
    (0.0, 1e308, False),           # coordinates overflow
    (-1.0, np.inf, False),
    (np.nan, 0.1, False),
    (1e308, 0.1, False),           # every coordinate rounds to the origin
    (-1e308, 1e290, True),
    (-2.0, 1e-320, False),         # a subnormal spacing
    (0.0, 5e-324, False),
    (1e307, 1e307, False),         # finite coordinates, infinite extent
])
def test_grid_rejects_degenerate_axes(origin, spacing, cell_centered):
    with pytest.raises(LatticeError, match="finite|normal|increasing"), \
            np.errstate(all="raise"):
        Grid((4, 20, 5), (0.0, origin, 0.0), (0.1, spacing, 0.1), (False,) * 3,
             cell_centered)
    # the neighbours of those values are fine
    Grid((4, 20, 5), (0.0, 1e300, 0.0), (0.1, 1e290, 0.1), (False,) * 3, cell_centered)
    Grid((4, 20, 5), (0.0, 0.0, 0.0), (0.1, 2.3e-308, 0.1), (True,) * 3, cell_centered)


def test_coords_cell_centered():
    grid = Grid((8, 8, 8), (0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (False,) * 3,
                cell_centered=True)
    assert grid.coords(0)[0] == pytest.approx(0.25)
    assert grid.coords(0)[-1] == pytest.approx(0.25 + 7 * 0.5)


def test_central_diff_constant_is_zero():
    grid = periodic_grid()
    values = np.ones(grid.shape)
    for axis in range(3):
        assert np.max(np.abs(central_diff(values, grid, axis))) == 0.0


def test_central_diff_linear_exact_on_open_axis():
    grid = Grid((21, 8, 8), (0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (False,) * 3)
    x = grid.coords(0)[:, None, None]
    values = np.broadcast_to(x, grid.shape).copy()
    d = central_diff(values, grid, 0)
    assert np.max(np.abs(d - 1.0)) < 1e-13


def test_central_diff_quadratic_exact_including_boundary():
    grid = Grid((16, 8, 8), (-1.0, 0.0, 0.0), (0.13, 0.1, 0.1), (False,) * 3)
    x = grid.coords(0)[:, None, None]
    values = np.broadcast_to(x**2, grid.shape).copy()
    d = central_diff(values, grid, 0)
    assert np.max(np.abs(d - 2 * x)) < 1e-12


def test_central_diff_sin_periodic_error_bound():
    n = 64
    grid = periodic_grid(n)
    x = grid.coords(0)[:, None, None]
    values = np.broadcast_to(np.sin(x), grid.shape).copy()
    d = central_diff(values, grid, 0)
    assert np.max(np.abs(d - np.cos(x))) <= (2 * np.pi / n) ** 2


def test_fourth_order_exact_for_cubics():
    grid = Grid((16, 8, 8), (-1.0, 0.0, 0.0), (0.11, 0.1, 0.1), (False,) * 3)
    x = grid.coords(0)[:, None, None]
    values = np.broadcast_to(x**3, grid.shape).copy()
    d = central_diff(values, grid, 0, order=4)
    assert np.max(np.abs(d - 3 * x**2)) < 1e-11


def test_central_diff_axis_out_of_range():
    # derivative_stack differences every axis; the grid itself rejects an
    # axis it does not have
    grid = periodic_grid(8)
    with pytest.raises(LatticeError, match="axis 3 out of range"):
        grid.coords(3)


def test_diff_commutes_across_axes():
    rng = np.random.default_rng(0)
    grid = Grid((9, 10, 11), (0.0, 0.0, 0.0), (0.1, 0.2, 0.3),
                (False, True, False))
    values = rng.normal(size=grid.shape)
    d01 = central_diff(central_diff(values, grid, 0), grid, 1)
    d10 = central_diff(central_diff(values, grid, 1), grid, 0)
    assert np.max(np.abs(d01 - d10)) < 1e-12


def test_integrate_constant_periodic_volume():
    n = 16
    grid = Grid((n, n, n), (0.0, 0.0, 0.0), (0.25, 0.5, 0.125), (True,) * 3)
    volume = n * 0.25 * n * 0.5 * n * 0.125
    assert oracle.quadrature(np.ones(grid.shape), grid) == pytest.approx(
        volume, abs=1e-12)


def test_integrate_sin_over_period_is_zero():
    grid = periodic_grid(32)
    x = grid.coords(0)[:, None, None]
    values = np.broadcast_to(np.sin(x), grid.shape)
    assert abs(oracle.quadrature(values, grid)) < 1e-12


def test_integrate_gaussian_4d():
    n = 40
    grid = Grid((n,) * 4, (-5.0,) * 4, (10.0 / (n - 1),) * 4, (False,) * 4)
    pts = grid.points()
    values = np.exp(-np.sum(pts**2, axis=-1))
    result = oracle.quadrature(values, grid)
    assert abs(result - np.pi**2) / np.pi**2 < 1e-4


def test_integrate_is_linear():
    rng = np.random.default_rng(1)
    grid = periodic_grid(16)
    f = rng.normal(size=grid.shape)
    g = rng.normal(size=grid.shape)
    lhs = oracle.quadrature(2.5 * f - 0.75 * g, grid)
    rhs = 2.5 * oracle.quadrature(f, grid) - 0.75 * oracle.quadrature(g, grid)
    assert abs(lhs - rhs) < 1e-12


def _fed(grid, values, parts):
    """The :class:`Quadrature` of ``values`` fed the slabs ``parts`` in turn."""
    quadrature = Quadrature(grid)
    for part in parts:
        quadrature.add(part, values[part])
    return quadrature.total()


# The quadrature has a summation order of its own: each axis-0 plane's
# weighted samples summed by one np.add.reduce, and the plane sums exactly
# by math.fsum (oracle.plane_quadrature).  These tests pin that definition
# bit for bit, for any slab split and any feed order.
@pytest.mark.parametrize("shape, periodic, cell_centered", [
    ((4, 5, 6), (False,) * 3, False),
    ((33, 17, 29), (False, False, True), True),           # the s3 chart's axes
    ((96, 96, 96), (False, False, True), True),
    ((23, 9, 11), (True, False, True), False),
    ((24, 24, 24, 24), (False,) * 4, False),
    ((7, 6, 5, 9), (True, True, False, False), True),
], ids=str)
def test_streamed_quadrature_equals_the_whole_grid_sum(shape, periodic, cell_centered,
                                                      monkeypatch):
    rng = np.random.default_rng(sum(shape))
    rank = len(shape)
    grid = Grid(shape, (0.0,) * rank, tuple(0.05 + 0.1 * i for i in range(rank)),
                periodic, cell_centered)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    expected = oracle.plane_quadrature(values, grid)
    n = shape[0]
    cuts = sorted({0, n, *rng.integers(1, n, size=3).tolist()})
    planes = [slice(i, i + 1) for i in range(n)]
    runs = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    for parts in (planes, runs, [slice(None)], planes[1:] + planes[:1],  # the first slab last
                  runs[::-1]):
        assert _fed(grid, values, parts) == expected, parts
    assert oracle.quadrature(values, grid) == expected
    # one plane a slab, in the order a stencil sweep finishes them: on a
    # periodic axis 0 the first slab waits for the last plane, out of turn
    monkeypatch.setattr(lattice, "SLAB_SITES", 1)
    swept = [slab for slab, _, _ in stencil_windows(
        grid, 2, ((slab, [values[slab]]) for slab in slabs(grid)))]
    assert (swept[0] != planes[0]) == periodic[0]
    assert _fed(grid, values, swept) == expected
    assert oracle.quadrature(values, grid) == expected
    with pytest.raises(LatticeError, match=f"fed {n - 1} of {n} planes"):
        _fed(grid, values, planes[1:])
    with pytest.raises(LatticeError, match="twice"):
        _fed(grid, values, [slice(None), planes[-1]])


def test_quadrature_sums_the_plane_sums_exactly():
    # plane sums 1e16, 1 and -1e16: summed in turn they give 0, since
    # 1e16 + 1 rounds to 1e16; the exact sum is 1 in every feed order
    grid = Grid((4, 4, 4), (0.0,) * 3, (1.0,) * 3, (True,) * 3)
    values = np.zeros(grid.shape)
    values[:3, 0, 0] = 1e16, 1.0, -1e16
    planes = [slice(i, i + 1) for i in range(4)]
    assert sum(np.add.reduce(plane.reshape(-1)) for plane in values) == 0.0
    for parts in (planes, planes[::-1], [slice(0, 2), slice(2, 4)], [slice(None)]):
        assert _fed(grid, values, parts) == 1.0, parts


def test_plane_sums_whose_running_sum_overflows_have_their_exact_total():
    # math.fsum raises OverflowError on [1e308, 1e308, -1e308], although
    # the exact sum, 1e308, is a float; no warning is raised on the way
    grid = Grid((4, 4, 4), (0.0,) * 3, (1.0,) * 3, (True,) * 3)
    values = np.zeros(grid.shape)
    values[:3, 0, 0] = 1e308, 1e308, -1e308
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    planes = [slice(i, i + 1) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for parts in (planes, planes[::-1], [slice(None)]):
            assert _fed(grid, values, parts) == 1e308, parts
        assert oracle.quadrature(-values, grid) == -1e308


@pytest.mark.parametrize("sums, shown", [
    ((np.inf, -np.inf), "nan"),         # math.fsum raises ValueError
    ((1e308, 1e308), "inf"),            # the exact total 2e308 rounds past the
                                        # largest float
    ((-1e308, -1e308), "-inf"),
    ((1e308, 1e308, np.inf), "inf"),    # math.fsum overflows before the inf
])
def test_plane_sums_without_a_finite_total_are_a_field_error(sums, shown):
    grid = Grid((4, 4, 4), (0.0,) * 3, (1.0,) * 3, (True,) * 3)
    values = np.zeros(grid.shape)
    values[:len(sums), 0, 0] = sums
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldError, match=f"quadrature sum over the grid is {shown}, "
                                             "not finite"):
            oracle.quadrature(values, grid)


@settings(max_examples=60, deadline=None)
@given(shape=hst.integers(3, 4).flatmap(
           lambda rank: hst.tuples(*[hst.integers(4, 7)] * rank)),
       data=hst.data(),
       cell_centered=hst.booleans(),
       seed=hst.integers(0, 2**32 - 1))
def test_quadrature_does_not_depend_on_slabs_or_feed_order(shape, data, cell_centered,
                                                           seed):
    rank, n = len(shape), shape[0]
    periodic = data.draw(hst.tuples(*[hst.booleans()] * rank))
    grid = Grid(shape, (0.0,) * rank, tuple(0.05 + 0.1 * i for i in range(rank)),
                periodic, cell_centered)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    cuts = sorted(data.draw(hst.sets(hst.integers(1, n - 1))) | {0, n})
    parts = data.draw(hst.permutations([slice(a, b) for a, b in zip(cuts, cuts[1:])]))
    assert _fed(grid, values, parts) == oracle.plane_quadrature(values, grid)


def test_refinement_shrinks_errors():
    def quad_error(n):
        # exact value: integral of exp(sin x) over one period is 2 pi I0(1)
        grid = Grid((n, 4, 4), (0.0, 0.0, 0.0),
                    (2 * np.pi / n, 0.25, 0.25), (True,) * 3)
        x = grid.coords(0)[:, None, None]
        values = np.broadcast_to(np.exp(np.sin(x)), grid.shape).copy()
        exact = 2.0 * np.pi * np.i0(1.0) * (4 * 0.25) ** 2
        return abs(oracle.quadrature(values, grid) - exact)

    def fd_error(n):
        grid = Grid((n, 8, 8), (0.0, 0.0, 0.0),
                    (2 * np.pi / n, 0.1, 0.1), (True, False, False))
        x = grid.coords(0)[:, None, None]
        values = np.broadcast_to(np.exp(np.sin(x)), grid.shape).copy()
        d = central_diff(values, grid, 0)
        exact = np.cos(x) * np.exp(np.sin(x))
        return np.max(np.abs(d - exact))

    assert fd_error(32) / fd_error(64) >= 3.0
    # periodic quadrature of an analytic integrand converges faster than
    # any power, so compare at low n, above the rounding floor
    assert quad_error(4) / quad_error(8) >= 3.0


def test_interpolation_reproduces_multilinear_data():
    grid = Grid((6, 7, 8), (0.0, 0.0, 0.0), (0.2, 0.3, 0.1),
                (False, False, True))
    pts = grid.points()
    values = 1.0 + 2.0 * pts[..., 0] - 0.7 * pts[..., 1]
    rng = np.random.default_rng(2)
    sample = np.stack([
        rng.uniform(0.0, 0.2 * 5, size=10),
        rng.uniform(0.0, 0.3 * 6, size=10),
        rng.uniform(0.0, 0.1 * 8, size=10),
    ], axis=1)
    got = interpolate(values, grid, sample)
    expected = 1.0 + 2.0 * sample[:, 0] - 0.7 * sample[:, 1]
    assert np.max(np.abs(got - expected)) < 1e-12


def reference_fractional_index(grid, points):
    """The per-axis loop of ``_fractional_index`` before it took every axis
    at once: lists of per-axis base indices and fractions."""
    bases, fracs = [], []
    off = 0.5 if grid.cell_centered else 0.0
    for i in range(grid.rank):
        t = (points[:, i] - grid.origin[i]) / grid.spacing[i] - off
        n = grid.shape[i]
        if grid.periodic[i]:
            base = np.floor(t).astype(np.int64)
            frac = t - base
            base %= n
        else:
            t = np.clip(t, 0.0, n - 1.0)
            base = np.minimum(np.floor(t).astype(np.int64), n - 2)
            frac = t - base
        bases.append(base)
        fracs.append(frac)
    return bases, fracs


def reference_interpolate(values, grid, points):
    """The corner loop of ``interpolate`` as it was before the corners
    carried their per-axis factors: the weight built up axis by axis."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    bases, fracs = reference_fractional_index(grid, points)
    comp_shape = values.shape[grid.rank:]
    out = np.zeros((points.shape[0],) + comp_shape, dtype=values.dtype)
    for corner in range(1 << grid.rank):
        weight = np.ones(points.shape[0])
        index = []
        for i in range(grid.rank):
            bit = (corner >> i) & 1
            idx = bases[i] + bit
            if grid.periodic[i]:
                idx %= grid.shape[i]
            weight = weight * (fracs[i] if bit else 1.0 - fracs[i])
            index.append(idx)
        out += weight.reshape((-1,) + (1,) * len(comp_shape)) * values[tuple(index)]
    return out


def reference_interpolate_with_gradient(values, grid, points):
    """The separate corner loop ``interpolate_with_gradient`` had."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    bases, fracs = reference_fractional_index(grid, points)
    comp_shape = values.shape[grid.rank:]
    npts = points.shape[0]
    vals = np.zeros((npts,) + comp_shape, dtype=values.dtype)
    grads = np.zeros((npts, grid.rank) + comp_shape, dtype=values.dtype)
    pad = (1,) * len(comp_shape)
    for corner in range(1 << grid.rank):
        index = []
        w_axis = []
        dw_axis = []
        for i in range(grid.rank):
            bit = (corner >> i) & 1
            idx = bases[i] + bit
            if grid.periodic[i]:
                idx %= grid.shape[i]
            index.append(idx)
            w_axis.append(fracs[i] if bit else 1.0 - fracs[i])
            sign = 1.0 if bit else -1.0
            dw_axis.append(np.full(npts, sign / grid.spacing[i]))
        corner_vals = values[tuple(index)]
        weight = np.ones(npts)
        for w in w_axis:
            weight = weight * w
        vals += weight.reshape((-1,) + pad) * corner_vals
        for ax in range(grid.rank):
            w = dw_axis[ax]
            for j in range(grid.rank):
                if j != ax:
                    w = w * w_axis[j]
            grads[:, ax] += w.reshape((-1,) + pad) * corner_vals
    return vals, grads


@settings(max_examples=60, deadline=None)
@given(shape=hst.integers(3, 4).flatmap(
           lambda rank: hst.tuples(*[hst.integers(4, 7)] * rank)),
       data=hst.data(),
       cell_centered=hst.booleans(),
       components=hst.sampled_from([(4,), (3, 2)]),
       seed=hst.integers(0, 2**32 - 1))
def test_interpolation_equals_the_reference_corner_loops(shape, data, cell_centered,
                                                        components, seed):
    # one corner loop feeds both interpolants; they equal the two loops
    # they replaced byte for byte
    rank = len(shape)
    periodic = data.draw(hst.tuples(*[hst.booleans()] * rank))
    rng = np.random.default_rng(seed)
    grid = Grid(shape, tuple(rng.uniform(-1.0, 1.0, rank)),
                tuple(rng.uniform(0.1, 1.0, rank)), periodic, cell_centered)
    values = rng.normal(size=shape + components)
    off = 0.5 if cell_centered else 0.0
    lo = np.array(grid.origin) + off * np.array(grid.spacing)
    span = np.array([(n - 1) * h for n, h in zip(shape, grid.spacing)])
    # periodic axes also take points past either end, which wrap
    points = lo + rng.uniform(0.0, 1.0, (40, rank)) * span
    points[:, list(periodic)] += rng.uniform(-2.0, 2.0, (40, sum(periodic))) * span[list(periodic)]
    points[0] = lo                                     # a site and a far corner
    points[1] = lo + span
    bases, fracs = _fractional_index(grid, points)
    ref_bases, ref_fracs = reference_fractional_index(grid, points)
    assert bases.T.tobytes() == np.array(ref_bases).tobytes()
    assert fracs.T.tobytes() == np.array(ref_fracs).tobytes()
    got = interpolate(values, grid, points)
    assert got.tobytes() == reference_interpolate(values, grid, points).tobytes()
    vals, grads = interpolate_with_gradient(values, grid, points)
    ref_vals, ref_grads = reference_interpolate_with_gradient(values, grid, points)
    assert vals.tobytes() == ref_vals.tobytes() and vals.shape == ref_vals.shape
    assert grads.tobytes() == ref_grads.tobytes() and grads.shape == ref_grads.shape
    assert got.tobytes() == vals.tobytes()


def test_interpolation_rejects_outside_open_axis():
    grid = Grid((6, 7, 8), (0.0, 0.0, 0.0), (0.2, 0.3, 0.1), (False,) * 3)
    with pytest.raises(LatticeError):
        interpolate(np.ones(grid.shape), grid, np.array([[-0.5, 0.1, 0.1]]))


def test_derivative_stack_shape():
    grid = periodic_grid(8)
    values = np.zeros(grid.shape + (2,))
    stack = derivative_stack(values, grid)
    assert stack.shape == grid.shape + (3, 2)


@settings(max_examples=80, deadline=None)
@given(shape=hst.integers(3, 4).flatmap(
           lambda rank: hst.tuples(*[hst.integers(4, 9)] * rank)),
       data=hst.data(),
       order=hst.sampled_from([2, 4]),
       components=hst.sampled_from([(), (2,), (3, 2)]),
       complex_values=hst.booleans(),
       seed=hst.integers(0, 2**32 - 1))
def test_slab_derivatives_equal_the_whole_grid_stack(shape, data, order, components,
                                                     complex_values, seed):
    rank = len(shape)
    periodic = data.draw(hst.tuples(*[hst.booleans()] * rank))
    assume(order == 2 or all(p or n >= 5 for n, p in zip(shape, periodic)))
    rng = np.random.default_rng(seed)
    grid = Grid(shape, (0.0,) * rank, tuple(rng.uniform(0.1, 1.0, rank)), periodic)
    values = rng.normal(size=shape + components)
    if complex_values:
        values = values + 1j * rng.normal(size=values.shape)
    whole = derivative_stack(values, grid, order)
    # every run of axis-0 planes, the single planes and both ends included
    for lo in range(shape[0]):
        for hi in range(lo + 1, shape[0] + 1):
            part = derivative_stack(values, grid, order, slice(lo, hi))
            assert part.dtype == whole.dtype
            assert np.array_equal(part, whole[lo:hi])


@pytest.mark.parametrize("planes", [1, 2, 3, 20])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("order", [2, 4])
def test_windowed_stacks_equal_the_whole_grid_stack(order, periodic, planes, monkeypatch):
    # a second sweep gets each slab's own arrays, as the first pass made
    # them, and the held planes next to them that its axis-0 stencils read,
    # as soon as they have arrived; it gets the whole-grid stack bit for
    # bit, at the ends of an open axis 0 and across the wrap of a periodic
    # one, on vertex- and cell-centered grids, for slabs of one plane, of
    # several with an uneven last one (2 and 3 of 11) and the whole grid
    # (20), and with d_i A_i left out
    import su2topo.lattice as lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 20)
    for cell_centered in (False, True):
        grid = Grid((11, 5, 4), (0.0, 0.0, 0.0), (0.3, 0.2, 0.1), (periodic, False, True),
                    cell_centered)
        rng = np.random.default_rng(order + planes)
        values = rng.normal(size=grid.shape + (3, 2))
        other = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        gauge = rng.normal(size=(grid.shape[0], 3, 3) + grid.shape[1:])
        parts = list(slabs(grid))
        arrived, made = [], {}

        def blocks():
            for slab in parts:
                arrived.append(slab.stop)
                made[slab.start] = (values[slab], other[slab], gauge[slab])
                yield slab, list(made[slab.start])

        done = []
        for slab, owns, helds in stencil_windows(grid, order, blocks()):
            reads = stencil_planes(grid, order, slab)
            n = grid.shape[0]
            assert all(own is mine for own, mine in zip(owns, made[slab.start]))
            for held in helds:
                assert set(held) == {q % n for q in reads} - set(range(slab.start, slab.stop))
            for array, own, held in zip((values, other), owns, helds):
                assert np.array_equal(derivative_stack(own, grid, order, slab, held),
                                      derivative_stack(array, grid, order)[slab])
            offdiagonal = derivative_stack(owns[2], grid, order, slab, helds[2],
                                           components_first=True, diagonal=False)
            whole = derivative_stack(gauge, grid, order, components_first=True)[slab]
            for axis in range(3):
                assert np.isnan(offdiagonal[:, axis, axis]).all()
                for k in set(range(3)) - {axis}:
                    assert np.array_equal(offdiagonal[:, axis, k], whole[:, axis, k])
            # handed out at the first arrival that completes its planes
            wraps = reads.start < 0 or reads.stop > n
            wanted = n if wraps else reads.stop
            assert arrived[-1] == min(p.stop for p in parts if p.stop >= wanted)
            done.append(slab)
        assert sorted(done, key=lambda part: part.start) == parts


def test_the_sweeps_copy_no_held_plane(monkeypatch):
    # at one plane a slab, every array the stencils of the knot-charge and
    # the Chern sweeps read is a slab's own array as their first pass made
    # it, or a plane of one: no held plane is copied
    import su2topo as st
    from su2topo import chern_density, chern_simons
    monkeypatch.setattr(lattice, "SLAB_SITES", 1)
    made, read = [], []

    def tapped(grid, order, blocks):
        def tap():
            for slab, arrays in blocks:
                made.extend(arrays)
                yield slab, arrays
        return stencil_windows(grid, order, tap())

    def recorded(values, grid, order=2, slab=slice(None), held=None, **kwargs):
        read.append([values, *held.values()])
        return derivative_stack(values, grid, order, slab, held, **kwargs)

    for module in (chern_simons, chern_density):
        monkeypatch.setattr(module, "stencil_windows", tapped)
        monkeypatch.setattr(module, "derivative_stack", recorded)
    chern_simons.chern_simons(st.identity_map_s3(12))
    chern_density.chern_numbers(st.random_config(5, "spinor", st.box_grid((5, 4, 4, 4),
                                                                           -1.0, 1.0)),
                                ("trace",))
    assert len(read) == 12 * 2 + 5
    for values, *planes in read:
        assert any(values is array for array in made)
        assert planes and all(any(np.shares_memory(plane, array) for array in made)
                              for plane in planes)


def _wrapped_take_diff(values, grid, axis, order, rows=slice(None), first=0):
    """The periodic stencil as ``np.take(..., mode="wrap")`` copies of every
    operand, the form the slices replaced."""
    h = grid.spacing[axis]
    lo, hi, _ = rows.indices(grid.shape[axis])
    index = np.arange(lo - first, hi - first)

    def at(shift):
        return np.take(values, index + shift, axis=axis, mode="wrap")

    if order == 2:
        out = np.subtract(at(1), at(-1))
        out /= 2.0 * h
        return out
    return (-at(2) + 8.0 * at(1) - 8.0 * at(-1) + at(-2)) / (12.0 * h)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("shape", [(9, 7, 11), (4, 5, 4)])
def test_periodic_stencils_by_slices_equal_the_wrapped_takes(order, shape):
    # interior rows read slices and only the rows at the wraps read their
    # wrapped neighbours, with the operands and operations of the take
    # form: bit for bit, on periodic axes 0, 1 and 2, for runs of rows at
    # both wraps and inside, and on a slab's own planes of a periodic axis
    # 0 whose stencils read held planes across the wrap
    rng = np.random.default_rng(order)
    grid = Grid(shape, (0.0,) * 3, (0.3, 0.2, 0.1), (True,) * 3)
    values = rng.normal(size=shape + (3,)) + 1j * rng.normal(size=shape + (3,))
    for axis in range(3):
        n = shape[axis]
        for rows in (slice(None), slice(0, 1), slice(0, 2), slice(n - 2, n),
                     slice(n - 1, n), slice(1, n - 1), slice(2, 3)):
            expected = _wrapped_take_diff(values, grid, axis, order, rows)
            out = np.empty_like(expected)
            lattice._diff_into(out, values, grid, axis, order, rows)
            assert np.array_equal(out, expected)
    n = shape[0]
    for slab in (slice(0, 1), slice(0, 2), slice(n - 2, n), slice(n - 1, n), slice(0, n)):
        planes = stencil_planes(grid, order, slab)
        assert planes.start < 0 or planes.stop > n
        held = {q % n: values[q % n] for q in planes if not slab.start <= q % n < slab.stop}
        expected = _wrapped_take_diff(values, grid, 0, order, slab)
        out = np.empty_like(expected)
        lattice._diff_into(out, values[slab], grid, 0, order, slab, slab.start, held=held)
        assert np.array_equal(out, expected)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("periodic", [(False, False, True), (True, True, False)])
@pytest.mark.parametrize("components", [(), (3,), (3, 2)])
def test_component_major_stacks_equal_the_site_major_stack(order, periodic, components):
    # component-major values (planes, *components, n1, n2) give the
    # component-major stack (planes, rank, *components, n1, n2) of the same
    # entries bit for bit: whole, on slabs of the whole grid, and on a
    # slab's own planes with the held planes next to it
    from su2topo.lattice import component_major
    grid = Grid((7, 6, 5), (0.0,) * 3, (0.3, 0.2, 0.1), periodic)
    rng = np.random.default_rng(len(components))
    values = rng.normal(size=grid.shape + components)
    site = derivative_stack(values, grid, order)
    comp = component_major(values, 3)
    assert np.array_equal(derivative_stack(comp, grid, order, components_first=True),
                          component_major(site, 3))
    for slab in (slice(0, 1), slice(2, 5), slice(6, 7), slice(0, 7)):
        held = {q % 7: comp[q % 7] for q in stencil_planes(grid, order, slab)
                if not slab.start <= q % 7 < slab.stop}
        for part in (derivative_stack(comp, grid, order, slab, components_first=True),
                     derivative_stack(comp[slab], grid, order, slab, held,
                                      components_first=True)):
            assert np.array_equal(part, component_major(site[slab], 3))
    if components:      # site-major values do not pass as component-major ones
        with pytest.raises(LatticeError):
            derivative_stack(values, grid, order, components_first=True)


def test_stencil_planes_reach_the_one_sided_ends():
    grid = Grid((10, 4, 4), (0.0,) * 3, (0.1,) * 3, (False,) * 3)
    assert stencil_planes(grid, 2, slice(0, 1)) == range(0, 3)
    assert stencil_planes(grid, 2, slice(4, 6)) == range(3, 7)
    assert stencil_planes(grid, 2, slice(9, 10)) == range(7, 10)
    assert stencil_planes(grid, 4, slice(1, 2)) == range(0, 5)
    assert stencil_planes(grid, 4, slice(8, 9)) == range(5, 10)
    wrapped = Grid((10, 4, 4), (0.0,) * 3, (0.1,) * 3, (True, False, False))
    assert stencil_planes(wrapped, 4, slice(0, 10)) == range(-2, 12)
    with pytest.raises(LatticeError):      # a slab's own planes, not 3
        derivative_stack(np.zeros((3, 4, 4)), grid, 2, slice(0, 1), {})


@pytest.mark.parametrize("shape", [(4, 5, 6), (96, 96, 96), (7, 300, 300), (5, 4, 4, 4)])
def test_slabs_tile_axis_0_within_the_budget(shape, monkeypatch):
    import su2topo.lattice as lattice
    grid = Grid(shape, (0.0,) * len(shape), (0.1,) * len(shape), (False,) * len(shape))
    for budget in (1, 100, lattice.SLAB_SITES):
        monkeypatch.setattr(lattice, "SLAB_SITES", budget)
        parts = list(slabs(grid))
        assert parts[0].start == 0 and parts[-1].stop == shape[0]
        assert all(a.stop == b.start for a, b in zip(parts, parts[1:]))
        plane = int(np.prod(shape[1:]))
        for part in parts:
            planes = part.stop - part.start
            assert planes >= 1
            assert planes == 1 or planes * plane <= budget
