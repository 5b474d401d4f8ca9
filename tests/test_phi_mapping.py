import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import su2topo as st
from conftest import peak_traced_bytes
from su2topo import ZeroLocationError
from su2topo.fldio import read_field, write_field
from su2topo.lattice import interpolate
from su2topo import lattice, phi_mapping
from su2topo.phi_mapping import _cell_mask, _screen, _window, _zero_jacobian
import site_major as oracle
from site_major import cell_mask, qpoly_with_jet, sign_change_cells, simplex_count


def box(n=16, half=1.0):
    return st.box_grid((n, n, n, n), -half, half)


def test_jacobian_identity():
    phi = st.linear_phi_field(np.eye(4), np.zeros(4), box())
    jac = oracle.jacobian(phi)
    assert np.max(np.abs(jac - 1.0)) < 1e-13


def test_jacobian_swapped_components():
    m = np.eye(4)[[1, 0, 2, 3]]
    phi = st.linear_phi_field(m, np.zeros(4), box())
    jac = oracle.jacobian(phi)
    assert np.max(np.abs(jac + 1.0)) < 1e-13


@pytest.mark.parametrize("seed", range(3))
def test_jacobian_random_matrix(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    phi = st.linear_phi_field(m, np.zeros(4), box())
    jac = oracle.jacobian(phi)
    assert np.max(np.abs(jac - np.linalg.det(m))) < 1e-12 * abs(np.linalg.det(m)) + 1e-12


def test_locate_zero_on_lattice_site():
    grid = box(17)
    phi = st.linear_phi_field(np.eye(4), np.zeros(4), grid)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    assert not search.suspicious_cells
    zero = search.zeros[0]
    assert np.max(np.abs(np.array(zero.position))) < 1e-10
    assert zero.refined
    assert zero.jacobian == pytest.approx(1.0, abs=1e-10)


def test_locate_zero_off_grid_shift():
    grid = box(16)
    shift = np.array([0.0137, -0.0291, 0.0852, 0.0412])
    phi = st.linear_phi_field(np.eye(4), shift, grid)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    assert np.max(np.abs(np.array(search.zeros[0].position) - shift)) < 1e-10


def test_locate_zeros_two_roots():
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.9, 0.13, -0.08, 0.11], [0.9, -0.14, 0.09, -0.12]])
    phi = st.quaternion_polynomial_field(roots, grid)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 2
    found = sorted(z.position for z in search.zeros)
    for got, expected in zip(found, sorted(map(tuple, roots))):
        assert np.max(np.abs(np.array(got) - expected)) < 1e-8


def test_locate_zeros_too_close_raises():
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    h = max(grid.spacing)
    # separated by 0.7 h: far enough to survive dedup, too close to resolve
    roots = np.array([[-0.35 * h, 0.0, 0.0, 0.0], [0.35 * h, 0.0, 0.0, 0.0]])
    values, jet = qpoly_with_jet(grid.points(), roots)

    def sampler(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return qpoly_with_jet(points, roots)

    phi = st.PhiField(grid, values, jet=jet, sampler=sampler)
    with pytest.raises(ZeroLocationError):
        st.locate_zeros(phi)


def test_local_degree_identity_and_flip():
    grid = box(16)
    phi = st.linear_phi_field(np.eye(4), np.zeros(4), grid)
    zero = st.local_degree(phi, st.locate_zeros(phi).zeros[0])
    assert (zero.degree, zero.beta, zero.eta) == (1, 1, 1)
    assert not zero.degenerate

    m = np.eye(4)
    m[0, 0] = -1.0
    flipped = st.linear_phi_field(m, np.zeros(4), grid)
    zero2 = st.local_degree(flipped, st.locate_zeros(flipped).zeros[0])
    assert (zero2.degree, zero2.beta, zero2.eta) == (-1, 1, -1)


def test_local_degree_quaternion_square_degenerate():
    grid = box(16)
    phi = st.quaternion_power_field(2, grid)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    zero = st.local_degree(phi, search.zeros[0])
    assert (zero.degree, zero.beta, zero.eta) == (2, 2, 1)
    assert zero.degenerate
    assert abs(zero.jacobian) <= 1e-8


def test_local_degree_radius_independent():
    grid = box(16)
    phi = st.quaternion_power_field(2, grid)
    zero = st.locate_zeros(phi).zeros[0]
    r = 3.0 * max(grid.spacing)
    d1 = st.local_degree(phi, zero, radius=r).degree
    d2 = st.local_degree(phi, zero, radius=0.5 * r).degree
    assert d1 == d2


def test_degree_additivity_over_enclosing_sphere():
    # the zeros' degrees add up to the degree of phi on the enclosing
    # 3-sphere that is the box's boundary, which the boundary flux measures
    # from the faces alone
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.7, 0.1, -0.05, 0.08], [0.7, -0.1, 0.06, -0.07]])
    phi = st.quaternion_polynomial_field(roots, grid)
    search = st.locate_zeros(phi)
    zeros = [st.local_degree(phi, z) for z in search.zeros]
    assert [z.degree for z in zeros] == [1, 1]
    assert sum(z.degree for z in zeros) == round(st.boundary_degree(phi)) == 2


def test_orientation_flip_property():
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.9, 0.1, -0.05, 0.08], [0.9, -0.1, 0.06, -0.07]])
    phi = st.quaternion_polynomial_field(roots, grid)
    analysis = st.analyze(phi)

    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    whole = oracle.stored(phi)
    flipped_values = whole.values @ flip
    flipped_jet = whole.jet @ flip

    def sampler(points):
        values, jacobians = phi.sampler(points)
        return values @ flip, jacobians @ flip

    flipped = st.PhiField(grid, flipped_values, jet=flipped_jet, sampler=sampler)
    flipped_analysis = st.analyze(flipped)

    etas = sorted(z.eta for z in analysis.ledger.zeros)
    etas_flipped = sorted(-z.eta for z in flipped_analysis.ledger.zeros)
    assert etas == etas_flipped
    assert [z.beta for z in analysis.ledger.zeros] == \
        [z.beta for z in flipped_analysis.ledger.zeros]
    assert flipped_analysis.ledger.index_sum == -analysis.ledger.index_sum
    assert flipped_analysis.ledger.boundary_c2 == pytest.approx(
        -analysis.ledger.boundary_c2, abs=1e-10)


def test_regular_zeros_have_unit_hopf_index():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(4, 4)) + 2.5 * np.eye(4)
    grid = box(16)
    phi = st.linear_phi_field(m, np.zeros(4), grid)
    zero = st.local_degree(phi, st.locate_zeros(phi).zeros[0])
    assert zero.beta == 1
    assert zero.eta == int(np.sign(np.linalg.det(m)))


def test_ledger_trivial_no_zeros():
    # no zeros: the boundary flux is pure O(h^2) quadrature error
    errors = []
    for grid in (box(12), box(23)):
        phi = st.linear_phi_field(np.eye(4), [5.0, 5.0, 5.0, 5.0], grid)
        analysis = st.analyze(phi)
        assert analysis.ledger.index_sum == 0
        assert analysis.ledger.passed
        errors.append(abs(analysis.ledger.boundary_c2))
    assert 3.0 <= errors[0] / errors[1] <= 5.0


def test_ledger_two_root_polynomial():
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.9, 0.13, -0.08, 0.11], [0.9, -0.14, 0.09, -0.12]])
    phi = st.quaternion_polynomial_field(roots, grid)
    analysis = st.analyze(phi)
    ledger = analysis.ledger
    assert ledger.index_sum == 2
    assert all(z.beta == 1 and z.eta == 1 for z in ledger.zeros)
    assert abs(ledger.boundary_c2 - 2.0) < 0.05
    assert ledger.passed
    assert ledger.chi == ledger.index_sum


def test_ledger_quaternion_square_degenerate_charge():
    grid = box(16)
    phi = st.quaternion_power_field(2, grid)
    analysis = st.analyze(phi)
    ledger = analysis.ledger
    assert len(ledger.zeros) == 1
    assert ledger.zeros[0].degenerate
    assert ledger.index_sum == 2
    assert abs(ledger.boundary_c2 - 2.0) < 0.04
    assert ledger.passed


def test_ledger_excludes_degree_zero_with_warning():
    grid = box(17)

    def sampler(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = points.copy()
        out[:, 3] = points[:, 3] ** 2   # fold: no sign change, degree 0
        jacobians = np.broadcast_to(np.eye(4), points.shape + (4,)).copy()
        jacobians[:, 3, 3] = 2.0 * points[:, 3]
        return out, jacobians

    pts = grid.points()
    values = sampler(pts.reshape(-1, 4))[0].reshape(grid.shape + (4,))
    phi = st.PhiField(grid, values, sampler=sampler)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    zero = st.local_degree(phi, search.zeros[0])
    assert zero.degree == 0
    with pytest.warns(UserWarning):
        ledger = st.charge_ledger([zero], boundary_c2=0.0)
    assert ledger.index_sum == 0
    assert not ledger.zeros


def test_boundary_zero_rejected():
    # lattice-only field (no sampler): the sampling sphere around a zero
    # this close to the boundary leaves the interpolation domain
    grid = box(12)
    analytic = st.linear_phi_field(np.eye(4), [0.98, 0.0, 0.0, 0.0], grid)
    whole = oracle.stored(analytic)
    phi = st.PhiField(grid, whole.values, jet=whole.jet)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    with pytest.raises(ZeroLocationError):
        st.local_degree(phi, search.zeros[0])


# --------------------------------------------------------------------------
# sign screen against the 16-corner reference
# --------------------------------------------------------------------------

def _corner_screen_reference(values, grid):
    """Min/max over the 16 corners of each cell, one full copy per corner."""
    cells_shape = tuple(n if grid.periodic[i] else n - 1
                        for i, n in enumerate(grid.shape))
    mins = maxs = None
    for corner in range(16):
        take = values
        for ax in range(4):
            idx = np.arange(cells_shape[ax])
            if (corner >> ax) & 1:
                idx = (idx + 1) % grid.shape[ax]
            take = np.take(take, idx, axis=ax)
        mins = take if mins is None else np.minimum(mins, take)
        maxs = take if maxs is None else np.maximum(maxs, take)
    return np.all((mins <= 0.0) & (maxs >= 0.0), axis=-1)


@settings(max_examples=60)
@given(shape=hst.tuples(*[hst.integers(4, 7)] * 4),
       periodic=hst.tuples(*[hst.booleans()] * 4),
       cell_centered=hst.booleans(),
       negative=hst.floats(0.02, 0.25),
       seed=hst.integers(0, 2**32 - 1))
def test_sign_screen_matches_corner_reference(shape, periodic, cell_centered,
                                              negative, seed):
    grid = st.Grid(shape, (0.0,) * 4, (0.25,) * 4, periodic,
                   cell_centered=cell_centered)
    rng = np.random.default_rng(seed)
    # Sites are negative with the drawn probability, so from few to most
    # cells are candidates; the coarse levels give ties and exact zeros.
    levels = rng.integers(0, 3, size=shape + (4,)).astype(np.float64)
    values = np.where(rng.random(levels.shape) < negative, -1.0 - levels, levels)
    mask = sign_change_cells(values, grid)
    expected = _corner_screen_reference(values, grid)
    assert mask.shape == expected.shape
    assert np.array_equal(mask, expected)
    assert np.array_equal(_screen(st.PhiField(grid, values))[0], np.argwhere(expected))


def test_sign_screen_finds_a_change_across_the_periodic_wrap():
    grid = st.Grid((6, 5, 5, 5), (0.0,) * 4, (0.25,) * 4,
                   (True, False, False, False))
    x = grid.points()
    values = np.empty(grid.shape + (4,))
    # phi^0 is -1 on the last site of axis 0 and +1 elsewhere: the signs
    # change in the cell before the last site and in the cell from the
    # last site back to the first, which exists only on a periodic axis.
    values[..., 0] = 1.0
    values[-1, ..., 0] = -1.0
    values[..., 1:] = x[..., 1:] - 0.55
    mask = sign_change_cells(values, grid)
    assert np.array_equal(mask, _corner_screen_reference(values, grid))
    assert [tuple(c) for c in np.argwhere(mask)] == [(4, 2, 2, 2), (5, 2, 2, 2)]
    assert _screen(st.PhiField(grid, values))[0].tolist() == [[4, 2, 2, 2], [5, 2, 2, 2]]

    open_grid = st.Grid(grid.shape, grid.origin, grid.spacing, (False,) * 4)
    open_mask = sign_change_cells(values, open_grid)
    assert [tuple(c) for c in np.argwhere(open_mask)] == [(4, 2, 2, 2)]
    assert _screen(st.PhiField(open_grid, values))[0].tolist() == [[4, 2, 2, 2]]


@settings(max_examples=80)
@given(rows=hst.integers(1, 3),
       plane=hst.tuples(*[hst.integers(4, 6)] * 3),
       periodic=hst.tuples(*[hst.booleans()] * 3),
       zero_planes=hst.lists(hst.tuples(hst.integers(0, 3), hst.integers(1, 3),
                                        hst.integers(0, 5), hst.sampled_from([0.0, -0.0]),
                                        hst.booleans()), max_size=6),
       seed=hst.integers(0, 2**32 - 1), band=hst.sampled_from([0.0, 0.7]))
def test_boolean_cell_mask_equals_the_corner_min_max_rule(rows, plane, periodic, zero_planes,
                                                          seed, band):
    # component-major planes whose cells span 0 in few to most components:
    # the boolean mask (some corner <= band and some corner >= -band)
    # equals the site-major corner min/max rule, with zeros of both signs
    # and exact zeros on whole planes of corners, on open and periodic axes
    grid = st.Grid((4,) + plane, (0.0,) * 4, (0.25,) * 4, (False,) + periodic)
    rng = np.random.default_rng(seed)
    shape = (rows, 4) + plane
    lower, upper = (rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=shape)
                    * rng.uniform(0.5, 1e3, size=shape) for _ in range(2))
    for comp, axis, index, zero, both in zero_planes:
        take = (slice(None), comp) + (slice(None),) * (axis - 1) + (index % plane[axis - 1],)
        lower[take] = zero
        if both:
            upper[take] = zero
    mask = _cell_mask(lower, upper, grid, band)
    expected = cell_mask(lattice.site_major(lower, 4), lattice.site_major(upper, 4), grid,
                         band)
    assert mask.dtype == bool and mask.shape == expected.shape
    assert np.array_equal(mask, expected)
    norms = np.linalg.norm(lattice.site_major(lower, 4), axis=-1)
    assert np.array_equal(phi_mapping._norms(lower), norms)


@settings(max_examples=40)
@given(shape=hst.tuples(*[hst.integers(4, 7)] * 4),
       periodic0=hst.booleans(),
       plane_budget=hst.booleans(),
       negative=hst.floats(0.02, 0.25),
       scale=hst.sampled_from([1e-3, 1.0, 1e4]),
       seed=hst.integers(0, 2**32 - 1))
def test_slab_screen_lists_the_whole_grid_candidates(shape, periodic0, plane_budget,
                                                     negative, scale, seed):
    # the screen runs one slab of cells at a time with a halo plane; its
    # starts are np.argwhere of the whole-grid masks, in the same order
    grid = st.Grid(shape, (0.0,) * 4, (0.25,) * 4, (periodic0, False, True, False))
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 3, size=shape + (4,)).astype(np.float64)
    values = scale * np.where(rng.random(levels.shape) < negative, -1.0 - levels, levels)
    # seed sites: one zero, and one just below the threshold the largest
    # norm sets, which any slab's own largest norm may not reach
    top = np.linalg.norm(values, axis=-1).max()
    values[tuple(rng.integers(0, n) for n in shape)] = 0.0
    values[tuple(rng.integers(0, n) for n in shape)] = [0.9e-9 * max(1.0, top), 0, 0, 0]
    with pytest.MonkeyPatch.context() as mp:
        if plane_budget:
            mp.setattr(lattice, "SLAB_SITES", 1)
        cells, sites, _, _ = _screen(st.PhiField(grid, values))
    mask = sign_change_cells(values, grid)
    assert np.array_equal(mask, _corner_screen_reference(values, grid))
    assert np.array_equal(cells, np.argwhere(mask))
    norms = np.linalg.norm(values, axis=-1)
    assert np.array_equal(sites, np.argwhere(norms < 1e-9 * max(1.0, norms.max())))


@pytest.mark.parametrize("planes", [1, 2, 5])
def test_screen_of_served_values_equals_the_whole_grid_screen(planes, monkeypatch):
    # a box field's screen reads each slab once, carrying one plane; its
    # starts are those of the whole-grid masks, and the same as a stored
    # copy's, on an open box and on one periodic in axis 0, with a zero on
    # a site
    grid = st.box_grid((13, 9, 10, 11), -1.0, 1.0)
    periodic = st.Grid(grid.shape, grid.origin, grid.spacing, (True, False, True, False))
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 9 * 10 * 11)
    for g in (grid, periodic):
        site = g.points()[6, 4, 5, 5]
        phi = st.quaternion_polynomial_field([site, [0.6, -0.55, 0.6, 0.5]], g)
        values = oracle.stored(phi).values
        cells, sites, points, signs = _screen(phi)
        assert np.array_equal(cells, np.argwhere(sign_change_cells(values, g)))
        norms = np.linalg.norm(values, axis=-1)
        assert np.array_equal(sites, np.argwhere(norms < 1e-9 * max(1.0, norms.max())))
        assert [6, 4, 5, 5] in sites.tolist() and len(cells)
        stored = _screen(st.PhiField(g, values))
        assert np.array_equal(stored[0], cells) and np.array_equal(stored[1], sites)
        # the counted simplices too, bit for bit
        assert stored[2].tobytes() == points.tobytes() and len(points)
        assert np.array_equal(stored[3], signs)


def test_analyze_on_a_box_holds_no_whole_values():
    # the zero ledger of a box field at 32^4 reads its values per slab: the
    # whole analysis, the build included, peaks below half of the 33.5 MB
    # of values that a stored field holds (measured 0.36 of them, against
    # 1.16 for the build and the analysis with the values stored)
    grid = box(32, 2.0)
    roots = np.array([[-0.6, 0.1, -0.05, 0.2], [0.6, -0.1, 0.05, -0.2]])
    values_bytes = 32**4 * 4 * 8
    peak, analysis = peak_traced_bytes(
        lambda: st.analyze(st.quaternion_polynomial_field(roots, grid)))
    assert analysis.ledger.index_sum == 2 and analysis.ledger.passed
    assert peak < 0.5 * values_bytes


def _planted_zero(where, index, frac, grid):
    """A zero position: on a site, on lattice planes, at a cell centre, or on
    an axis-0 plane (a slab boundary when each slab is one plane)."""
    h = np.array(grid.spacing)
    site = np.array([grid.coords(i)[k] for i, k in enumerate(index)])
    if where == "site":
        return site
    if where == "centre":
        return np.array([grid.origin[i] + (k + 0.5) * h[i] for i, k in enumerate(index)])
    off = site + np.asarray(frac) * h
    if where == "planes":
        return np.where(np.asarray(frac) < 0.5, site, off)
    return np.concatenate([site[:1], off[1:]])          # "slab boundary"


@settings(max_examples=24)
@given(where=hst.sampled_from(["site", "planes", "centre", "slab boundary"]),
       index=hst.tuples(*[hst.integers(3, 5)] * 4),
       frac=hst.tuples(*[hst.floats(0.0, 0.99)] * 4),
       aligned=hst.booleans(),
       seed=hst.integers(0, 2**32 - 1))
def test_planted_zero_gets_one_ledger_on_both_evaluators(where, index, frac,
                                                         aligned, seed):
    # One linear zero, planted at least three cells from every face; each
    # slab holds one plane.  A signed permutation puts components to 0 on
    # whole lattice planes; a random rotation does not.
    grid = box(10)
    rng = np.random.default_rng(seed)
    if aligned:
        matrix = np.eye(4)[rng.permutation(4)] * rng.choice([-1.0, 1.0], size=4)
    else:
        matrix, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    zero = _planted_zero(where, index, frac, grid)
    phi = st.linear_phi_field(matrix, zero, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "SLAB_SITES", 1)
        ledgers = [st.analyze(field).ledger
                   for field in (phi, st.PhiField(grid, oracle.stored(phi).values))]
    for ledger in ledgers:
        assert len(ledger.zeros) == 1
        assert ledger.index_sum == int(np.sign(np.linalg.det(matrix)))
        assert np.max(np.abs(np.subtract(ledger.zeros[0].position, zero))) < 1e-8


# --------------------------------------------------------------------------
# the sampler and the interpolant read the same zeros
# --------------------------------------------------------------------------

def _evaluator_cases():
    g16 = box(16)
    roots = [[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]]
    return [
        ("linear", lambda: st.linear_phi_field(
            np.eye(4), [0.05, -0.03, 0.02, 0.01], g16), True),
        ("qpoly", lambda: st.quaternion_polynomial_field(
            roots, st.box_grid((24,) * 4, -2.0, 2.0)), True),
        ("qpower-1", lambda: st.quaternion_power_field(-1, g16), True),
        # the interpolant splits the degree-2 zero of q^2 into two
        # degree-1 zeros; only the ledger sum is shared
        ("qpower2", lambda: st.quaternion_power_field(2, g16), False),
    ]


@pytest.mark.parametrize("name, build, same_zeros", _evaluator_cases(),
                         ids=[case[0] for case in _evaluator_cases()])
def test_sampler_and_lattice_only_copy_agree(name, build, same_zeros):
    phi = build()
    whole = oracle.stored(phi)
    bare = st.PhiField(phi.grid, whole.values, jet=whole.jet)
    assert phi.sampler is not None and bare.sampler is None
    sampled = st.analyze(phi).ledger
    interpolated = st.analyze(bare).ledger
    assert interpolated.index_sum == sampled.index_sum
    if not same_zeros:
        return
    assert ([(z.degree, z.beta, z.eta) for z in interpolated.zeros]
            == [(z.degree, z.beta, z.eta) for z in sampled.zeros])
    cell = np.array(phi.grid.spacing)
    for a, b in zip(sampled.zeros, interpolated.zeros):
        assert np.all(np.abs(np.subtract(a.position, b.position)) < cell)


# --------------------------------------------------------------------------
# the zero Jacobian of lattice-only fields
# --------------------------------------------------------------------------

def _lattice_only_cases(tmp_path):
    roots = [[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]]
    qpoly = st.quaternion_polynomial_field(roots, st.box_grid((24,) * 4, -2.0, 2.0))
    path = str(tmp_path / "qpoly.fld")
    write_field(qpoly, path)
    linear = st.linear_phi_field(np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0],
                                           [0.1, 0.0, 1.0, 0.2], [0.0, 0.4, 0.0, 1.0]]),
                                 [0.05, -0.03, 0.02, 0.01], box(16))
    return {"jet 24^4 qpoly file": read_field(path),
            "jet periodic file": read_field(_periodic_phi_file(tmp_path)[0]),
            "jet-less 16^4 linear": st.PhiField(linear.grid, oracle.stored(linear).values)}


def _periodic_phi_file(tmp_path):
    """A phi file with exact jets on a grid periodic in axes 0 and 3, with
    phi0 and phi3 sines of those axes: of its four zeros, one lies in the
    first cell of axis 0 and one in the seam cell of axis 3, so their 4^4
    Jacobian windows wrap.  Returns the path and the stored-jet field."""
    grid = st.Grid((12, 10, 10, 12), (0.0, -1.0, -1.0, 0.0), (0.5, 0.2, 0.2, 0.5),
                   (True, False, False, True))
    x = grid.points()
    k = 2.0 * np.pi / 6.0                    # one period over 12 sites of 0.5
    phase0, phase3 = k * (x[..., 0] - 0.15), k * (x[..., 3] - 5.8)
    values = np.stack([np.sin(phase0), x[..., 1] - 0.05, x[..., 2] + 0.03,
                       np.sin(phase3)], axis=-1)
    jet = np.zeros(grid.shape + (4, 4))
    jet[..., 0, 0] = k * np.cos(phase0)
    jet[..., 1, 1] = jet[..., 2, 2] = 1.0
    jet[..., 3, 3] = k * np.cos(phase3)
    phi = st.PhiField(grid, values, jet=jet)
    path = str(tmp_path / "periodic.fld")
    write_field(phi, path)
    return path, phi


def test_zero_jacobian_equals_the_whole_grid_route(tmp_path):
    for name, phi in _lattice_only_cases(tmp_path).items():
        assert phi.sampler is None, name
        full = oracle.jacobian(phi)
        zeros = st.locate_zeros(phi).zeros
        assert zeros, name
        for zero in zeros:
            x = np.asarray(zero.position)[None]
            assert zero.jacobian == interpolate(full, phi.grid, x)[0], name


def test_zero_jacobian_on_periodic_and_boundary_cells():
    # periodic wraps, cell-centered sites and points in the boundary cells
    grid = st.Grid((6, 5, 7, 4), (0.0, 0.3, -1.0, 2.0), (0.3, 0.2, 0.25, 0.5),
                   (False, True, False, True), cell_centered=True)
    rng = np.random.default_rng(5)
    phi = st.PhiField(grid, rng.normal(size=grid.shape + (4,)))
    full = oracle.jacobian(phi)
    lo = np.array([grid.coords(i)[0] for i in range(4)])
    hi = np.array([grid.coords(i)[-1] for i in range(4)])
    for t in rng.random((200, 4)):
        x = lo + t * (hi - lo)
        x[[1, 3]] += rng.uniform(-2.0, 2.0, size=2)   # across the periodic wrap
        assert _zero_jacobian(phi, x) == interpolate(full, grid, x[None])[0]


def test_interpolants_read_the_bounding_block_of_their_points(tmp_path):
    # Newton and the zero Jacobian of a lattice-only field read the block
    # that bounds their points, wrapped on periodic axes, from the file;
    # the values and gradients equal whole-grid interpolation bit for bit,
    # for clusters of points across the wrap and for points spread over
    # the whole grid
    grid = st.Grid((7, 6, 9, 5), (0.0, 0.3, -1.0, 2.0), (0.3, 0.2, 0.25, 0.5),
                   (False, True, False, True), cell_centered=True)
    rng = np.random.default_rng(6)
    phi = st.PhiField(grid, rng.normal(size=grid.shape + (4,)))
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    back = read_field(path)
    lo = np.array([grid.coords(i)[0] for i in range(4)])
    hi = np.array([grid.coords(i)[-1] for i in range(4)])
    reads = []
    real = back.block_values

    def values_evaluator(field):
        def evaluate(points):
            take = lattice.interpolation_window(field.grid, points)
            return st.interpolate(_window(field.values_at, take), field.grid, points,
                                  [int(t[0]) for t in take])
        return evaluate

    object.__setattr__(back, "block_values",
                       lambda block: reads.append(block) or real(block))
    for center, radius in [(rng.uniform(lo, hi), 0.6) for _ in range(20)] + [
            (hi, 0.3), ((lo + hi) / 2, 10.0)]:
        points = center + radius * rng.uniform(-1.0, 1.0, (50, 4))
        points[:, [0, 2]] = np.clip(points[:, [0, 2]], lo[[0, 2]], hi[[0, 2]])
        for interpolator, evaluator in ((st.interpolate, values_evaluator),
                                        (lattice.interpolate_with_gradient,
                                         phi_mapping._evaluator)):
            reads.clear()
            got, expected = (r if isinstance(r, tuple) else (r,) for r in (
                evaluator(back)(points), interpolator(phi.values, grid, points)))
            assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]
            sites = [np.unique(t) for t in lattice.interpolation_window(grid, points)]
            assert sum(np.prod([len(range(*p.indices(n))) for p, n in
                                zip(block, grid.shape)]) for block in reads) == \
                np.prod([len(t) for t in sites])


def test_sampler_backed_field_runs_no_stencil(monkeypatch):
    import su2topo.lattice as lattice
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, box(16, 2.0))
    expected = st.analyze(phi).ledger

    def no_stencils(*args, **kwargs):
        raise AssertionError("finite differences on a field with exact jets")

    monkeypatch.setattr(lattice, "derivative_stack", no_stencils)
    assert st.analyze(phi).ledger == expected
    # the lattice-only copy differentiates its face samples
    with pytest.raises(AssertionError, match="finite differences"):
        st.analyze(st.PhiField(phi.grid, oracle.stored(phi).values))


def test_zeros_of_a_jet_file_equal_those_of_the_stored_jet(tmp_path):
    # a phi file serves its jet from the file; the zero search, the
    # Jacobians, the degrees and the boundary flux equal, bit for bit,
    # those of the same file held as an in-memory stored-jet field
    cases = _lattice_only_cases(tmp_path)
    phi = cases["jet 24^4 qpoly file"]
    assert phi.jet is None and phi.block_jet is not None
    stored = oracle.stored(phi)
    got, expected = st.analyze(phi), st.analyze(stored)
    assert len(got.ledger.zeros) == 2
    assert got.ledger.boundary_c2 == expected.ledger.boundary_c2
    for a, b in zip(got.ledger.zeros, expected.ledger.zeros):
        assert (a.position, a.jacobian, a.degree) == (b.position, b.jacobian, b.degree)
    assert got == expected


def test_wrapped_zero_windows_read_the_file_jet(tmp_path):
    # analyze rejects periodic boxes, so the wrapped Jacobian windows of a
    # periodic file are checked through locate_zeros
    path, stored = _periodic_phi_file(tmp_path)
    phi = read_field(path)
    assert phi.jet is None
    got, expected = st.locate_zeros(phi), st.locate_zeros(stored)
    assert len(got.zeros) == 4 and got == expected
    grid = phi.grid
    bases = [[int(np.floor((z.position[ax] - grid.origin[ax]) / grid.spacing[ax]))
              % grid.shape[ax] for ax in (0, 3)] for z in got.zeros]
    # a base cell 0 or n-2, n-1 on a periodic axis wraps the 4-site window
    assert any(b[0] == 0 for b in bases) and any(b[1] == 11 for b in bases)


def test_zeros_on_a_jet_file_peaks_below_the_values_and_one_plane(tmp_path):
    # the jet (4x the values) and the values stay in the file.  Every jet
    # reader on the zeros path (read, zero search, boundary flux) peaks
    # within a few jet planes, below the values (5 jet planes) and one
    # plane, and the whole analysis within one plane of a values-only copy
    # of the file
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    path, bare_path = str(tmp_path / "phi.fld"), str(tmp_path / "bare.fld")
    write_field(phi, path)
    write_field(st.PhiField(grid, oracle.stored(phi).values), bare_path)
    values = 20**4 * 4 * 8
    plane = values * 4 // 20

    def peak(run):
        return peak_traced_bytes(run)[0]

    def jet_readers():
        field = read_field(path)
        st.locate_zeros(field)
        st.boundary_degree(field)

    # measured 5.2 planes (10.0 with the values resident); a resident jet
    # is 20 more
    assert peak(jet_readers) < values + plane
    analysis = []
    jet_peak = peak(lambda: analysis.append(st.analyze(read_field(path))))
    bare_peak = peak(lambda: st.analyze(read_field(bare_path)))
    assert analysis[0].ledger.index_sum == 2
    assert jet_peak < bare_peak + plane


# --------------------------------------------------------------------------
# the simplex count
# --------------------------------------------------------------------------

def _counted_fields():
    grid = st.box_grid((10,) * 4, -2.0, 2.0)
    matrix = np.array([[1.0, 0.2, 0.0, 0.1], [0.0, -1.0, 0.3, 0.0],
                       [0.1, 0.0, 1.0, 0.2], [0.0, 0.4, 0.0, 1.0]])
    return {
        "qpoly": st.quaternion_polynomial_field(
            [[-1.0, 0.11, -0.07, 0.13], [1.0, -0.12, 0.08, -0.1]], grid),
        "qpower-3": st.quaternion_power_field(-3, grid),
        "qpower2": st.quaternion_power_field(2, grid),
        "linear": st.linear_phi_field(matrix, [0.05, -0.03, 0.02, 0.01], grid),
        # a zero on a site: three components vanish on whole planes
        "linear on a site": st.linear_phi_field(np.eye(4), grid.points()[4, 5, 5, 5], grid),
    }


@pytest.mark.parametrize("name", ["qpoly", "qpower-3", "qpower2", "linear",
                                  "linear on a site"])
def test_the_count_equals_a_simplex_by_simplex_solve(name, monkeypatch):
    # the screen counts the simplices of the cells whose corners span y;
    # a solve of every simplex of every cell finds the same ones, with the
    # same signs and preimages, at any slab size
    phi = _counted_fields()[name]
    values = oracle.stored(phi).values
    y = 1e-9 * np.linalg.norm(values[0], axis=-1).max() * phi_mapping.Y_DIRECTION
    expected = simplex_count(values, phi.grid, y)
    for planes in (1, 3):
        monkeypatch.setattr(lattice, "SLAB_SITES", planes * 10**3)
        _, _, points, signs = _screen(phi)
        got = sorted(zip(signs.tolist(), map(tuple, points)))
        assert [sign for sign, _ in got] == [sign for sign, _ in expected]
        assert np.allclose([p for _, p in got], [p for _, p in expected],
                           rtol=0.0, atol=1e-12)
    total = {"qpoly": 2, "qpower-3": -3, "qpower2": 2, "linear": -1,
             "linear on a site": 1}[name]
    assert sum(sign for sign, _ in expected) == total


def test_a_zero_gets_the_simplices_nearest_to_it():
    # the three simplices of the triple zero of q^-3 are counted once each,
    # at the Newton zero nearest to each; a zero with no simplex has degree 0
    grid = st.box_grid((16,) * 4, -2.0, 2.0)
    bare = st.PhiField(grid, oracle.stored(st.quaternion_power_field(-3, grid)).values)
    search = st.locate_zeros(bare)
    _, _, points, signs = _screen(bare)
    assert signs.tolist() == [-1, -1, -1]
    assert [z.degree for z in search.zeros] == [-1, -1, -1]
    positions = np.array([z.position for z in search.zeros])
    nearest = np.argmin(np.linalg.norm(points[:, None] - positions[None], axis=2), axis=1)
    assert sorted(nearest.tolist()) == [0, 1, 2]
    assert phi_mapping._assign(points, signs, [positions[0]], grid).tolist() == [-3]
    assert phi_mapping._assign(points[:0], signs[:0], list(positions), grid).tolist() == \
        [0, 0, 0]


@pytest.mark.parametrize("power", [1, -1, 2, -2])
@pytest.mark.parametrize("n", [12, 16])
def test_sampler_jet_file_and_bare_copy_count_alike(tmp_path, n, power):
    # box q^n through its sampler, its jet file and a values-only copy:
    # the same index sum and a PASS on each.  For q^+-1 the zeros, their
    # degrees, beta and eta agree too; Newton on the interpolant splits the
    # degree-2 zero of q^+-2 into two zeros, which share its two simplices
    phi = st.quaternion_power_field(power, st.box_grid((n,) * 4, -2.0, 2.0))
    path = str(tmp_path / "q.fld")
    write_field(phi, path)
    routes = [phi, read_field(path), st.PhiField(phi.grid, oracle.stored(phi).values)]
    ledgers = [st.analyze(field).ledger for field in routes]
    for ledger in ledgers:
        assert ledger.index_sum == power and ledger.passed
        assert sum(z.degree for z in ledger.zeros) == power
    zeros = [[(z.degree, z.beta, z.eta) for z in ledger.zeros] for ledger in ledgers]
    if abs(power) == 1:
        assert zeros[0] == zeros[1] == zeros[2] == [(power, 1, power)]
    else:
        assert zeros[0] == [(power, 2, power // 2)]
        assert zeros[1] == zeros[2] == [(power // 2, 1, power // 2)] * 2


def test_sampler_jet_file_and_bare_copy_count_a_qpoly_alike(tmp_path):
    roots = [[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]]
    phi = st.quaternion_polynomial_field(roots, st.box_grid((16,) * 4, -2.0, 2.0))
    path = str(tmp_path / "q.fld")
    write_field(phi, path)
    routes = [phi, read_field(path), st.PhiField(phi.grid, oracle.stored(phi).values)]
    zeros = [[(z.cell_index, z.degree, z.beta, z.eta) for z in st.analyze(f).ledger.zeros]
             for f in routes]
    assert zeros[0] == zeros[1] == zeros[2]
    assert [z[1:] for z in zeros[0]] == [(1, 1, 1)] * 2
