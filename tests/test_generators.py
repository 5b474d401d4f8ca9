import numpy as np
import pytest

import su2topo as st
from conftest import peak_traced_bytes
from su2_gauge import dagger, transformation
from su2topo import FieldError
from su2topo.chern_simons import chern_simons
from su2topo.lattice import component_major, derivative_stack, site_major
import site_major as oracle
from site_major import qpoly_values, qpower_values, qpower_with_jet


def test_identity_map_unit_norm_and_jets():
    psi = st.identity_map_s3(12)
    assert st.normalize(psi) is psi
    norms = st.norm_squared(component_major(oracle.stored(psi).values, 3), 0)
    assert np.max(np.abs(norms - 1.0)) < 1e-14
    # no jet is stored; the exact one is the chart formula's, bit for bit
    assert psi.jet is None
    _, dn = st.s3_unit_vectors(psi.grid)
    assert np.array_equal(oracle.stored(psi).jet, dn.view(np.complex128))


def test_identity_map_is_calibration_configuration():
    psi = st.identity_map_s3(24)
    q = chern_simons(psi).q_spinor
    assert abs(q - 1.0) < 5e-3
    assert q > 0.0   # the calibration fixes the sign, not just the modulus


def test_identity_map_hopf_projection():
    psi = st.identity_map_s3(12)
    m = st.sigma_model_field(component_major(oracle.stored(psi).values, 3))
    assert np.array_equal(site_major(m, 3), oracle.sigma_model_field(psi))
    assert np.max(np.abs(np.sum(m**2, axis=1) - 1.0)) < 1e-12


def test_quaternion_power_one_equals_linear():
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    power = st.quaternion_power_field(1, grid)
    linear = st.linear_phi_field(np.eye(4), np.zeros(4), grid)
    power, linear = oracle.stored(power), oracle.stored(linear)
    assert np.array_equal(power.values, linear.values)
    assert np.array_equal(power.jet, linear.jet)


def test_quaternion_square_fixed_point():
    grid = st.box_grid((9, 8, 8, 8), -1.5, 1.5)
    phi = st.quaternion_power_field(2, grid)
    probe = phi.sampler(np.array([[1.0, 0.0, 0.0, 0.0]]))[0][0]
    assert np.allclose(probe, [1.0, 0.0, 0.0, 0.0])


def test_quaternion_power_unit_norm_on_chart():
    grid = st.s3_chart_grid(12)
    for n in (-2, 3):
        phi = st.quaternion_power_field(n, grid)
        norms = np.sum(oracle.stored(phi).values**2, axis=-1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_quaternion_power_boundary_degree():
    # the simplices counted on the box sum to the power
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    for n in (2, -2):
        phi = st.quaternion_power_field(n, grid)
        assert sum(z.degree for z in st.locate_zeros(phi).zeros) == n


def test_quaternion_power_rejects_zero():
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    with pytest.raises(FieldError):
        st.quaternion_power_field(0, grid)


def test_quaternion_polynomial_single_root():
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    root = np.array([[0.21, -0.17, 0.09, 0.03]])
    phi = st.quaternion_polynomial_field(root, grid)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    zero = st.local_degree(phi, search.zeros[0])
    assert (zero.degree, zero.beta, zero.eta) == (1, 1, 1)


def test_quaternion_polynomial_repeated_root_degree_two():
    grid = st.box_grid((14, 14, 14, 14), -1.0, 1.0)
    c = np.array([0.05, -0.03, 0.01, 0.02])
    phi = st.quaternion_polynomial_field(np.array([c, c]), grid)
    search = st.locate_zeros(phi)
    assert len(search.zeros) == 1
    zero = st.local_degree(phi, search.zeros[0])
    assert zero.degree == 2
    assert zero.degenerate


def test_quaternion_polynomial_separation_guard():
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    h = max(grid.spacing)
    roots = np.array([[0.0, 0.0, 0.0, 0.0], [2.0 * h, 0.0, 0.0, 0.0]])
    with pytest.raises(FieldError):
        st.quaternion_polynomial_field(roots, grid)


def test_quaternion_polynomial_root_outside_box():
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    with pytest.raises(FieldError):
        st.quaternion_polynomial_field(np.array([[2.0, 0.0, 0.0, 0.0]]), grid)


def test_linear_field_negative_determinant():
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    m = np.diag([-1.0, 1.0, 1.0, 1.0])
    phi = st.linear_phi_field(m, np.zeros(4), grid)
    zero = st.local_degree(phi, st.locate_zeros(phi).zeros[0])
    assert zero.eta == -1


def test_linear_field_zero_and_jacobian():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    c = np.array([0.11, -0.07, 0.02, 0.05])
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    phi = st.linear_phi_field(m, c, grid)
    zero = st.locate_zeros(phi).zeros[0]
    assert np.max(np.abs(np.array(zero.position) - c)) < 1e-10
    det = np.linalg.det(m)
    assert abs(zero.jacobian - det) < 1e-12 * abs(det)


def test_linear_field_rejects_singular_matrix():
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    m = np.eye(4)
    m[3, 3] = 0.0
    with pytest.raises(FieldError):
        st.linear_phi_field(m, np.zeros(4), grid)


def test_random_config_deterministic():
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    a = st.random_config(123, "spinor", grid)
    b = st.random_config(123, "spinor", grid)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.jet, b.jet)


def test_random_spinor_norm_bound():
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    for seed in range(5):
        psi = st.random_config(seed, "spinor", grid)
        assert np.min(np.sqrt(st.norm_squared(component_major(psi.values, 4), 0))) >= 0.5


def test_random_su2_satisfies_invariants():
    # the random SU(2) transformation of the gauge-covariance tests
    # (tests/su2_gauge.py): unitary with unit determinant, non-abelian and
    # varying in space
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    s = transformation(grid, 7)[0]
    assert np.max(np.abs(dagger(s) @ s - np.eye(2))) < 1e-14
    assert np.max(np.abs(np.linalg.det(s) - 1.0)) < 1e-14
    for seed in range(5000, 5010):
        s = transformation(grid, seed)[0]
        a, b = s[0, 0, 0, 0], s[-1, -1, -1, -1]
        assert np.max(np.abs(a @ b - b @ a)) > 0.1


@pytest.mark.parametrize("kind", ["spinor", "gauge", "su2"])
def test_random_jets_match_finite_differences(kind):
    constants = {}
    for n in (8, 16):
        grid = st.box_grid((n, n, n, n), -1.0, 1.0)
        if kind == "su2":
            values, jet = transformation(grid, 11)[:2]
        else:
            field = st.random_config(11, kind, grid)
            values, jet = field.values, field.jet
        fd = derivative_stack(values, grid)
        interior = (slice(2, -2),) * 4
        err = np.max(np.abs((fd - jet)[interior]))
        constants[n] = err / max(grid.spacing) ** 2
    assert constants[8] / constants[16] < 2.0
    assert constants[16] / constants[8] < 2.0


def test_su2_jet2_matches_fd_of_jet():
    grid = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    _, ds, d2s = transformation(grid, 13)
    fd_of_jet = derivative_stack(ds, grid)   # (*s, n, m, 2, 2)
    interior = (slice(2, -2),) * 4
    err = np.max(np.abs((fd_of_jet - d2s)[interior]))
    assert err < 60.0 * max(grid.spacing) ** 2


# --------------------------------------------------------------------------
# quaternion kernels against the vector-form reference
# --------------------------------------------------------------------------

def _qmul_reference(p, q):
    """The vector form p0 q0 - p.q, p0 q + q0 p + p x q (np.sum, np.cross)."""
    p0, pv = p[..., 0], p[..., 1:]
    q0, qv = q[..., 0], q[..., 1:]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[..., 0] = p0 * q0 - np.sum(pv * qv, axis=-1)
    out[..., 1:] = (p0[..., None] * qv + q0[..., None] * pv
                    + np.cross(pv, qv))
    return out


def _qconj_reference(q):
    out = q.copy()
    out[..., 1:] *= -1.0
    return out


def _qpower_reference(q, dq, n):
    """q^n by the generic product rule with a materialised dq."""
    if n < 0:
        q, dq, n = _qconj_reference(q), _qconj_reference(dq), -n
    value, jet = q, dq
    for _ in range(n - 1):
        jet = (_qmul_reference(dq, value[..., None, :])
               + _qmul_reference(q[..., None, :], jet))
        value = _qmul_reference(q, value)
    return value, jet


def _qpoly_reference(q, dq, roots):
    """prod_j (q - c_j) by the generic product rule with a materialised dq."""
    value, jet = q - roots[0], dq
    for root in roots[1:]:
        factor = q - root
        jet = (_qmul_reference(jet, factor[..., None, :])
               + _qmul_reference(value[..., None, :], dq))
        value = _qmul_reference(value, factor)
    return value, jet


def _bit_equal(a, b):
    # complex arrays are compared as their float pairs, signs of zero
    # included; a served block may be a view with strided components
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(np.ascontiguousarray(a).view(np.float64)),
                               np.signbit(np.ascontiguousarray(b).view(np.float64))))


def _with_signed_zeros(rng, x):
    x = x.copy()
    hit = rng.random(x.shape) < 0.25
    x[hit] = np.where(rng.random(np.count_nonzero(hit)) < 0.5, 0.0, -0.0)
    return x


@pytest.mark.parametrize("seed", range(3))
def test_qmul_matches_vector_form_bit_for_bit(seed):
    from su2topo.generators import qmul
    rng = np.random.default_rng(seed)
    p, q = rng.normal(size=(2, 64, 4))
    jet = rng.normal(size=(64, 4, 4))
    cases = [(p, q), (jet, q[:, None, :]), (q[:, None, :], jet),
             (_with_signed_zeros(rng, jet), _with_signed_zeros(rng, q)[:, None, :])]
    for a, b in cases:
        product = qmul(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0))
        assert _bit_equal(np.moveaxis(product, 0, -1), _qmul_reference(a, b))


def _box_points():
    # no coordinate is exactly zero on this box (even point counts)
    grid = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    rng = np.random.default_rng(5)
    return grid, rng.uniform(-1.0, 1.0, size=(40, 4))


_ROOTS = np.array([[-0.55, 0.1, -0.05, 0.2], [0.5, -0.1, 0.05, -0.2],
                   [0.05, 0.6, 0.5, -0.5]])


def _box_fields():
    grid, _ = _box_points()
    for k in (1, 2, 3):
        yield (st.quaternion_polynomial_field(_ROOTS[:k], grid),
               lambda q, dq, k=k: _qpoly_reference(q, dq, _ROOTS[:k]))
    for n in (1, 2, 3, 4, -1, -2, -3, -4):
        yield (st.quaternion_power_field(n, grid),
               lambda q, dq, n=n: _qpower_reference(q, dq, n))


def _generic(reference, points):
    eye = np.broadcast_to(np.eye(4), points.shape[:-1] + (4, 4)).copy()
    return reference(points, eye)


def test_box_jets_equal_generic_product_rule():
    grid, pts = _box_points()
    for phi, reference in _box_fields():
        value, jet = _generic(reference, grid.points())
        assert _bit_equal(oracle.stored(phi).values, value)
        assert _bit_equal(oracle.stored(phi).jet, jet)
        value, jet = _generic(reference, pts)
        sampled_value, sampled_jet = phi.sampler(pts)
        assert _bit_equal(sampled_value, value)
        assert _bit_equal(sampled_jet, jet)


def test_box_jets_with_zero_coordinates_differ_only_in_zero_signs():
    # An odd point count puts x = 0 on every axis; there a jet entry that is
    # exactly zero may carry the other sign of zero than the generic
    # product's sum of signed zero terms.  Every value is equal.
    grid = st.box_grid((5, 5, 5, 5), -1.0, 1.0)
    for n in (2, -3, 4):
        phi = st.quaternion_power_field(n, grid)
        value, jet = _generic(lambda q, dq: _qpower_reference(q, dq, n),
                              grid.points())
        phi = oracle.stored(phi)
        assert _bit_equal(phi.values, value)
        assert np.array_equal(phi.jet, jet)
        same_sign = np.signbit(phi.jet) == np.signbit(jet)
        assert np.all(same_sign | (jet == 0.0))


@pytest.mark.parametrize("table", ["_UNIT_LEFT", "_UNIT_RIGHT"])
def test_flipped_unit_sign_breaks_the_jet_comparison(monkeypatch, table):
    import su2topo.generators as gen
    grid, _ = _box_points()
    value, jet = _generic(lambda q, dq: _qpoly_reference(q, dq, _ROOTS[:2]),
                          grid.points())
    for mu in range(4):
        for a in range(4):
            flipped = getattr(gen, table).copy()
            flipped[mu, a] *= -1.0
            monkeypatch.setattr(gen, table, flipped)
            phi = oracle.stored(st.quaternion_polynomial_field(_ROOTS[:2], grid))
            assert _bit_equal(phi.values, value)
            assert not np.array_equal(phi.jet, jet), (table, mu, a)


# --------------------------------------------------------------------------
# component-major box kernels against the site-major oracles
# --------------------------------------------------------------------------

# a matrix with an all-negative row: where x - shift is exactly 0 on every
# axis its four products are -0.0, and only einsum's zero start gives +0.0
_MATRIX = np.array([[1.0, 0.2, 0.0, 0.1], [-0.5, -1.0, -0.3, -0.2],
                    [0.1, 0.0, 1.0, 0.2], [0.0, 0.4, -0.7, 1.0]])


def _oracle_cases(grid):
    """(name, field, whole-grid values, whole-grid jet, point sampler) of
    every box map on ``grid``; the references are the site-major oracles'."""
    x = grid.points()
    shift = grid.points()[2, 1, 2, 3]      # a lattice site: x - shift is 0 there
    for k in (1, 2, 3):
        roots = _ROOTS[:k]
        yield (f"qpoly{k}", st.quaternion_polynomial_field(roots, grid),
               *oracle.qpoly_with_jet(x, roots), lambda p, r=roots: oracle.qpoly_with_jet(p, r))
        assert _bit_equal(oracle.qpoly_values(x, roots), oracle.qpoly_with_jet(x, roots)[0])
    for n in (1, 2, 3, 4, -1, -2, -3, -4):
        yield (f"qpower{n}", st.quaternion_power_field(n, grid),
               *oracle.qpower_with_jet(x, None, n),
               lambda p, n=n: oracle.qpower_with_jet(p, None, n))
        assert _bit_equal(oracle.qpower_values(x, n), oracle.qpower_with_jet(x, None, n)[0])
    yield ("linear", st.linear_phi_field(_MATRIX, shift, grid),
           *oracle.linear_with_jet(_MATRIX, shift, x),
           lambda p: oracle.linear_with_jet(_MATRIX, shift, p))


@pytest.mark.parametrize("planes", [1, 3])
def test_box_blocks_and_samples_equal_the_site_major_oracles(planes, monkeypatch):
    # odd point counts put x = 0 on axes 0, 1 and 3: zeros of both signs reach
    # the products.  Every block a field serves, the slabs of a whole-grid
    # read, the faces (tuple slices) and stepped blocks, equals the
    # oracle's whole-grid evaluation, values and jets, signs of zero
    # included; so do the sampler's values and jets at scattered points
    from su2topo import lattice
    grid = st.box_grid((11, 11, 10, 11), -1.0, 1.0)
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 11 * 10 * 11)
    blocks = list(lattice.slabs(grid)) + [
        (slice(None),) * axis + (slice(index, index + 1),)
        for axis in range(4) for index in (0, grid.shape[axis] - 1)]
    blocks += [(slice(1, 9, 3), slice(None, None, -1), slice(2, 5), slice(5, 6)),
               (slice(None, None, 2), slice(1, 7, 2), slice(9, 0, -3))]
    points = np.random.default_rng(7).uniform(-1.2, 1.2, size=(37, 4))
    points[:5, 0] = 0.0
    points[5:9] = grid.points()[4, 3, 3, 2]
    for name, phi, values, jet, sample in _oracle_cases(grid):
        assert phi.jet is None and phi.values is None
        for block in blocks:
            got = phi.values_at(block)
            assert _bit_equal(got, values[block]) and not got.flags.writeable, (name, block)
            assert _bit_equal(phi.exact_jet(block), jet[block]), (name, block)
            # served component-major: taking the block so again copies nothing
            assert np.shares_memory(lattice.component_major(got, 4), got)
        expected_values, expected_jet = sample(points)
        got_values, got_jet = phi.sampler(points)
        assert _bit_equal(got_values, expected_values), name
        assert _bit_equal(got_jet, expected_jet), name


def test_the_linear_map_is_written_in_the_order_of_einsum():
    # the linear map writes out np.einsum("ab,...b->...a")'s order on this
    # numpy: the pairs (0, 2) and (1, 3), then a zero start; the plain
    # left-to-right order differs from it
    rng = np.random.default_rng(3)
    d = rng.normal(size=(4000, 4)) * 10.0 ** rng.integers(-6, 6, size=(4000, 4))
    d[rng.random(d.shape) < 0.1] = 0.0
    d[:50] = 0.0
    expected = np.einsum("ab,...b->...a", _MATRIX, d)
    phi = st.linear_phi_field(_MATRIX, np.zeros(4), st.box_grid((4,) * 4, -1.0, 1.0))
    assert _bit_equal(phi.sampler(d)[0], expected)
    # at d = 0 the products of the all-negative row are -0.0, and the zero
    # start makes their sum +0.0
    assert np.all(np.signbit(_MATRIX[1] * 0.0)) and not np.any(np.signbit(expected[:50]))
    plain = sum(_MATRIX[None, :, b] * d[:, None, b] for b in range(4))
    assert not _bit_equal(plain, expected)


def test_box_field_stores_values_only():
    # tracemalloc sees numpy's allocations; storing a jet (4x the values)
    # or building one in passing lifts the peak past the bound
    roots = np.array([[0.6, -0.1, 0.05, -0.2], [-0.6, 0.1, -0.05, 0.2]])
    grid = st.box_grid((24,) * 4, -2.0, 2.0)
    peak, phi = peak_traced_bytes(lambda: st.quaternion_polynomial_field(roots, grid))
    assert phi.jet is None and phi.sampler is not None
    assert peak < 6 * 24**4 * 4 * 8


@pytest.mark.parametrize("budget", [1, None])
def test_box_values_filled_by_slab_equal_the_whole_grid_map(budget, monkeypatch):
    # the generators fill the values one slab at a time; every sample is the
    # map evaluated on the whole grid's points, bit for bit
    from su2topo import lattice
    if budget is not None:
        monkeypatch.setattr(lattice, "SLAB_SITES", budget)
    grid = st.box_grid((18, 17, 16, 17), -2.0, 2.0)
    x = grid.points()
    matrix = np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0],
                       [0.1, 0.0, 1.0, 0.2], [0.0, 0.4, 0.0, 1.0]])
    shift = np.array([0.05, -0.03, 0.02, 0.01])
    cases = [(st.quaternion_polynomial_field(_ROOTS[:2], grid), qpoly_values(x, _ROOTS[:2])),
             (st.linear_phi_field(matrix, shift, grid),
              np.einsum("ab,...b->...a", matrix, x - shift))]
    cases += [(st.quaternion_power_field(n, grid), qpower_values(x, n))
              for n in (-4, -3, -2, -1, 1, 2, 3, 4)]
    for phi, expected in cases:
        assert _bit_equal(oracle.stored(phi).values, expected)


def _box_cases(grid):
    """Box fields on ``grid`` with their values computed on the whole grid."""
    x = grid.points()
    matrix = np.array([[1.0, 0.2, 0.0, 0.1], [0.0, 1.0, 0.3, 0.0],
                       [0.1, 0.0, 1.0, 0.2], [0.0, 0.4, 0.0, 1.0]])
    shift = np.array([0.05, -0.03, 0.02, 0.01])
    return [(st.quaternion_polynomial_field(_ROOTS[:2], grid), qpoly_values(x, _ROOTS[:2])),
            (st.linear_phi_field(matrix, shift, grid),
             np.einsum("ab,...b->...a", matrix, x - shift)),
            (st.quaternion_power_field(-3, grid), qpower_values(x, -3))]


@pytest.mark.parametrize("planes", [1, 2, 5])
def test_box_values_served_per_block_equal_the_whole_grid_map(planes, monkeypatch):
    # a box field stores no samples: each block it serves is the map at the
    # block's points, and every block, the slabs of the whole-grid read,
    # faces and strided blocks, equals the map evaluated on the whole grid
    from su2topo import lattice
    grid = st.box_grid((19, 17, 16, 18), -2.0, 2.0)
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 17 * 16 * 18)
    blocks = list(lattice.slabs(grid)) + [
        (slice(None),) * axis + (slice(index, index + 1),)
        for axis in range(4) for index in (0, grid.shape[axis] - 1)]
    blocks += [(slice(1, 9, 3), slice(None, None, -1), slice(2, 5), slice(7, 8))]
    for phi, expected in _box_cases(grid):
        assert phi.values is None
        for block in blocks:
            got = phi.values_at(block)
            assert _bit_equal(got, expected[block]) and not got.flags.writeable


def test_box_field_build_computes_no_samples():
    # building traces less than one plane of the values: none are computed
    # until a block is read
    grid = st.box_grid((16,) * 4, -2.0, 2.0)
    peak, phi = peak_traced_bytes(lambda: st.quaternion_polynomial_field(_ROOTS[:2], grid))
    assert peak < 16**3 * 4 * 8
    assert phi.values is None
    assert phi.values_at(slice(0, 1)).shape == (1,) + grid.shape[1:] + (4,)


def test_a_non_finite_box_sample_raises_as_its_block_is_served(tmp_path):
    from su2topo.fldio import write_field
    from su2topo.generators import _box_field
    grid = st.box_grid((8,) * 4, -1.0, 1.0)
    site = (5, 2, 3, 1)
    bad = grid.points()[site]

    def value_fn(q, out):
        for a in range(4):
            out[a] = q[a]
        out[2][(q[0] == bad[0]) & (q[1] == bad[1]) & (q[2] == bad[2]) & (q[3] == bad[3])] = np.nan

    def jet_fn(q, jet):
        jet[...] = np.eye(4).reshape((4, 4) + (1,) * (jet.ndim - 2))

    phi = _box_field(grid, value_fn, jet_fn)
    assert _bit_equal(phi.values_at(slice(0, 5)), grid.points()[:5])
    for read in (lambda: phi.values_at(slice(5, 6)),
                 lambda: phi.values_at((slice(None), slice(2, 3))),
                 lambda: st.locate_zeros(phi),
                 lambda: write_field(phi, str(tmp_path / "phi.fld"))):
        with pytest.raises(FieldError, match="phi contains non-finite samples"):
            read()
    assert list(tmp_path.iterdir()) == []
    # a map that overflows on a far box is caught the same way
    far = st.quaternion_power_field(4, st.box_grid((6,) * 4, 1e80, 2e80))
    with pytest.raises(FieldError, match="non-finite"), np.errstate(all="ignore"):
        far.values_at(slice(0, 1))


def _chart_reference(grid):
    """Whole-chart points and chart jets by the formula as first written:
    sin and cos of the broadcast axis coordinates, every product taken on
    the whole grid.  The block jets of the chart fields must equal it."""
    chi = grid.coords(0)[:, None, None]
    theta = grid.coords(1)[None, :, None]
    phi = grid.coords(2)[None, None, :]
    sc, cc, st_, ct = np.sin(chi), np.cos(chi), np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    shape = grid.shape
    n = np.empty(shape + (4,))
    n[..., 0] = np.broadcast_to(cc, shape)
    n[..., 1] = sc * ct
    n[..., 2] = sc * st_ * cp
    n[..., 3] = sc * st_ * sp
    dn = np.zeros(shape + (3, 4))
    dn[..., 0, 0] = np.broadcast_to(-sc, shape)
    dn[..., 0, 1] = cc * ct
    dn[..., 0, 2] = cc * st_ * cp
    dn[..., 0, 3] = cc * st_ * sp
    dn[..., 1, 1] = -sc * st_
    dn[..., 1, 2] = sc * ct * cp
    dn[..., 1, 3] = sc * ct * sp
    dn[..., 2, 2] = -sc * st_ * sp
    dn[..., 2, 3] = sc * st_ * cp
    return n, dn


def _chart_cases(grid):
    """(name, field, reference values, reference jet) of every chart
    generator on ``grid``; the references are the whole-chart formula's."""
    n, dn = _chart_reference(grid)
    psi = st.identity_map_s3(grid.shape)
    yield "identity", psi, n.view(np.complex128), dn.view(np.complex128)
    for power in (1, -1, 2, -2, 3, -3, 4, -4):
        value, jet = qpower_with_jet(n, dn, power)
        yield f"qpower{power}", st.quaternion_power_field(power, grid), value, jet


def _blocks(grid):
    n0, n1, n2 = grid.shape
    return [slice(0, 1), slice(2, 5), slice(n0 - 2, n0), slice(1, n0 - 1, 3),
            slice(n0 - 1, 0, -2),
            (slice(1, 4), slice(2, n1, 3), slice(0, n2, 5)),
            (slice(None), slice(n1 - 1, n1), slice(None)),
            (slice(None, None, -1), slice(n1 - 2, 0, -3), slice(n2 - 1, None, -4))]


def _assert_served(field, reference, blocks):
    # no samples are stored: each block's are computed when it is read
    assert field.values is None and field.block_values is not None
    assert _bit_equal(oracle.stored(field).values, reference)
    for block in blocks:
        got = field.values_at(block)
        assert _bit_equal(got, reference[block]) and not got.flags.writeable, block


def _assert_jets_equal(field, reference, blocks):
    assert field.jet is None and field.block_jet is not None
    assert _bit_equal(oracle.stored(field).jet, reference)
    for block in blocks:
        assert _bit_equal(field.exact_jet(block), reference[block]), block


@pytest.mark.parametrize("shape", [(9, 10, 12), (24, 24, 24)], ids=str)
def test_chart_jets_equal_the_whole_chart_formula(shape, monkeypatch):
    # five planes a slab leave an uneven last slab on both charts
    from su2topo import lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", 5 * shape[1] * shape[2])
    grid = st.s3_chart_grid(shape)
    blocks = _blocks(grid)
    for name, field, values, jet in _chart_cases(grid):
        _assert_served(field, values, blocks)
        _assert_jets_equal(field, jet, blocks)
        # each conversion hands the block jet and the served samples on as
        # a view of each block
        if isinstance(field, st.SpinorField):
            phi, psi = st.spinor_to_phi(field), field
            _assert_served(phi, values.view(np.float64), blocks)
            _assert_jets_equal(phi, jet.view(np.float64), blocks)
            _assert_served(st.phi_to_spinor(phi), values, blocks)
            _assert_jets_equal(st.phi_to_spinor(phi), jet, blocks)
        else:
            psi = st.phi_to_spinor(field)
            _assert_served(psi, values.view(np.complex128), blocks)
            _assert_jets_equal(psi, jet.view(np.complex128), blocks)
            _assert_served(st.spinor_to_phi(psi), values, blocks)
            _assert_jets_equal(st.spinor_to_phi(psi), jet, blocks)
            jet = jet.view(np.complex128)
        # normalize transports each block as the whole-grid quotient rule
        samples = 2.5 * oracle.stored(psi).values
        scaled = st.SpinorField(grid, samples,
                                block_jet=lambda block: 2.5 * psi.exact_jet(block))
        stored = st.SpinorField(grid, samples, jet=2.5 * jet)
        unit, expected = st.normalize(scaled), oracle.stored(st.normalize(stored))
        _assert_served(unit, expected.values, blocks)
        _assert_jets_equal(unit, expected.jet, blocks)
