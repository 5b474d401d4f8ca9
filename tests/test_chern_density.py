import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

import su2topo as st
from conftest import peak_traced_bytes
from su2topo import FieldError
from su2topo.chern_density import (ROUTES, _field_strength, _spinor_values, _trace_values,
                                   _unit_values)
from su2topo.conventions import PAIRS4, levi_civita
from su2topo.lattice import component_major, site_major
from su2_gauge import matrices, transform, transformation
import site_major as oracle


def small_grid(n=6):
    return st.box_grid((n, n, n, n), -1.0, 1.0)


def strength(gauge):
    """The trace kernel's F_mn of a whole rank-4 gauge field, the whole
    grid taken as one slab, site-major ``(*shape, 6, 3)``."""
    a, da = (component_major(x, 4)
             for x in (oracle.stored(gauge).values, oracle.derivatives(gauge)))
    return site_major(_field_strength(a, da), 4)


def trace_density(gauge):
    """The trace kernel's unsigned density of a whole rank-4 gauge field."""
    return _trace_values(*(component_major(x, 4)
                           for x in (oracle.stored(gauge).values, oracle.derivatives(gauge))))


def spinor_density(psi):
    """The spinor kernel's unsigned density of a whole rank-4 spinor."""
    return _spinor_values(component_major(oracle.derivatives(psi), 4))


def unit_density(psi):
    """The unit kernel's unsigned density of a whole rank-4 spinor."""
    return _unit_values(component_major(oracle.derivatives(psi), 4))


def component(strength, mu, nu):
    """F_mn^a for any axis pair, read from the stored mu < nu pairs."""
    if mu == nu:
        return np.zeros(strength.shape[:-2] + (3,))
    sign = 1.0
    if mu > nu:
        mu, nu, sign = nu, mu, -1.0
    return sign * strength[..., PAIRS4.index((mu, nu)), :]


def commutator_form_residual(gauge, strength):
    """Largest gap between the stored components and the matrix form
    F_mn = dA_n - dA_m - [A_m, A_n] with matrix commutators."""
    amat = matrices(oracle.stored(gauge).values)
    damat = matrices(oracle.derivatives(gauge))
    residual = 0.0
    for idx, (mu, nu) in enumerate(PAIRS4):
        fmat = (damat[..., mu, nu, :, :] - damat[..., nu, mu, :, :]
                - (amat[..., mu, :, :] @ amat[..., nu, :, :]
                   - amat[..., nu, :, :] @ amat[..., mu, :, :]))
        diff = fmat - matrices(strength[..., idx, :])
        residual = max(residual, float(np.max(np.abs(diff))))
    return residual


EPS4 = levi_civita(4)


def unit_chern_values_literal(dvalues):
    """Reference epsilon-contraction form of the unit route."""
    return np.einsum("mnlr,abcd,...ma,...nb,...lc,...rd->...",
                     EPS4, EPS4, dvalues, dvalues, dvalues, dvalues) / (12.0 * np.pi**2)


def test_field_strength_zero_potential():
    grid = small_grid()
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    assert np.max(np.abs(strength(gauge))) == 0.0


def test_field_strength_constant_commutator_channel():
    grid = small_grid()
    comps = np.zeros(grid.shape + (4, 3))
    comps[..., 0, 0] = 1.2   # A_0^1
    comps[..., 1, 1] = 0.7   # A_1^2
    gauge = st.GaugeField(grid, comps)
    f = strength(gauge)
    f01 = component(f, 0, 1)
    # only the third color channel survives: -eps_{3bc} A_0^b A_1^c
    assert np.max(np.abs(f01[..., :2])) < 1e-14
    assert np.allclose(f01[..., 2], -1.2 * 0.7)
    for mu, nu in PAIRS4[1:]:
        assert np.max(np.abs(component(f, mu, nu))) < 1e-14
    assert commutator_form_residual(gauge, f) < 1e-12


def test_field_strength_antisymmetry_accessor():
    grid = small_grid()
    f = strength(st.random_config(1, "gauge", grid))
    assert np.max(np.abs(component(f, 2, 1) + component(f, 1, 2))) == 0.0


@pytest.mark.parametrize("jets", [True, False], ids=["jets", "stencils"])
def test_field_strength_matches_the_matrix_commutator_form(jets):
    # the component form against the matrix form F = dA - dA - [A, A];
    # the kernel on a whole grid is the whole-grid form bit for bit
    grid = small_grid()
    gauge = st.random_config(2, "gauge", grid)
    if not jets:
        gauge = st.GaugeField(grid, gauge.values)
    f = strength(gauge)
    scale = float(np.max(np.abs(f)))
    assert commutator_form_residual(gauge, f) < 1e-14 * scale
    np.testing.assert_array_equal(f, oracle.field_strength(gauge))


def test_pure_gauge_flatness_scaling():
    constants = {}
    for n in (8, 16):
        grid = small_grid(n)
        zero = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)),
                             jet=np.zeros(grid.shape + (4, 4, 3)))
        _, gauge = transform(st.random_config(23, "spinor", grid), zero,
                             transformation(grid, 22))
        # the flat potential (dS) S^dag as bare samples: F from stencils
        f = strength(st.GaugeField(grid, gauge.values))
        constants[n] = np.max(np.abs(f)) / max(grid.spacing) ** 2
    assert constants[8] / constants[16] < 2.0
    assert constants[16] / constants[8] < 2.0


def test_single_site_density_identity():
    rng = np.random.default_rng(5)
    dphi = rng.normal(size=(5000, 4, 4))
    dpsi = np.stack([dphi[..., 0] + 1j * dphi[..., 1],
                     dphi[..., 2] + 1j * dphi[..., 3]], axis=-1)
    rho_spinor = _spinor_values(dpsi)
    rho_unit = _unit_values(dpsi)
    scale = np.max(np.abs(rho_unit))
    assert np.max(np.abs(rho_spinor - rho_unit)) / scale < 1e-12


def test_unit_det_route_matches_epsilon_contraction():
    rng = np.random.default_rng(6)
    dphi = rng.normal(size=(64, 4, 4))
    fast = _unit_values(dphi[..., 0::2] + 1j * dphi[..., 1::2])
    literal = unit_chern_values_literal(dphi)
    assert np.max(np.abs(fast - literal)) < 1e-12 * np.max(np.abs(fast))


@pytest.mark.parametrize("jets", [True, False], ids=["jets", "stencils"])
def test_the_kernels_equal_the_whole_grid_forms(jets):
    # a whole grid is one slab: the trace kernel is the whole-grid form of
    # F and its contraction bit for bit; the spinor kernel (Im t_mn only,
    # against the complex einsum) and the unit kernel (the Laplace
    # expansion, against numpy's LU) within a few ulps of the largest
    # density (measured: at most 1 and 3)
    grid = st.box_grid((7, 6, 5, 8), -1.0, 1.0)
    psi = st.random_config(12, "spinor", grid)
    if not jets:
        psi = st.SpinorField(grid, psi.values)
    dpsi = oracle.derivatives(psi)
    for kernel, whole in ((spinor_density(psi), oracle.spinor_chern_values(dpsi).real),
                          (unit_density(psi),
                           oracle.unit_chern_values(dpsi.view(np.float64)))):
        assert np.max(np.abs(kernel - whole)) <= 8 * np.spacing(np.max(np.abs(whole)))
    unit = st.normalize(psi)
    for gauge in (st.GaugeField(grid, oracle.swept(unit, "gauge")["gauge"]),
                  st.random_config(13, "gauge", grid)):
        np.testing.assert_array_equal(
            trace_density(gauge), oracle.trace_chern_values(oracle.field_strength(gauge)))


def test_constant_field_zero_density_all_methods():
    grid = small_grid()
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = 1.0
    psi = st.SpinorField(grid, values,
                         jet=np.zeros(grid.shape + (4, 2), dtype=complex))
    assert np.max(np.abs(spinor_density(psi))) == 0.0
    assert np.max(np.abs(unit_density(psi))) == 0.0
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    assert np.max(np.abs(trace_density(gauge))) == 0.0
    assert st.chern_numbers(psi, ROUTES) == {route: 0.0 for route in ROUTES}


def test_exact_unit_jets_give_vanishing_density():
    # with exact jets the unit-route density vanishes identically away
    # from zeros: all four tangent vectors lie in a 3-space
    grid = small_grid(8)
    psi = st.random_config(7, "spinor", grid)
    assert np.max(np.abs(unit_density(st.normalize(psi)))) < 1e-12


def test_spinor_vs_trace_density_fd_scaling():
    constants = {}
    for n in (8, 16):
        grid = small_grid(n)
        psi = st.normalize(st.random_config(8, "spinor", grid))
        nojet = st.SpinorField(grid, oracle.stored(psi).values)
        rho_s = spinor_density(nojet)
        rho_t = trace_density(st.GaugeField(grid, oracle.swept(psi, "gauge")["gauge"]))
        constants[n] = np.max(np.abs(rho_s - rho_t)) / max(grid.spacing) ** 2
    # bounded by C h^2 with a non-growing constant (decay may be faster)
    assert constants[16] < 2.0 * constants[8]


def test_trace_density_gauge_invariant_with_exact_jets():
    grid = small_grid(8)
    gauge = st.random_config(21, "gauge", grid)
    psi = st.random_config(23, "spinor", grid)
    rho1 = trace_density(gauge)
    _, gauge2 = transform(psi, gauge, transformation(grid, 22))
    assert gauge2.jet is not None
    rho2 = trace_density(gauge2)
    assert np.max(np.abs(rho1 - rho2)) < 1e-9


def test_chern_weil_stokes_consistency():
    # the spinor route of the raw (not normalized) spinor
    base = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    diffs = {}
    residues = {}
    for factor, grid in ((1, base), (2, st.box_grid((19, 19, 19, 19), -1.0, 1.0))):
        psi = st.random_config(3, "spinor", grid)
        assert st.normalize(psi) is not psi
        volume = st.chern_numbers(psi, ("spinor",))["spinor"]
        boundary, residue = oracle.boundary_cs_sum(psi)
        diffs[factor] = abs(volume - boundary)
        residues[factor] = residue
    assert 3.0 < diffs[1] / diffs[2] < 5.0
    # the imaginary part of the closed-boundary sum is pure quadrature error
    assert residues[1] / residues[2] > 3.0


def _spinors(grid):
    """A normalized rank-4 spinor with its jet served block by block, and
    its bare samples."""
    psi = st.normalize(st.random_config(14, "spinor", grid))
    return psi, st.SpinorField(grid, oracle.stored(psi).values)


def test_chern_numbers_by_slabs_equal_the_whole_grid(monkeypatch):
    # one slab of the whole grid, then slabs of 1, 2 and 5 planes: every
    # C2 keeps its bits, as the quadrature does not depend on the slabs
    # and every density is that of the whole grid
    from su2topo import lattice
    grid = st.box_grid((11, 6, 5, 7), -1.0, 1.0)
    monkeypatch.setattr(lattice, "SLAB_SITES", 11 * 6 * 5 * 7)
    expected = [st.chern_numbers(psi, ROUTES) for psi in _spinors(grid)]
    assert abs(expected[1]["trace"] - expected[0]["trace"]) > 0.0
    for planes in (1, 2, 5):
        monkeypatch.setattr(lattice, "SLAB_SITES", planes * 6 * 5 * 7)
        assert [st.chern_numbers(psi, ROUTES) for psi in _spinors(grid)] == expected


def test_each_route_alone_keeps_the_bits_of_all_routes():
    grid = st.box_grid((9, 6, 7, 5), -1.0, 1.0)
    for psi in _spinors(grid):
        together = st.chern_numbers(psi, ROUTES)
        assert list(together) == list(ROUTES)
        for route in ROUTES:
            assert st.chern_numbers(psi, (route,)) == {route: together[route]}


def test_only_the_trace_route_computes_the_spinor_current(monkeypatch):
    # the spinor and unit kernels read d Psi alone: without the trace
    # route, no slab's current J is computed
    from su2topo import lattice, su2_algebra
    grid = st.box_grid((9, 6, 7, 5), -1.0, 1.0)
    monkeypatch.setattr(lattice, "SLAB_SITES", 2 * 6 * 7 * 5)      # 5 slabs
    calls = []
    real = su2_algebra.spinor_current

    def counted(u, v, out):
        calls.append(out.shape)
        return real(u, v, out)

    monkeypatch.setattr(su2_algebra, "spinor_current", counted)
    for psi in _spinors(grid):
        for routes, expected in ((("spinor",), 0), (("unit",), 0), (("spinor", "unit"), 0),
                                 (("trace",), 5)):            # one for each slab
            calls.clear()
            st.chern_numbers(psi, routes)
            assert len(calls) == expected, routes


def test_the_chern_sweep_peaks_below_a_whole_grid_jet(monkeypatch):
    # The normalized spinor serves its jet a slab at a time, and the sweep
    # holds each slab's d Psi, current and route temporaries, A as a halo
    # of planes and the derivative stack of A for one slab.  At one plane
    # a slab it peaks below 3/4 of a whole-grid d Psi (128 B a site):
    # measured 3.83 MB of the 6.3 MB at 16^4, about 0.9 KB a site of one
    # plane, with the stencils on held planes, no window copied and d_m
    # A_m not computed (5.0 MB before, under the whole 8.4 MB).  Neither a
    # whole-grid F (144 B a site) nor dA (384 B a site) fits beside that
    # peak below the bound.
    from su2topo import lattice
    n = 16
    monkeypatch.setattr(lattice, "SLAB_SITES", n**3)
    sites = n**4
    psi = st.normalize(st.random_config(15, "spinor", small_grid(n)))
    assert psi.jet is None
    peak, charges = peak_traced_bytes(lambda: st.chern_numbers(psi, ROUTES))
    bound = sites * 4 * 2 * 16 * 3 // 4
    assert peak < bound
    for resident in (sites * 6 * 3 * 8, sites * 4 * 4 * 3 * 8):
        assert peak + resident > bound
    assert abs(charges["spinor"]) < 1e-12


def test_c2_converges_to_integer_under_refinement():
    # zero-free box: the FD spinor route must settle on the integer 0
    base = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    devs = []
    for grid in (base, st.box_grid((19, 19, 19, 19), -1.0, 1.0)):
        psi = st.normalize(st.random_config(42, "spinor", grid))
        nojet = st.SpinorField(grid, oracle.stored(psi).values)
        c2 = st.chern_numbers(nojet, ("spinor",))["spinor"]
        assert round(c2) == 0
        devs.append(abs(c2))
    assert devs[0] / devs[1] >= 3.0

    # the boundary flux the ledger is checked against converges at O(h^2)
    base = st.box_grid((12, 12, 12, 12), -2.0, 2.0)
    errors = []
    for grid in (base, st.box_grid((23, 23, 23, 23), -2.0, 2.0)):
        lin = st.linear_phi_field(np.eye(4), [0.05, -0.03, 0.02, 0.01], grid)
        ledger = st.analyze(lin).ledger
        assert ledger.passed
        errors.append(abs(ledger.boundary_c2 - 1.0))
    assert 3.0 <= errors[0] / errors[1] <= 5.0


def test_second_chern_number_zero_density():
    grid = small_grid()
    assert oracle.quadrature(np.zeros(grid.shape), grid) == 0.0


def test_chern_density_input_validation():
    grid = small_grid()
    gauge = st.random_config(9, "gauge", grid)
    psi3 = st.identity_map_s3(8)
    psi = st.random_config(10, "spinor", grid)
    unit = st.normalize(psi)
    assert unit is not psi
    # every route reads a rank-4 spinor only
    for route in ROUTES:
        for source in (gauge, psi3, st.spinor_to_phi(st.normalize(psi))):
            with pytest.raises(FieldError):
                st.chern_numbers(source, (route,))
    # the unit and trace routes read the unit spinor, and every route with
    # them; the spinor route alone reads any smooth one as it is
    for routes in (("unit",), ("trace",), ROUTES):
        assert st.chern_numbers(psi, routes) == st.chern_numbers(unit, routes)
    alone = st.chern_numbers(psi, ("spinor",))["spinor"]
    assert np.isfinite(alone) and alone != st.chern_numbers(unit, ("spinor",))["spinor"]


_ROOTS = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])


def test_boundary_degree_equals_the_spinor_face_flux():
    # on the unit spinor of phi the Chern-Simons integrand of a face is the
    # degree density of n = phi/|phi|, so the determinant route equals the
    # oracle's spinor route within a few ulps on jet faces (measured: 1)
    grid = st.box_grid((16, 16, 16, 16), -2.0, 2.0)
    qpoly = st.quaternion_polynomial_field(_ROOTS, grid)
    jet = oracle.stored(qpoly).jet
    for axis in range(4):
        keep = [i for i in range(4) if i != axis]
        for side, index in ((0, 0), (1, -1)):
            # the sampler-backed face jet is the face of the whole exact jet
            face = st.face_restrict(qpoly, axis, side)
            assert isinstance(face, st.PhiField) and face.sampler is None
            assert face.values is None and face.jet is None
            np.testing.assert_array_equal(oracle.stored(face).values,
                                          np.take(oracle.stored(qpoly).values, index, axis))
            np.testing.assert_array_equal(oracle.stored(face).jet,
                                          np.take(jet, index, axis)[..., keep, :])
    matrix = np.array([[1.0, 0.2, 0.0, -0.1], [0.1, 0.9, 0.3, 0.0],
                       [0.0, -0.2, 1.1, 0.2], [0.3, 0.0, 0.1, 0.8]])
    fields = [qpoly, st.linear_phi_field(matrix, [0.05, -0.03, 0.02, 0.01], grid)]
    fields += [st.quaternion_power_field(power, st.box_grid((12,) * 4, -1.0, 1.0))
               for power in (1, -1, 2, -2, 3, -3)]
    for phi in fields:
        expected, _ = oracle.boundary_cs_sum(phi)
        assert abs(st.boundary_degree(phi) - expected) <= 4 * np.spacing(abs(expected))
        assert abs(expected - round(expected)) < 0.02


def test_the_spinor_density_of_a_unit_chart_spinor_is_its_degree_density():
    # the rank-3 form of the identity: on the identity chart the spinor
    # Chern-Simons density of the unit spinor is det[n, d n] / (2 pi^2),
    # pointwise and in its quadrature
    from su2topo.chern_density import _degree_density
    from su2topo.lattice import Quadrature, component_major
    psi = st.identity_map_s3(24)
    phi = st.spinor_to_phi(psi)
    spinor = oracle.spinor_cs_values(oracle.current(psi)[..., 0], oracle.derivatives(psi))
    degree = _degree_density(component_major(oracle.stored(phi).values, 3),
                             component_major(oracle.stored(phi).jet, 3))
    assert np.max(np.abs(spinor.real - degree)) <= 1e-14 * np.max(np.abs(degree))
    quadrature = Quadrature(psi.grid)
    quadrature.add(slice(None), degree)
    assert abs(quadrature.total() - oracle.plane_quadrature(spinor.real, psi.grid)) < 1e-13
    assert abs(quadrature.total() - 1.0) < 1e-2


def _stacks(seed, exponents, dependence):
    """Four component-major rows ``(3, 4, 5, 2)`` of random matrices: the
    rows scaled by 10^exponents, the last one ``dependence`` away from the
    third (singular at 0), and the stack of the matrices for ``np.linalg.det``."""
    rng = np.random.default_rng(seed)
    rows = list(rng.normal(size=(4, 3, 4, 5, 2)))
    rows[3] = rows[2] + dependence * rows[3]
    rows = [row * 10.0 ** e for row, e in zip(rows, exponents)]
    return rows, np.moveaxis(np.stack(rows, axis=1), (1, 2), (-2, -1))


@given(seed=hst.integers(0, 2**32 - 1),
       exponents=hst.lists(hst.integers(-60, 60), min_size=4, max_size=4),
       dependence=hst.sampled_from([1.0, 1e-4, 1e-9, 1e-15, 0.0]))
def test_det4_equals_numpys_determinant(seed, exponents, dependence):
    # the one determinant kernel of the boundary degree and the degree
    # spheres against numpy's LU route, ill-conditioned stacks included;
    # the error of either is bounded by rounding times the product of the
    # row norms (Hadamard's bound on |det|).  numpy's own error reached
    # 1.35e-14 of it on rows scaled 1, 1, 10 and 1e36; one wrong term of
    # the expansion is of the order of the bound's scale
    from su2topo.chern_density import _det4
    rows, matrices = _stacks(seed, exponents, dependence)
    scale = np.prod([np.linalg.norm(row, axis=1) for row in rows], axis=0)
    gap = np.abs(_det4(*rows) - np.linalg.det(matrices))
    assert np.all(gap <= 1e-13 * scale)


@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e100, 1e150])
def test_degree_density_does_not_depend_on_the_scale_of_phi(scale):
    # every row is divided by |phi| before the determinant: det[phi, d phi]
    # / |phi|^4 overflows or underflows at these scales, the density does not
    from su2topo.chern_density import _degree_density
    rng = np.random.default_rng(5)
    samples, dvalues = rng.normal(size=(3, 4, 6, 7)), rng.normal(size=(3, 3, 4, 6, 7))
    expected = _degree_density(samples, dvalues)
    got = _degree_density(scale * samples, scale * dvalues)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("planes", [1, 2, 5])
def test_face_flux_by_slabs_equals_the_whole_faces(planes, monkeypatch, tmp_path):
    # a box field serves each face's values and hands on its block jet, a
    # stored field's faces are views of its arrays, and a file field reads
    # its face jets from the file, one face slab at a time; the boundary
    # degree of each equals that of the whole stored faces bit for bit
    from su2topo import lattice
    from su2topo.fldio import read_field, write_field
    grid = st.box_grid((12, 13, 11, 14), -2.0, 2.0)
    phi = st.quaternion_polynomial_field(_ROOTS, grid)
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    stored = oracle.stored(phi)
    assert all(n * m * k <= lattice.SLAB_SITES for n, m, k in
               ((13, 11, 14), (12, 11, 14), (12, 13, 14), (12, 13, 11)))
    expected = st.boundary_degree(stored)       # every face in one slab
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 11 * 12)
    for field in (phi, stored, read_field(path)):
        assert st.boundary_degree(field) == expected
    assert abs(expected - 2.0) < 0.1
