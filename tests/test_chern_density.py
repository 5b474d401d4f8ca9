import numpy as np
import pytest

import su2topo as st
from su2topo import FieldError
from su2topo.conventions import PAIRS4, levi_civita
from su2_gauge import matrices, transform, transformation
import site_major as oracle


def small_grid(n=6):
    return st.box_grid((n, n, n, n), -1.0, 1.0)


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
    amat = matrices(gauge.values)
    damat = matrices(gauge.derivatives())
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
    """Reference epsilon-contraction form of ``unit_chern_values``."""
    return np.einsum("mnlr,abcd,...ma,...nb,...lc,...rd->...",
                     EPS4, EPS4, dvalues, dvalues, dvalues, dvalues) / (12.0 * np.pi**2)


def test_field_strength_zero_potential():
    grid = small_grid()
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    strength = st.field_strength(gauge)
    assert np.max(np.abs(strength)) == 0.0


def test_field_strength_constant_commutator_channel():
    grid = small_grid()
    comps = np.zeros(grid.shape + (4, 3))
    comps[..., 0, 0] = 1.2   # A_0^1
    comps[..., 1, 1] = 0.7   # A_1^2
    gauge = st.GaugeField(grid, comps)
    strength = st.field_strength(gauge)
    f01 = component(strength, 0, 1)
    # only the third color channel survives: -eps_{3bc} A_0^b A_1^c
    assert np.max(np.abs(f01[..., :2])) < 1e-14
    assert np.allclose(f01[..., 2], -1.2 * 0.7)
    for mu, nu in PAIRS4[1:]:
        assert np.max(np.abs(component(strength, mu, nu))) < 1e-14
    assert commutator_form_residual(gauge, strength) < 1e-12


def test_field_strength_antisymmetry_accessor():
    grid = small_grid()
    gauge = st.random_config(1, "gauge", grid)
    strength = st.field_strength(gauge)
    assert np.max(np.abs(component(strength, 2, 1) + component(strength, 1, 2))) == 0.0


@pytest.mark.parametrize("jets", [True, False], ids=["jets", "stencils"])
def test_field_strength_matches_the_matrix_commutator_form(jets):
    # the component form against the matrix form F = dA - dA - [A, A]
    grid = small_grid()
    gauge = st.random_config(2, "gauge", grid)
    if not jets:
        gauge = st.GaugeField(grid, gauge.values)
    strength = st.field_strength(gauge)
    scale = float(np.max(np.abs(strength)))
    assert commutator_form_residual(gauge, strength) < 1e-14 * scale
    assert not strength.flags.writeable


def test_pure_gauge_flatness_scaling():
    constants = {}
    for n in (8, 16):
        grid = small_grid(n)
        zero = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)),
                             jet=np.zeros(grid.shape + (4, 4, 3)))
        _, gauge = transform(st.random_config(23, "spinor", grid), zero,
                             transformation(grid, 22))
        # the flat potential (dS) S^dag as bare samples: F from stencils
        strength = st.field_strength(st.GaugeField(grid, gauge.values))
        constants[n] = np.max(np.abs(strength)) / max(grid.spacing) ** 2
    assert constants[8] / constants[16] < 2.0
    assert constants[16] / constants[8] < 2.0


def test_single_site_density_identity():
    rng = np.random.default_rng(5)
    dphi = rng.normal(size=(5000, 4, 4))
    dpsi = np.stack([dphi[..., 0] + 1j * dphi[..., 1],
                     dphi[..., 2] + 1j * dphi[..., 3]], axis=-1)
    rho_spinor = st.spinor_chern_values(dpsi)
    rho_unit = st.unit_chern_values(dphi)
    scale = np.max(np.abs(rho_unit))
    assert np.max(np.abs(rho_spinor - rho_unit)) / scale < 1e-12
    assert np.max(np.abs(rho_spinor.imag)) < 1e-12 * scale


def test_unit_det_route_matches_epsilon_contraction():
    rng = np.random.default_rng(6)
    dphi = rng.normal(size=(64, 4, 4))
    fast = st.unit_chern_values(dphi)
    literal = unit_chern_values_literal(dphi)
    assert np.max(np.abs(fast - literal)) < 1e-12 * np.max(np.abs(fast))


def test_constant_field_zero_density_all_methods():
    grid = small_grid()
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = 1.0
    psi = st.SpinorField(grid, values,
                         jet=np.zeros(grid.shape + (4, 2), dtype=complex))
    assert np.max(np.abs(st.spinor_chern_density(psi).field.values)) == 0.0
    assert np.max(np.abs(st.unit_chern_density(psi).field.values)) == 0.0
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    assert np.max(np.abs(st.trace_chern_density(gauge).field.values)) == 0.0


def test_exact_unit_jets_give_vanishing_density():
    # with exact jets the unit-route density vanishes identically away
    # from zeros: all four tangent vectors lie in a 3-space
    grid = small_grid(8)
    psi = st.random_config(7, "spinor", grid)
    rho = st.unit_chern_density(st.normalize(psi))
    assert np.max(np.abs(rho.field.values)) < 1e-12


def test_spinor_vs_trace_density_fd_scaling():
    constants = {}
    for n in (8, 16):
        grid = small_grid(n)
        psi = st.normalize(st.random_config(8, "spinor", grid))
        nojet = st.SpinorField(grid, psi.values)
        rho_s = st.spinor_chern_density(nojet).field.values
        gauge = st.parallel_gauge_potential(psi)
        rho_t = st.trace_chern_density(gauge).field.values
        constants[n] = np.max(np.abs(rho_s - rho_t)) / max(grid.spacing) ** 2
    # bounded by C h^2 with a non-growing constant (decay may be faster)
    assert constants[16] < 2.0 * constants[8]


def test_trace_density_gauge_invariant_with_exact_jets():
    grid = small_grid(8)
    gauge = st.random_config(21, "gauge", grid)
    psi = st.random_config(23, "spinor", grid)
    rho1 = st.trace_chern_density(gauge).field.values
    _, gauge2 = transform(psi, gauge, transformation(grid, 22))
    assert gauge2.jet is not None
    rho2 = st.trace_chern_density(gauge2).field.values
    assert np.max(np.abs(rho1 - rho2)) < 1e-9


def test_chern_weil_stokes_consistency():
    base = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    diffs = {}
    residues = {}
    for factor, grid in ((1, base), (2, st.box_grid((19, 19, 19, 19), -1.0, 1.0))):
        psi = st.random_config(3, "spinor", grid)
        volume = st.integrate(st.spinor_chern_density(psi).field)
        boundary, residue = st.boundary_cs_sum(psi)
        diffs[factor] = abs(volume - boundary)
        residues[factor] = residue
    assert 3.0 < diffs[1] / diffs[2] < 5.0
    # the imaginary part of the closed-boundary sum is pure quadrature error
    assert residues[1] / residues[2] > 3.0


def test_boundary_flux_of_phi_normalizes_face_by_face():
    grid = st.box_grid((16, 16, 16, 16), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    jet = phi.exact_jet()
    for axis in range(4):
        keep = [i for i in range(4) if i != axis]
        for side, index in ((0, 0), (1, -1)):
            # the sampler-backed face jet is the face of the whole exact jet
            face = st.face_restrict(phi, axis, side)
            assert isinstance(face, st.PhiField) and face.sampler is None
            assert face.jet is None
            np.testing.assert_array_equal(face.values, np.take(phi.values, index, axis))
            np.testing.assert_array_equal(face.exact_jet(),
                                          np.take(jet, index, axis)[..., keep, :])
    # normalizing each face gives the faces of the normalized spinor
    psi = st.normalize(st.phi_to_spinor(phi))
    assert st.boundary_cs_sum(phi) == st.boundary_cs_sum(psi)


def _whole_face_flux_sum(phi):
    """:func:`boundary_cs_sum` of phi as it was before faces were summed slab
    by slab: each face restricted with its whole jet stored, normalized
    whole and its integrand computed whole."""
    from su2topo.chern_simons import spinor_cs_values
    from su2topo.conventions import ORIENTATION_SIGN
    from su2topo.lattice import component_major
    stored = st.PhiField(phi.grid, phi.values, jet=phi.exact_jet())
    total = 0j
    for axis in range(4):
        for side, side_sign in ((1, 1.0), (0, -1.0)):
            face = st.normalize(st.phi_to_spinor(st.face_restrict(stored, axis, side)))
            j0 = component_major(oracle.current(face)[..., 0], 3)
            raw = spinor_cs_values(j0, component_major(face.derivatives(), 3))
            flux = np.sum(raw * face.grid.quadrature_weights())
            total += (-1.0) ** axis * side_sign * flux
    total *= ORIENTATION_SIGN * phi.grid.orientation
    return float(total.real), float(abs(total.imag))


@pytest.mark.parametrize("planes", [1, 2, 5])
def test_face_flux_by_slabs_equals_the_whole_faces(planes, monkeypatch, tmp_path):
    # a box field serves each face's values and hands on its block jet, and
    # a file field reads its face jets from the file, one face slab at a
    # time; the flux equals that of whole stored faces bit for bit
    from su2topo import lattice
    from su2topo.fldio import read_field, write_field
    grid = st.box_grid((12, 13, 11, 14), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    expected = _whole_face_flux_sum(phi)
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 11 * 12)
    for field in (phi, read_field(path)):
        assert st.boundary_cs_sum(field) == expected
    assert abs(expected[0] - 2.0) < 0.1


def test_c2_converges_to_integer_under_refinement():
    # zero-free box: the FD spinor route must settle on the integer 0
    base = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    devs = []
    for grid in (base, st.box_grid((19, 19, 19, 19), -1.0, 1.0)):
        psi = st.normalize(st.random_config(42, "spinor", grid))
        nojet = st.SpinorField(grid, psi.values)
        c2 = st.integrate(st.spinor_chern_density(nojet).field)
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
    rho = st.ScalarField(grid, np.zeros(grid.shape))
    assert st.integrate(rho) == 0.0


def test_chern_density_input_validation():
    grid = small_grid()
    gauge = st.random_config(9, "gauge", grid)
    with pytest.raises(FieldError):
        st.spinor_chern_density(gauge)
    psi3 = st.identity_map_s3(8)
    with pytest.raises(FieldError):
        st.spinor_chern_density(psi3)
    # the unit route reads dn from a normalized rank-4 spinor only
    psi = st.random_config(10, "spinor", grid)
    assert not psi.normalized
    for source in (psi, st.spinor_to_phi(st.normalize(psi)), gauge, psi3):
        with pytest.raises(FieldError):
            st.unit_chern_density(source)
    # the trace route reads a rank-4 gauge field only
    gauge3 = st.random_config(11, "gauge", st.box_grid((6, 6, 6), -1.0, 1.0))
    for source in (psi, gauge3):
        with pytest.raises(FieldError):
            st.trace_chern_density(source)
