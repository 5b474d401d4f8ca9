import numpy as np
import pytest

import su2topo as st
from conftest import peak_traced_bytes
from su2_gauge import dagger, matrices, transform, transformation
from su2topo import NormalizationError
import site_major as oracle
from su2topo.lattice import component_major, site_major


def small_grid():
    return st.box_grid((6, 6, 6, 6), -1.0, 1.0)


def covariant(psi, gauge):
    """D Psi of the whole grid by the slab kernel, component-major."""
    return st.covariant_derivative(*(component_major(x, psi.grid.rank) for x in (
        oracle.stored(psi).values, oracle.derivatives(psi), gauge.values)))


def test_covariant_derivative_reduces_to_gradient():
    grid = small_grid()
    psi = st.random_config(1, "spinor", grid)
    zero = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    d = covariant(psi, zero)
    assert np.max(np.abs(site_major(d, 4) - psi.jet)) == 0.0


def test_covariant_derivative_constant_spinor():
    grid = small_grid()
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = 1.0
    psi = st.SpinorField(grid, values,
                         jet=np.zeros(grid.shape + (4, 2), dtype=complex))
    gauge = st.random_config(2, "gauge", grid)
    d = site_major(covariant(psi, gauge), 4)
    assert np.array_equal(d, oracle.covariant_derivative(psi, gauge.values))
    expected = -np.einsum("...ma,aij,...j->...mi", gauge.values,
                          st.GENERATORS, psi.values)
    assert np.max(np.abs(d - expected)) < 1e-15


def test_covariant_derivative_closed_form_parallel_axis():
    # Psi = exp(sigma_3 c x0 / 2i) Psi0 with A_0^3 = c solves D_0 Psi = 0.
    grid = small_grid()
    c = 0.7
    x0 = grid.points()[..., 0]
    phase = np.exp(-0.5j * c * x0)
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = phase * 0.8
    values[..., 1] = np.conj(phase) * 0.6
    jet = np.zeros(grid.shape + (4, 2), dtype=complex)
    jet[..., 0, 0] = -0.5j * c * values[..., 0]
    jet[..., 0, 1] = 0.5j * c * values[..., 1]
    psi = st.SpinorField(grid, values, jet=jet)
    comps = np.zeros(grid.shape + (4, 3))
    comps[..., 0, 2] = c
    gauge = st.GaugeField(grid, comps)
    d = covariant(psi, gauge)
    assert np.max(np.abs(d[:, 0])) < 1e-13


def test_decompose_trivial_configuration():
    grid = small_grid()
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = 1.0
    psi = st.SpinorField(grid, values,
                         jet=np.zeros(grid.shape + (4, 2), dtype=complex))
    zero = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    assert st.decompose(psi, zero).residual == 0.0
    for part in oracle.swept(psi, "a", "b", gauge=zero).values():
        assert np.max(np.abs(matrices(part))) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_decompose_reconstruction_random(seed):
    grid = small_grid()
    psi = st.random_config(100 + seed, "spinor", grid)
    gauge = st.random_config(200 + seed, "gauge", grid)
    dec = st.decompose(psi, gauge)
    assert dec.residual < 1e-12
    for part in map(matrices, oracle.swept(psi, "a", "b", gauge=gauge).values()):
        assert np.max(np.abs(part + np.conj(np.swapaxes(part, -1, -2)))) < 1e-12
        assert np.max(np.abs(np.trace(part, axis1=-2, axis2=-1))) < 1e-12


def test_decompose_scale_invariance():
    grid = small_grid()
    psi = st.random_config(31, "spinor", grid)
    gauge = st.random_config(32, "gauge", grid)
    scaled = st.SpinorField(grid, 3.7 * psi.values, jet=3.7 * psi.jet)
    parts1 = oracle.swept(psi, "a", "b", gauge=gauge)
    parts2 = oracle.swept(scaled, "a", "b", gauge=gauge)
    for name in ("a", "b"):
        assert np.max(np.abs(matrices(parts1[name]) - matrices(parts2[name]))) < 1e-12


def test_decompose_rejects_vanishing_spinor():
    grid = small_grid()
    psi_values = np.ones(grid.shape + (2,), dtype=complex)
    psi_values[0, 0, 0, 0] = 0.0   # wipe both components at one site
    psi = st.SpinorField(grid, psi_values)
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    with pytest.raises(NormalizationError):
        st.decompose(psi, gauge)


def test_decompose_names_the_smallest_norm_of_the_grid(monkeypatch):
    # norms are checked slab by slab, before the kernel divides by them: no
    # division warning, and the error names the first smallest norm of the
    # whole grid, not the first slab's norm below EPS_ZERO
    import warnings
    from su2topo import lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", 6**3)      # one plane a slab
    grid = small_grid()
    values = np.ones(grid.shape + (2,), dtype=complex)
    values[1, 2, 3, 4] = (1e-14, 0.0)       # below EPS_ZERO, in an early slab
    values[4, 0, 1, 2] = 0.0                # the smallest, in a later slab
    values[5, 1, 1, 1] = 0.0                # as small, after it
    psi = st.SpinorField(grid, values)
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    with pytest.raises(NormalizationError) as whole:
        st.normalize(psi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NormalizationError) as info:
            st.decompose(psi, gauge)
    assert info.value.site == whole.value.site == (4, 0, 1, 2)
    assert str(info.value) == str(whole.value)


def test_the_zero_path_of_decompose_reads_slabs_only(monkeypatch):
    # a spinor that serves its samples: decompose, its error path
    # included, asks for no block as large as the grid (a whole-grid read
    # is served slab by slab, so it shows in values_at and not in
    # block_values), and still names the site normalize names
    from su2topo import lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", 6**3)      # one plane a slab
    grid = small_grid()
    values = np.ones(grid.shape + (2,), dtype=complex)
    values[1, 2, 3, 4] = (1e-14, 0.0)
    values[4, 0, 1, 2] = 0.0
    values[5, 1, 1, 1] = 0.0
    psi = st.SpinorField(grid, None, block_values=lambda block: values[block])
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    blocks = []
    real = st.SpinorField.values_at

    def values_at(self, block=slice(None)):
        blocks.append(block)
        return real(self, block)

    monkeypatch.setattr(st.SpinorField, "values_at", values_at)
    with pytest.raises(NormalizationError) as info:
        st.decompose(psi, gauge)
    assert blocks and all(len(range(6)[block]) < 6 for block in blocks)
    with pytest.raises(NormalizationError) as whole:
        st.normalize(psi)
    assert info.value.site == whole.value.site == (4, 0, 1, 2)
    assert str(info.value) == str(whole.value)


def test_decompose_without_jets_is_exact():
    grid = small_grid()
    psi = st.random_config(33, "spinor", grid)
    nojet = st.SpinorField(grid, psi.values)
    gauge = st.random_config(34, "gauge", grid)
    dec = st.decompose(nojet, gauge)
    # the split reassembles A for any derivative samples: the gradient
    # terms cancel between a and b, so finite differences are exact here
    assert dec.residual < 1e-12


def test_parallel_potential_constant_spinor_is_zero():
    grid = small_grid()
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = 1.0
    psi = st.SpinorField(grid, values,
                         jet=np.zeros(grid.shape + (4, 2), dtype=complex))
    assert np.max(np.abs(oracle.swept(psi, "gauge")["gauge"])) == 0.0


def test_parallel_potential_requires_normalized():
    # the rank-4 route that takes the parallel potential of a spinor's
    # current, the trace Chern density, reads the unit spinor: a spinor
    # that is not unit gets the number of its normalize, bit for bit
    grid = small_grid()
    psi = st.random_config(35, "spinor", grid)
    unit = st.normalize(psi)
    assert unit is not psi
    assert st.chern_numbers(psi, ("trace",)) == st.chern_numbers(unit, ("trace",))


def test_decompose_without_a_potential_requires_normalized():
    # the parallel potential is the unit spinor's: the split of a spinor
    # that is not unit is that of its normalize, bit for bit
    grid = small_grid()
    psi = st.random_config(35, "spinor", grid)
    unit = st.normalize(psi)
    assert unit is not psi
    got, expected = (st.decompose(field) for field in (psi, unit))
    assert (got.residual, got.max_covariant, got.max_b) == (
        expected.residual, expected.max_covariant, expected.max_b)


def test_decompose_takes_no_whole_grid_potential(monkeypatch):
    # Without a potential, each slab takes A from its own current.  At one
    # plane a slab, decompose on the identity chart spinor (neither values
    # nor jet stored) peaks below three slabs of temporaries (d Psi, the
    # current, A and the kernel, about 1 KB a site; one slab measured
    # 1.15 KB, the whole run 2.43 MB), and a whole-grid A (8 MB at 48^3)
    # does not fit in that.
    from su2topo import lattice
    n = 48
    monkeypatch.setattr(lattice, "SLAB_SITES", n * n)
    sites = n**3
    bound = 3 * n * n * 1024
    peak, dec = peak_traced_bytes(lambda: st.decompose(st.identity_map_s3(n)))
    assert dec.max_b < 1e-10
    assert peak < bound
    assert peak + sites * 3 * 3 * 8 > bound


def test_parallel_potential_real_spinor_sigma2_channel():
    # Psi = (cos t, sin t) real: only the sigma_2 component survives,
    # equal to 2 dt.
    grid = small_grid()
    pts = grid.points()
    t = 0.3 * pts[..., 0] + 0.2 * pts[..., 1] - 0.5 * pts[..., 3]
    dt = np.zeros(grid.shape + (4,))
    dt[..., 0], dt[..., 1], dt[..., 3] = 0.3, 0.2, -0.5
    values = np.stack([np.cos(t) + 0j, np.sin(t) + 0j], axis=-1)
    jet = np.stack([-np.sin(t)[..., None] * dt + 0j,
                    np.cos(t)[..., None] * dt + 0j], axis=-1)
    psi = st.SpinorField(grid, values, jet=jet)
    gauge = oracle.swept(psi, "gauge")["gauge"]
    assert np.max(np.abs(gauge[..., 0])) < 1e-12
    assert np.max(np.abs(gauge[..., 2])) < 1e-12
    assert np.max(np.abs(gauge[..., 1] - 2.0 * dt)) < 1e-12


def test_parallel_condition_identity_map():
    psi = st.identity_map_s3(12)
    swept = oracle.swept(psi, "gauge", "b")        # b of the parallel potential
    d = covariant(psi, st.GaugeField(psi.grid, swept["gauge"]))
    assert np.max(np.abs(d)) < 1e-12
    assert np.max(np.abs(matrices(swept["b"]))) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_transformation_laws(seed):
    grid = small_grid()
    psi = st.random_config(300 + seed, "spinor", grid)
    gauge = st.random_config(400 + seed, "gauge", grid)
    s, ds, d2s = transformation(grid, 500 + seed)
    psi2, gauge2 = transform(psi, gauge, (s, ds, d2s))
    dec = oracle.swept(psi, "a", "b", gauge=gauge)
    dec2 = oracle.swept(psi2, "a", "b", gauge=gauge2)

    sdag = dagger(s)[..., None, :, :]
    rot = lambda x: s[..., None, :, :] @ matrices(x) @ sdag
    a_law = rot(dec["a"]) + ds @ sdag
    b_law = rot(dec["b"])
    assert np.max(np.abs(matrices(dec2["a"]) - a_law)) < 1e-10
    assert np.max(np.abs(matrices(dec2["b"]) - b_law)) < 1e-10


def test_decomposition_parts_are_gauge_fields():
    # decompose keeps no part, only maxima: those of the gauge-field part
    # b, as its kernels compute it, and of D Psi, bit for bit
    grid = small_grid()
    psi = st.random_config(3, "spinor", grid)
    gauge = st.random_config(4, "gauge", grid)
    dec = st.decompose(psi, gauge)
    b = oracle.swept(psi, "b", gauge=gauge)["b"]
    assert dec.max_b == np.max(np.abs(matrices(b)))
    assert dec.max_covariant == np.max(np.abs(covariant(psi, gauge)))


def _traceless_outer_reference(u, v, weight):
    """weight * (u v^dag - v u^dag) minus half its trace, as full matrices."""
    outer = (u[..., :, None] * np.conj(v)[..., None, None, :]
             - v[..., None, :, None] * np.conj(u)[..., None, :])
    outer = outer * weight[..., None, None, None]
    half_trace = 0.5 * np.trace(outer, axis1=-2, axis2=-1)
    return outer - half_trace[..., None, None] * np.eye(2)


@pytest.mark.parametrize("jets", [True, False])
def test_decompose_matches_the_outer_product_formula(jets):
    grid = small_grid()
    psi = st.random_config(41, "spinor", grid)
    if not jets:
        psi = st.SpinorField(grid, psi.values)
    gauge = st.random_config(42, "gauge", grid)
    dec = st.decompose(psi, gauge)
    parts = oracle.swept(psi, "a", "b", gauge=gauge)
    weight = 1.0 / oracle.norm_squared(psi.values)
    a = _traceless_outer_reference(oracle.derivatives(psi), psi.values, weight)
    b = _traceless_outer_reference(oracle.covariant_derivative(psi, gauge.values),
                                   psi.values, -weight)
    scale = np.max(np.abs(a)) + np.max(np.abs(b))
    assert np.max(np.abs(matrices(parts["a"]) - a)) <= 1e-15 * scale
    assert np.max(np.abs(matrices(parts["b"]) - b)) <= 1e-15 * scale
    assert np.max(np.abs(parts["a"] + parts["b"] - gauge.values)) == pytest.approx(
        dec.residual, abs=1e-15 * scale)


def test_decompose_fails_on_a_scaled_current(monkeypatch):
    import su2topo.su2_algebra as alg
    real = alg.spinor_current

    def scaled(u, v, out):
        current = real(u, v, out)
        current[:, 1:] *= 1.0 + 1e-9
        return current

    monkeypatch.setattr(alg, "spinor_current", scaled)
    grid = small_grid()
    psi = st.random_config(43, "spinor", grid)
    gauge = st.random_config(44, "gauge", grid)
    for field in (psi, st.SpinorField(grid, psi.values)):     # jets, then none
        with pytest.raises(st.ReconstructionError):
            st.decompose(field, gauge)


def test_decompose_fails_on_a_perturbed_covariant_derivative(monkeypatch):
    import su2topo.decomposition as decomposition
    real = decomposition.covariant_derivative

    def perturbed(*args, **kwargs):
        dcov = real(*args, **kwargs)
        dcov[:, 0, 1] += 1e-9
        return dcov

    monkeypatch.setattr(decomposition, "covariant_derivative", perturbed)
    grid = small_grid()
    psi = st.random_config(45, "spinor", grid)
    gauge = st.random_config(46, "gauge", grid)
    for field in (psi, st.SpinorField(grid, psi.values)):     # jets, then none
        with pytest.raises(st.ReconstructionError):
            st.decompose(field, gauge)


def test_folded_maxima_keep_a_nan():
    # the builtin max(0.0, nan) is 0.0: a NaN residual folded that way
    # would read as an exact reconstruction
    from su2topo.decomposition import Decomposition, fold_maxima
    assert fold_maxima((0.0,) * 4, (1.0, 2.0, 0.5, 0.25)) == (1.0, 2.0, 0.5, 0.25)
    folded = fold_maxima(fold_maxima((0.0,) * 4, (np.nan, 1.0, 1.0, 1.0)),
                         (0.5, 2.0, 1.0, 1.0))
    assert np.isnan(folded[0]) and folded[1:] == (2.0, 1.0, 1.0)
    assert all(type(x) is float for x in folded)
    with pytest.raises(st.ReconstructionError, match="nan"):
        Decomposition.from_maxima(folded)


@pytest.mark.parametrize("colour", range(3))
def test_max_b_keeps_a_nan_in_one_component(monkeypatch, colour):
    # max|b| joins max|b^3| and max|b^2 + i b^1| by np.maximum, so a NaN in
    # any one color of b survives (the builtin max(0.5, nan) is 0.5)
    from su2topo import decomposition, su2_algebra
    real = decomposition._axis_parts

    def planted(*args):
        a, b = real(*args)
        b[0, 1, colour, 2, 3] = np.nan
        return a, b

    psi = st.identity_map_s3(8)
    slab, samples, dvalues, current = next(psi.slab_currents())
    gauge = su2_algebra.parallel_components(current)
    norms = st.norm_squared(samples, slab.start)
    clean = decomposition.slab_maxima(samples, dvalues, current, norms, gauge)
    assert not np.isnan(clean).any()
    monkeypatch.setattr(decomposition, "_axis_parts", planted)
    maxima = decomposition.slab_maxima(samples, dvalues, current, norms, gauge)
    assert np.isnan(maxima[3])
    assert maxima[1:3] == clean[1:3]


def _assert_same_bits(new, old):
    """Equal entries, NaNs in the same places and zeros of the same sign,
    in the real and the imaginary parts."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    for part in (np.real, np.imag):
        assert np.array_equal(part(new), part(old), equal_nan=True)
        assert np.array_equal(np.signbit(part(new)), np.signbit(part(old)))


def _kernel_inputs():
    """(name, spinor, gauge or None) of the batched-kernel oracle test: the
    identity and qpower +-1..+-3 charts at 24^3, a bare copy of the
    identity chart, and a non-unit random spinor with a random gauge."""
    grid = st.s3_chart_grid(24)
    yield "identity", st.identity_map_s3(24), None
    for n in (1, -1, 2, -2, 3, -3):
        yield f"qpower:{n}", st.phi_to_spinor(st.quaternion_power_field(n, grid)), None
    bare = oracle.stored(st.identity_map_s3(24))
    yield "bare", st.SpinorField(bare.grid, bare.values), None
    box = st.box_grid((6, 7, 5, 4), -1.0, 1.0)
    yield "random", st.random_config(47, "spinor", box), st.random_config(48, "gauge", box)


@pytest.mark.parametrize("one_plane", [False, True])
def test_batched_kernels_equal_the_per_axis_kernels(one_plane, monkeypatch):
    # J, D Psi, a, b and the maxima are taken for every derivative axis by
    # one call of each kernel, Psi broadcast over the axes; each entry is
    # that of the per-axis kernels bit for bit, zero signs included, on
    # slabs of one plane and of many
    import su2topo.lattice as lattice
    from su2topo import decomposition, su2_algebra
    for name, psi, gauge in _kernel_inputs():
        if one_plane:
            monkeypatch.setattr(lattice, "SLAB_SITES", int(np.prod(psi.grid.shape[1:])))
        if gauge is None:
            psi = st.normalize(psi)
        for slab, samples, dvalues, current, potential in decomposition._slab_inputs(
                psi, gauge):
            _assert_same_bits(current, oracle.axis_current(samples, dvalues))
            norms = st.norm_squared(samples, slab.start)
            dcov = decomposition.covariant_derivative(samples, dvalues, potential)
            _assert_same_bits(dcov, oracle.axis_covariant_derivative(samples, dvalues,
                                                                     potential))
            for new, old in zip(decomposition._axis_parts(samples, current, norms, dcov),
                                oracle.axis_parts(samples, current, norms, dcov)):
                _assert_same_bits(new, old)
            for axis in range(psi.grid.rank):
                _assert_same_bits(su2_algebra.sigma_apply(potential[:, axis], samples,
                                                          np.empty(samples.shape, complex)),
                                  oracle.axis_sigma_apply(potential[:, axis], samples))
            _assert_same_bits(su2_algebra.sigma_bilinear(samples, samples),
                              oracle.axis_sigma_bilinear(samples, samples))
            _assert_same_bits(
                decomposition.slab_maxima(samples, dvalues, current, norms, potential),
                oracle.axis_slab_maxima(samples, dvalues, current, norms, potential))
