import dataclasses

import numpy as np
import pytest

import su2topo as st
import site_major as oracle
from conftest import peak_traced_bytes
from su2topo import FieldError
from su2topo import chern_simons as cs
from su2topo.lattice import component_major


def constant_psi(grid):
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = 1.0
    jet = np.zeros(grid.shape + (3, 2), dtype=complex)
    return st.SpinorField(grid, values, jet=jet)


def test_constant_spinor_zero_density_both_methods():
    psi = constant_psi(st.s3_chart_grid(8))
    charges = cs.chern_simons(psi)
    for density in oracle.swept(psi, *oracle.DENSITIES).values():
        assert np.max(np.abs(density)) < 1e-15
    for q in (charges.q_spinor, charges.q_trace, charges.q_fn):
        assert q == pytest.approx(0.0, abs=1e-14)


def test_spinor_density_requires_rank3():
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    psi = st.normalize(st.random_config(0, "spinor", grid))
    with pytest.raises(FieldError):
        cs.chern_simons(psi)


def test_spinor_density_requires_normalized():
    # the routes read the unit spinor: a spinor that is not normalized gets
    # the charges and split of its normalize, bit for bit
    grid = st.s3_chart_grid(8)
    psi = oracle.stored(st.identity_map_s3(8))
    scaled = st.SpinorField(grid, 3.0 * psi.values, jet=3.0 * psi.jet)
    unit = st.normalize(scaled)
    assert unit is not scaled
    got, expected = (dataclasses.astuple(cs.chern_simons(field, parallel=True))
                     for field in (scaled, unit))
    assert got == expected


def test_identity_map_charge_and_imag_residue():
    # the sweep sums the real part of the complex spinor integrand; the
    # imaginary part it drops is rounding
    psi = st.identity_map_s3(24)
    residue = max(np.max(np.abs(cs.spinor_cs_values(current[:, :, 0], dvalues).imag))
                  for _, _, dvalues, current in psi.slab_currents())
    assert residue < 1e-10
    q = oracle.quadrature(oracle.swept(psi, "spinor")["spinor"], psi.grid)
    assert abs(q - 1.0) < 1e-2


def test_cross_method_pointwise_agreement():
    residuals = {}
    for n in (12, 24):
        psi = st.identity_map_s3(n)
        w = oracle.swept(psi, "spinor", "trace")
        h2 = max(psi.grid.spacing) ** 2
        residuals[n] = np.max(np.abs(w["spinor"] - w["trace"])) / h2
    # fitted constant stays put under refinement (the gap is pure FD error)
    assert residuals[12] / residuals[24] < 2.0
    assert residuals[24] / residuals[12] < 2.0


def _periodic_spinor():
    """A normalized bare spinor on a grid periodic on axis 0 only."""
    grid = st.Grid((9, 10, 12), (0.0, -1.0, -1.0), (2 * np.pi / 9, 0.2, 0.15),
                   (True, False, False))
    x = grid.points()
    f = 0.6 + 0.3 * np.sin(x[..., 0]) * x[..., 1]
    values = np.stack([np.cos(f) * np.exp(1j * (np.cos(x[..., 0]) + x[..., 2])),
                       np.sin(f) * np.exp(1j * x[..., 1] * x[..., 2])], axis=-1)
    return st.SpinorField(grid, values)


def _sweep_charts():
    """Chart makers for the sweep oracles: the 12^3 chart, a 17x19x23 one
    (odd multi-plane slabs), a bare 12^3 chart (finite differences) and a
    bare spinor periodic on axis 0."""
    def bare():
        psi = st.identity_map_s3(12)
        return st.SpinorField(psi.grid, oracle.stored(psi).values)
    return [lambda: st.identity_map_s3(12), lambda: st.identity_map_s3((17, 19, 23)),
            bare, _periodic_spinor]


def _slab_sizes(monkeypatch, make):
    """Yield ``make()`` with the whole grid as one slab and with slabs of
    1, 2 and 5 planes (the last one shorter)."""
    from su2topo import lattice
    for planes in (None, 1, 2, 5):
        psi = make()
        with monkeypatch.context() as mp:
            if planes is not None:
                mp.setattr(lattice, "SLAB_SITES",
                           planes * psi.grid.shape[1] * psi.grid.shape[2])
            assert len(list(lattice.slabs(psi.grid))) == (
                1 if planes is None else -(-psi.grid.shape[0] // planes))
            yield psi


def test_sweep_matches_the_whole_grid_routes(monkeypatch):
    # each route of the component-major slab sweep against the site-major
    # whole-grid oracle, bit for bit, so the trace and dC stencils read
    # windows of held planes, wrapped ones on a periodic axis 0
    for make in _sweep_charts():
        for psi in _slab_sizes(monkeypatch, make):
            _assert_sweep_matches_the_whole_grid(psi)


def test_decompose_takes_the_parallel_potential_slab_by_slab(monkeypatch):
    # without a potential, decompose takes each slab's A from that slab's
    # own current: its maxima, and the parts its kernels compute, are bit
    # for bit the site-major split of the whole-grid parallel potential
    for make in _sweep_charts():
        for psi in _slab_sizes(monkeypatch, make):
            dec = st.decompose(psi)
            gauge = oracle.parallel_components(oracle.current(psi))
            a, b, _ = oracle.parts(psi, gauge)
            residual, _, dmax, bmax = oracle.maxima(psi, gauge)
            assert (dec.residual, dec.max_covariant, dec.max_b) == (residual, dmax, bmax)
            parts = oracle.swept(psi, "a", "b")
            assert np.array_equal(parts["a"], a)
            assert np.array_equal(parts["b"], b)


def _assert_sweep_matches_the_whole_grid(psi):
    grid = psi.grid
    charges = cs.chern_simons(psi, parallel=True)
    sign = st.ORIENTATION_SIGN * grid.orientation
    whole = oracle.routes(psi)
    # the densities the sweep fed its quadratures, and A, C, H and b by
    # its kernels, slab by slab
    swept = oracle.swept(psi, *oracle.DENSITIES, "gauge", "c", "h", "b")
    gauge = st.GaugeField(grid, swept["gauge"])
    assert np.array_equal(swept["spinor"], sign * whole["spinor"].real)
    assert np.array_equal(swept["gauge"], whole["gauge"])
    assert np.array_equal(swept["trace"], sign * whole["trace"])
    assert np.array_equal(swept["c"], whole["c"])
    assert np.array_equal(swept["h"], whole["h"])
    assert np.array_equal(swept["fn"], sign * whole["fn"] / (8.0 * np.pi**2))
    assert np.array_equal(st.trace_pointwise(gauge), 8.0 * np.pi**2 * whole["trace"])
    # each charge, summed as its density was swept, is the quadrature's
    # definition on the oracle's whole-grid density, bit for bit
    assert (charges.q_spinor, charges.q_trace, charges.q_fn) == tuple(
        oracle.plane_quadrature(density, grid) for density in (
            sign * whole["spinor"].real, sign * whole["trace"],
            sign * whole["fn"] / (8.0 * np.pi**2)))
    dc, h = whole["dc"], whole["h"]
    residual = max(float(np.max(np.abs(dc[..., i, j] - dc[..., j, i] - h[..., idx])))
                   for idx, (i, j) in enumerate(oracle.H_PAIRS))
    assert charges.exactness_residual == residual
    # the parallel condition the sweep took is the whole-grid split of the
    # same A, and decompose's
    assert charges.parallel_maxima == oracle.maxima(psi, whole["gauge"])
    parallel, dec = charges.parallel, st.decompose(psi, gauge)
    assert (parallel.residual, parallel.max_covariant, parallel.max_b) == (
        dec.residual, dec.max_covariant, dec.max_b)
    assert np.array_equal(swept["b"], oracle.parts(psi, whole["gauge"])[1])


def test_quaternion_square_charge():
    grid = st.s3_chart_grid(48)
    psi = st.phi_to_spinor(st.quaternion_power_field(2, grid))
    q = cs.chern_simons(psi).q_spinor
    assert abs(q - 2.0) < 0.02


def test_global_phase_invariance():
    psi = st.identity_map_s3(12)
    alpha = 0.731
    whole = oracle.stored(psi)
    rotated = st.SpinorField(psi.grid, np.exp(1j * alpha) * whole.values,
                             jet=np.exp(1j * alpha) * whole.jet)
    w1 = oracle.swept(psi, "spinor")["spinor"]
    w2 = oracle.swept(rotated, "spinor")["spinor"]
    assert np.max(np.abs(w1 - w2)) < 1e-14


def test_abelian_route_constant_spinor():
    psi = constant_psi(st.s3_chart_grid(8))
    for part in oracle.swept(psi, "c", "h").values():
        assert np.max(np.abs(part)) == 0.0
    assert cs.chern_simons(psi).q_fn == 0.0


def test_fn_charge_matches_spinor_charge():
    psi = st.identity_map_s3(24)
    charges = cs.chern_simons(psi)
    q = charges.q_spinor
    assert abs(charges.q_fn - q) < 0.02 * max(1.0, abs(q))
    assert charges.exactness_residual < 50.0 * max(psi.grid.spacing) ** 2


def test_abelian_nonabelian_pointwise_identity():
    constants = {}
    for n in (12, 24):
        psi = st.identity_map_s3(n)
        swept = oracle.swept(psi, "gauge", "c", "h")
        lhs = st.fn_pointwise(component_major(swept["c"], 3),
                              component_major(swept["h"], 3))
        rhs = st.trace_pointwise(st.GaugeField(psi.grid, swept["gauge"]))
        h2 = max(psi.grid.spacing) ** 2
        constants[n] = np.max(np.abs(lhs - rhs)) / h2
    assert constants[12] / constants[24] < 2.0
    assert constants[24] / constants[12] < 2.0


def test_h_bianchi_closure():
    errors = {}
    for n in (12, 24):
        psi = st.identity_map_s3(n)
        h = oracle.swept(psi, "h")["h"]               # H_01, H_02, H_12
        closure = np.zeros(psi.grid.shape)
        from su2topo.lattice import derivative_stack
        # cyclic (i, j, k) with H_jk = H_12, H_20 = -H_02, H_01
        for i, h_jk in ((0, h[..., 2]), (1, -h[..., 1]), (2, h[..., 0])):
            dh = derivative_stack(h_jk, psi.grid)[..., i]
            closure = closure + 2.0 * dh
        errors[n] = np.max(np.abs(closure))
    assert errors[12] / errors[24] > 3.0


def test_exactness_residual_raises_on_a_wrong_potential(monkeypatch):
    # a Berry potential C = -2 Im J^0 of the wrong sign gives dC = -H, with
    # H built from J^1..3 only: the residual check raises.  The bound is
    # O((h/L)^2) times the curvature scale, so from 24^3 on, and at the
    # 32^3 default of verify, 2|H| exceeds it.
    charts = [st.identity_map_s3(n) for n in (24, 32, 64)]
    for psi in charts:
        cs.chern_simons(psi)
    real = st.fields._slab_current

    def flipped(*args):
        slab, samples, dvalues, current = real(*args)
        current[:, :, 0] = np.conj(current[:, :, 0])
        return slab, samples, dvalues, current

    monkeypatch.setattr(st.fields, "_slab_current", flipped)
    for psi in charts:
        with pytest.raises(st.ReconstructionError, match="not a potential for H"):
            cs.chern_simons(psi)


@pytest.mark.parametrize("half", [0.5, 4.0])
def test_exactness_check_does_not_depend_on_the_box_size(half):
    # Correct fields on boxes of any size pass: the bound scales with
    # (h/L)^2, not h^2, so a 24^3 random spinor on [-0.5, 0.5]^3, which read
    # 164 times the old h^2 (1 + max|H|) bound, is within it.
    grid = st.box_grid((24,) * 3, -half, half)
    for seed in range(3):
        psi = st.normalize(st.random_config(seed, "spinor", grid))
        for field in (psi, st.SpinorField(grid, oracle.stored(psi).values)):   # jets, then none
            charges = cs.chern_simons(field)
            assert charges.exactness_residual > 0.0


def test_exactness_check_holds_where_h_vanishes():
    # A pure phase e^{i theta} (1, 0) has m constant and H = 0; its bare
    # samples still give an O(h^2) curl of C, which the scale of dC covers.
    grid = st.box_grid((16,) * 3, -1.0, 1.0)
    x = grid.points()
    theta = np.sin(x[..., 0]) * x[..., 1] + x[..., 2] ** 2
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[..., 0] = np.exp(1j * theta)
    psi = st.SpinorField(grid, values)
    assert np.max(np.abs(oracle.swept(psi, "h")["h"])) == 0.0
    assert cs.chern_simons(psi).exactness_residual > 1e-3


def test_knot_charge_refinement_ratio():
    errs = [abs(cs.chern_simons(st.identity_map_s3(n)).q_spinor - 1.0)
            for n in (12, 24)]
    assert 3.0 < errs[0] / errs[1] < 5.0


# --------------------------------------------------------------------------
# closed-form kernels against the generic numpy forms they replaced
# --------------------------------------------------------------------------

def _spinor_cs_reference(values, dvalues):
    """Spinor integrand with s1 and s2 as full einsum contractions."""
    s1 = np.einsum("...c,...ic->...i", np.conj(values), dvalues)
    s2 = np.einsum("...jc,...kc->...jk", np.conj(dvalues), dvalues)
    out = np.zeros(s1.shape[:-1], dtype=complex)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out += s1[..., i] * (s2[..., j, k] - s2[..., k, j])
    return -out / (4.0 * np.pi**2)


@pytest.mark.parametrize("seed", range(3))
def test_closed_form_kernels_match_numpy(seed):
    # the kernels take component-major slabs (planes, components..., n1, n2)
    rng = np.random.default_rng(seed)
    a = 2.0 * rng.normal(size=(5, 4, 6, 3, 3))          # site-major
    scale = np.max(np.abs(a)) ** 3
    assert np.max(np.abs(cs._det3(component_major(a, 3)) - np.linalg.det(a))) <= (
        1e-14 * scale)
    # a flipped cofactor sign is far outside that bound
    assert np.max(np.abs(cs._det3(component_major(a[..., ::-1, :], 3))
                         - np.linalg.det(a))) > 1e-3 * scale

    m, u, v = rng.normal(size=(3, 5, 4, 6, 3))
    assert np.array_equal(cs._triple(*(component_major(x, 3) for x in (m, u, v))),
                          np.sum(m * np.cross(u, v), axis=-1))

    values = rng.normal(size=(5, 4, 6, 2)) + 1j * rng.normal(size=(5, 4, 6, 2))
    dvalues = rng.normal(size=(5, 4, 6, 3, 2)) + 1j * rng.normal(size=(5, 4, 6, 3, 2))
    j0 = np.einsum("...c,...ic->...i", np.conj(values), dvalues)
    assert np.array_equal(cs.spinor_cs_values(component_major(j0, 3),
                                              component_major(dvalues, 3)),
                          _spinor_cs_reference(values, dvalues))


@pytest.mark.parametrize("seed", range(3))
def test_trace_contraction_keeps_its_written_colour_order(seed):
    # the trace density sums A^a (dA)^a over the colors as
    # (A^0 D^0 + A^2 D^2) + A^1 D^1, the order numpy's einsum takes on
    # color-last rows; the plain (0 + 1) + 2 differs in the last bit on
    # many rows, so the pin would catch a reordering
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 3, 3, 7, 9))
    da = rng.normal(size=(4, 3, 3, 3, 7, 9))
    term1 = plain = np.zeros((4, 7, 9))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        x, y = a[:, i], da[:, j, k] - da[:, k, j]
        term1 = term1 + ((x[:, 0] * y[:, 0] + x[:, 2] * y[:, 2]) + x[:, 1] * y[:, 1])
        plain = plain + ((x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1]) + x[:, 2] * y[:, 2])
    det = cs._det3(a)
    assert np.array_equal(cs.trace_cs_values(a, da),
                          -(term1 - 6.0 * det / 3.0) / (16.0 * np.pi**2))
    assert not np.array_equal(term1, plain)


def test_bare_spinor_is_differenced_once_per_slab(monkeypatch):
    # the charge sweep (with the parallel condition) and decompose, with
    # the parallel potential and with a given one, each take d Psi of a
    # jet-less spinor once per slab and hand it to the current, the spinor
    # density and D Psi
    from su2topo import decomposition, lattice
    psi = st.identity_map_s3(24)
    bare = st.SpinorField(psi.grid, oracle.stored(psi).values)
    monkeypatch.setattr(lattice, "SLAB_SITES", 4 * 24 * 24)
    gauge = st.GaugeField(psi.grid, oracle.swept(bare, "gauge")["gauge"])
    calls = []
    real = lattice.derivative_stack

    def counted(values, grid, order=2, slab=slice(None), first=None):
        if np.iscomplexobj(values):        # the spinor's samples, on a slab's planes
            calls.append(slab)
        return real(values, grid, order, slab, first)

    monkeypatch.setattr(lattice, "derivative_stack", counted)
    charges = cs.chern_simons(bare, parallel=True)
    assert charges.parallel.max_covariant > 0.0
    sweeps = [list(calls)]
    for args in ((bare,), (bare, gauge)):
        calls.clear()
        decomposition.decompose(*args)
        sweeps.append(list(calls))
    for sweep in sweeps:
        assert len(sweep) == 6
        hits = np.zeros(24, dtype=int)
        for slab in sweep:
            hits[slab] += 1
        assert np.all(hits == 1)


def test_chart_sweep_peaks_below_any_whole_grid_array(monkeypatch):
    # The identity spinor stores neither values nor jet: the one sweep of
    # the knot charges and the parallel condition computes both slab by
    # slab from the chart formula, holds A and c only as a halo of planes
    # and H only for the slabs the trace pass has not read, and sums each
    # density as it is swept.  At one plane a slab it peaks below 1.6
    # slabs of temporaries (d Psi, the current, the decomposition kernel
    # and the derivative stacks of A and c, at 1 KB a site): measured
    # 3.02 MB with the stencils on held planes, no window copied and d_i
    # A_i not computed (3.41 MB with windows copied, under a bound of 1.8
    # slabs; 4.11 MB site-major, under two).  Neither the 3.5 MB of values
    # nor one whole-grid density (0.9 MB), the 10.6 MB jet of 48^3 sites
    # or a whole-grid A, c and H (13.3 MB) fits in it beside that peak.
    from su2topo import lattice
    n = 48
    monkeypatch.setattr(lattice, "SLAB_SITES", n * n)
    sites = n**3

    def sweep():
        psi = st.identity_map_s3(n)
        assert cs.chern_simons(psi, parallel=True).parallel.max_b < 1e-10
        return psi

    peak, psi = peak_traced_bytes(sweep)
    bound = 8 * n * n * 1024 // 5
    assert peak < bound
    assert psi.jet is None and psi.values is None
    for resident in (sites * 2 * 16, sites * 8, sites * 3 * 2 * 16, sites * 8 * 15):
        assert peak + resident > bound


def test_the_first_pass_drops_each_slab_before_the_trace_pass(monkeypatch):
    # The trace pass runs a slab behind the first pass.  By then the sweep
    # has dropped the newest slab's component-major samples and d Psi and
    # its current J, and nothing else holds them: not the suspended
    # generator of the slabs, whose frame binds no slab array.
    import weakref
    from su2topo import fields, lattice, su2_algebra
    monkeypatch.setattr(lattice, "SLAB_SITES", 1)            # one plane a slab
    refs, alive = [], []
    real_major, real_current = fields.component_major, su2_algebra.spinor_current
    real_trace = cs.trace_cs_values

    def component_major(block, rank):
        out = real_major(block, rank)
        refs.append(weakref.ref(out))
        return out

    def spinor_current(u, v, out):
        refs.append(weakref.ref(out.base))                    # J of the slab
        return real_current(u, v, out)

    def trace_cs_values(a, da):
        alive.append(sum(ref() is not None for ref in refs))
        return real_trace(a, da)

    monkeypatch.setattr(fields, "component_major", component_major)
    monkeypatch.setattr(su2_algebra, "spinor_current", spinor_current)
    monkeypatch.setattr(cs, "trace_cs_values", trace_cs_values)
    cs.chern_simons(st.identity_map_s3(16))
    assert len(refs) == 16 * (2 + 1) and alive == [0] * 16


def test_the_sweep_reads_each_slab_of_served_values_once(monkeypatch):
    # A chart spinor serves its samples: normalize's check, which returns
    # the unit spinor itself, and the one sweep each compute every slab
    # once, in order.  The charges and maxima equal those of the same
    # samples stored, bit for bit.
    from su2topo import lattice
    n = 12
    monkeypatch.setattr(lattice, "SLAB_SITES", 5 * n * n)     # an uneven last slab
    served = st.identity_map_s3(n)
    blocks = []

    def block_values(block):
        blocks.append(block)
        return served.block_values(block)

    psi = st.SpinorField(served.grid, None, block_jet=served.block_jet,
                         block_values=block_values)
    stored = st.SpinorField(served.grid, oracle.stored(served).values,
                            block_jet=served.block_jet)
    assert st.normalize(psi) is psi
    assert blocks == list(lattice.slabs(psi.grid))
    blocks.clear()
    charges = cs.chern_simons(psi, parallel=True)
    assert blocks == 2 * list(lattice.slabs(psi.grid))
    expected = cs.chern_simons(stored, parallel=True)
    assert (charges.q_spinor, charges.q_trace, charges.q_fn,
            charges.exactness_residual, charges.parallel_maxima) == (
        expected.q_spinor, expected.q_trace, expected.q_fn,
        expected.exactness_residual, expected.parallel_maxima)


def test_a_nan_in_one_slab_of_the_jet_never_passes(monkeypatch, capsys):
    # The sweep folds its residues and residuals with np.maximum: a NaN in
    # one slab's jet reaches the exactness residual, which raises, and
    # verify reports an exactness FAIL.  (The builtin max(0.0, nan) is 0.0,
    # which would let the residual check pass.)
    from su2topo import generators
    from su2topo.cli import main
    real = generators._chart_jet

    def poisoned(trig, block):
        dn = real(trig, block)
        if block == slice(0, 1):        # the first plane (one plane a slab)
            dn[0, 3, 1, 2] = np.nan
        return dn

    monkeypatch.setattr(generators, "_chart_jet", poisoned)
    from su2topo import lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", 16 * 16)
    with pytest.raises(st.ReconstructionError, match="not a potential for H"):
        cs.chern_simons(st.identity_map_s3(16), parallel=True)
    assert main(["verify", "identity", "--grid", "16,16,16", "--no-color"]) == 1
    out = capsys.readouterr().out
    assert "name: exactness\n      status: FAIL" in out and "overall: FAIL" in out
    assert "PASS" not in out


def test_parallel_reads_decompose_without_the_sweep():
    # KnotCharges.parallel, from the reductions the sweep took, is the
    # split decompose takes in a sweep of its own; a sweep not asked for
    # them has none
    psi = st.identity_map_s3(12)
    swept = cs.chern_simons(psi, parallel=True).parallel
    later = st.decompose(psi)
    assert (swept.residual, swept.max_covariant, swept.max_b) == (
        later.residual, later.max_covariant, later.max_b)
    assert cs.chern_simons(psi).parallel is None


@pytest.mark.parametrize("jets", [True, False], ids=["jets", "bare"])
def test_normalized_input_peaks_below_one_grid_of_unit_samples(jets, monkeypatch):
    # normalize serves its samples and jet block by block and stores
    # neither: at one-plane slabs the knot charges and the split of a
    # stored spinor that is not normalized trace less than one whole grid
    # of unit samples (32 B a site), which a stored result would hold.
    # Measured at 48^3: 2.80 and 2.00 MB with a jet, 2.77 and 1.98 MB
    # bare, under 3.54 MB (7.2 and 6.4 MB, 6.3 and 5.5 MB when normalize
    # stored its samples)
    from su2topo import lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", 1)
    n = 48
    grid = st.box_grid((n,) * 3, -1.0, 1.0)
    psi = st.random_config(3, "spinor", grid)
    if not jets:
        psi = st.SpinorField(grid, psi.values)
    assert st.normalize(psi).values is None
    unit_grid = n**3 * 2 * 16
    for run in (lambda: cs.chern_simons(psi), lambda: st.decompose(psi)):
        peak, _ = peak_traced_bytes(run)
        assert peak < unit_grid
