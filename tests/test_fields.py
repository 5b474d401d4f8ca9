import numpy as np
import pytest

import su2topo as st
from su2topo import FieldError, NormalizationError, fldio
from su2topo.lattice import LatticeField, component_major, read_only, site_major

import site_major as oracle


def small_grid():
    return st.box_grid((6, 6, 6, 6), -1.0, 1.0)


def constant_spinor(grid, comps=(1.0, 0.0)):
    values = np.zeros(grid.shape + (2,), dtype=complex)
    values[...] = np.asarray(comps, dtype=complex)
    jet = np.zeros(grid.shape + (grid.rank, 2), dtype=complex)
    return st.SpinorField(grid, values, jet=jet)


def test_normalize_unit_spinor_unchanged():
    grid = small_grid()
    psi = constant_spinor(grid)
    assert st.normalize(psi) is psi


def test_normalized_is_read_from_the_samples():
    # normalize returns a unit spinor itself, whichever way its samples
    # arrive, and decides from the samples alone
    psi = st.identity_map_s3(8)
    whole = oracle.stored(psi)
    qpower = st.phi_to_spinor(st.quaternion_power_field(3, st.s3_chart_grid(8)))
    grid = small_grid()
    for field in (psi, whole, st.SpinorField(psi.grid, whole.values), qpower,
                  constant_spinor(grid, (1.0, 1e-6))):     # |Psi|^2 - 1 = 1e-12
        assert st.normalize(field) is field
    scaled = constant_spinor(grid, (1.0, 1e-4))
    assert st.normalize(scaled) is not scaled


def test_normalize_reads_the_norms_below_one_too():
    # the check reads each slab's smallest and largest |Psi|^2 only: norms
    # that all fall short of 1 by more than NORM_TOL are not unit, and by
    # less they are
    grid = small_grid()
    short = constant_spinor(grid, (1.0 - 1e-6, 0.0))        # |Psi|^2 - 1 = -2e-6
    assert st.normalize(short) is not short
    near = constant_spinor(grid, (1.0 - 1e-11, 0.0))        # -2e-11
    assert st.normalize(near) is near


def test_normalize_scales_components():
    grid = small_grid()
    psi = constant_spinor(grid, (3.0 + 4.0j, 0.0))
    out = oracle.stored(st.normalize(psi)).values
    assert np.allclose(out[..., 0], (3 + 4j) / 5.0, atol=1e-15)
    assert np.max(np.abs(out[..., 1])) == 0.0


@pytest.mark.parametrize("planes", [None, 1], ids=["one-slab", "plane-slabs"])
@pytest.mark.parametrize("samples, site, message", [
    ({(2, 3, 1, 0): 0.0, (2, 3, 1, 1): 0.0}, (2, 3, 1, 0),      # the first of two
     "spinor norm 0.000e+00 < 1.0e-12"),
    ({(5, 1, 4, 2): 0.0}, (5, 1, 4, 2), "spinor norm 0.000e+00 < 1.0e-12"),
    ({(1, 0, 3, 0): 1e-13, (4, 2, 2, 5): 1e-14}, (4, 2, 2, 5),
     "spinor norm 1.000e-14 < 1.0e-12"),
    ({(1, 0, 3, 0): 0.0, (4, 2, 2, 5): 1e200}, (4, 2, 2, 5), "spinor norm overflows"),
], ids=["zero", "last-slab", "smaller-zero", "overflow-after-zero"])
def test_normalize_zero_site_raises_with_site(samples, site, message, planes, monkeypatch):
    # one sweep names the smallest norm (the first of equal ones), and an
    # overflowing one wherever it lies, whether the grid is one slab or
    # one slab a plane
    from su2topo import lattice
    grid = small_grid()
    if planes is not None:
        monkeypatch.setattr(lattice, "SLAB_SITES", planes)
    values = np.ones(grid.shape + (2,), dtype=complex)
    for at, sample in samples.items():
        values[at] = (sample, 0.0)
    overflow = message.endswith("overflows")
    with pytest.raises(FieldError if overflow else NormalizationError) as info:
        st.normalize(st.SpinorField(grid, values))
    if overflow:
        assert str(info.value) == (f"{message} at site {site}: its samples are too "
                                   "large to square")
    else:
        assert str(info.value) == f"{message} at site {site}" and info.value.site == site


def test_normalization_error_site_is_plain_ints():
    grid = small_grid()
    values = np.ones(grid.shape + (2,), dtype=complex)
    values[2, 3, 1, 0] = 0.0
    psi = st.SpinorField(grid, values)
    gauge = st.GaugeField(grid, np.zeros(grid.shape + (4, 3)))
    for call in (lambda: st.normalize(psi), lambda: st.decompose(psi, gauge)):
        with pytest.raises(NormalizationError) as info:
            call()
        assert info.value.site == (2, 3, 1, 0)
        assert all(type(i) is int for i in info.value.site)
        assert str(info.value).endswith("at site (2, 3, 1, 0)")


def test_normalize_idempotent():
    grid = small_grid()
    psi = st.random_config(5, "spinor", grid)
    once = st.normalize(psi)
    twice = st.normalize(once)
    for unit in (once, twice):
        assert unit.values is None and unit.jet is None and unit.block_jet is not None
    once, twice = oracle.stored(once), oracle.stored(twice)
    assert np.max(np.abs(twice.values - once.values)) < 1e-14
    assert np.max(np.abs(twice.jet - once.jet)) < 1e-14


def test_normalize_jet_matches_analytic_quotient():
    grid = small_grid()
    psi = st.random_config(6, "spinor", grid)
    out = st.normalize(psi)
    assert out.jet is None and out.block_jet is not None
    # the transported jet must differentiate |Psi|^2 = 1 to zero
    out = oracle.stored(out)
    dnorm = np.einsum("...c,...mc->...m", np.conj(out.values), out.jet)
    assert np.max(np.abs(dnorm.real)) < 1e-14


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("planes", [1, 4])
def test_normalize_quotient_equals_the_site_major_oracle(planes, monkeypatch):
    # the quotient rule runs component-major, with einsum's Psi^dag d Psi
    # written out: the samples and the jet of every block equal the
    # site-major einsum form bit for bit, signs of zero included, on a
    # random spinor with zero and signed-zero entries and on the faces of
    # a box polynomial
    from su2topo import lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", planes * 5 * 6 * 7)
    rng = np.random.default_rng(11)
    grid = st.box_grid((6, 5, 6, 7), -1.0, 1.0)
    parts = [rng.normal(size=grid.shape + comps + (2,)) * 10.0 ** rng.integers(-3, 3, size=2)
             for comps in ((2,), (grid.rank, 2))]
    for part in parts:
        part[rng.random(part.shape) < 0.15] = 0.0
        part[rng.random(part.shape) < 0.15] = -0.0
    values, jet = (part.view(np.complex128)[..., 0] for part in parts)
    values[..., 0] += 3.0
    spinors = [st.SpinorField(grid, values, jet=jet)]
    box = st.box_grid((9, 9, 9, 9), -2.0, 2.0)
    phi = st.quaternion_polynomial_field([[-1.1, 0.1, -0.05, 0.2], [1.1, -0.1, 0.05, -0.2]], box)
    spinors += [st.phi_to_spinor(st.face_restrict(phi, axis, side))
                for axis in range(4) for side in (0, 1)]
    for psi in spinors:
        samples = oracle.stored(psi).values
        norms = np.sqrt(oracle.norm_squared(samples))
        expected = oracle.quotient(samples, oracle.stored(psi).jet, norms)
        unit = st.normalize(psi)
        for slab in lattice.slabs(psi.grid):
            assert np.array_equal(_bits(unit.values_at(slab)),
                                  _bits(samples[slab] / norms[slab][..., None]))
            assert np.array_equal(_bits(unit.exact_jet(slab)), _bits(expected[slab]))


def test_spinor_phi_component_layout():
    grid = small_grid()
    psi = constant_spinor(grid, (1.0 + 2.0j, 3.0 + 4.0j))
    phi = st.spinor_to_phi(psi)
    assert np.allclose(phi.values[0, 0, 0, 0], [1, 2, 3, 4])
    zero = constant_spinor(grid, (0.0, 0.0))
    assert np.max(np.abs(st.spinor_to_phi(zero).values)) == 0.0


def test_phi_to_spinor_basis_vectors():
    grid = small_grid()
    values = np.zeros(grid.shape + (4,))
    values[..., 0] = 1.0
    psi = st.phi_to_spinor(st.PhiField(grid, values))
    assert np.allclose(psi.values[..., 0], 1.0) and np.allclose(psi.values[..., 1], 0.0)
    values = np.zeros(grid.shape + (4,))
    values[..., 3] = 1.0
    psi = st.phi_to_spinor(st.PhiField(grid, values))
    assert np.allclose(psi.values[..., 1], 1.0j)


def test_spinor_phi_round_trip_exact():
    grid = small_grid()
    psi = st.random_config(7, "spinor", grid)
    back = st.phi_to_spinor(st.spinor_to_phi(psi))
    assert np.array_equal(back.values, psi.values)
    assert np.array_equal(back.jet, psi.jet)


def test_phi_norm_equals_spinor_norm():
    grid = small_grid()
    psi = st.random_config(8, "spinor", grid)
    phi = st.spinor_to_phi(psi)
    lhs = np.sum(phi.values**2, axis=-1)
    assert np.max(np.abs(lhs - st.norm_squared(component_major(psi.values, 4), 0))) < 1e-14


def test_norm_squared_equals_the_trailing_axis_sum():
    # |Psi_1|^2 + |Psi_2|^2 of the two component planes is numpy's sum over
    # a trailing component axis bit for bit, over 300 orders of magnitude
    grid = st.box_grid((6, 7, 8, 9), -1.0, 1.0)
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-150, 150, size=grid.shape + (2,))
    values = scale * (rng.normal(size=scale.shape) + 1j * rng.normal(size=scale.shape))
    samples = component_major(st.SpinorField(grid, values).values, 4)
    expected = np.sum(np.abs(values) ** 2, axis=-1)
    assert np.array_equal(st.norm_squared(samples, 0), expected)
    assert np.array_equal(st.norm_squared(samples[2:4], 2), expected[2:4])


def unit_vector(phi):
    """n = phi/|phi|, the real view of the normalized spinor."""
    return st.spinor_to_phi(st.normalize(st.phi_to_spinor(phi)))


def test_unit_vector_examples():
    grid = small_grid()
    values = np.zeros(grid.shape + (4,))
    values[..., 0] = 3.0
    values[..., 2] = 4.0
    unit = oracle.stored(unit_vector(st.PhiField(grid, values)))
    assert np.allclose(unit.values[0, 0, 0, 0], [0.6, 0, 0.8, 0])

    values = np.zeros(grid.shape + (4,))
    values[..., 3] = -2.0
    unit = oracle.stored(unit_vector(st.PhiField(grid, values)))
    assert np.allclose(unit.values[..., 3], -1.0)


def test_unit_vector_zero_site_raises():
    grid = small_grid()
    values = np.ones(grid.shape + (4,))
    values[1, 1, 1, 1] = 0.0   # wipe the whole 4-vector at one site
    with pytest.raises(NormalizationError) as info:
        unit_vector(st.PhiField(grid, values))
    assert info.value.site == (1, 1, 1, 1)


def test_unit_vector_jets_tangent():
    grid = small_grid()
    psi = st.random_config(9, "spinor", grid)
    unit = unit_vector(st.spinor_to_phi(psi))
    assert unit.jet is None and unit.block_jet is not None
    unit = oracle.stored(unit)
    radial = np.einsum("...a,...ma->...m", unit.values, unit.jet)
    assert np.max(np.abs(radial)) < 1e-14


def test_sigma_model_north_pole():
    grid = small_grid()
    samples = component_major(constant_spinor(grid).values, 4)
    m = site_major(st.sigma_model_field(samples), 4)
    assert m.shape == grid.shape + (3,)
    assert np.allclose(m[..., 2], 1.0)
    assert np.max(np.abs(m[..., :2])) < 1e-15


def test_sigma_model_equal_superposition():
    grid = small_grid()
    amp = 1.0 / np.sqrt(2.0)
    samples = component_major(constant_spinor(grid, (amp, amp)).values, 4)
    m = site_major(st.sigma_model_field(samples), 4)
    assert np.allclose(m[..., 0], 1.0)


def test_sigma_model_of_a_normalized_spinor_is_a_unit_vector():
    # the knot-charge routes that read m take it of the normalized spinor
    # (test_spinor_density_requires_normalized)
    grid = small_grid()
    psi = oracle.stored(st.normalize(st.random_config(10, "spinor", grid)))
    m = st.sigma_model_field(component_major(psi.values, 4))
    norms = np.sum(m**2, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_face_restrict_keeps_in_face_jet():
    grid = small_grid()
    psi = st.random_config(22, "spinor", grid)
    face = st.face_restrict(psi, 1, 1)
    assert face.grid.rank == 3
    assert face.jet is None and face.block_jet is not None
    assert face.values is None and face.block_values is not None
    assert oracle.stored(face).jet.shape == face.grid.shape + (3, 2)
    np.testing.assert_array_equal(oracle.stored(face).values, psi.values[:, -1])


def test_face_restrict_of_a_gauge_field_keeps_the_in_face_components():
    # a gauge face keeps A_mu for mu != axis, and its jet d_nu A_mu for
    # nu, mu != axis: the derivative axis and the component axis both
    grid = st.box_grid((16, 17, 18, 16), -1.0, 1.0)
    gauge = st.random_config(1, "gauge", grid)
    for axis in range(4):
        keep = [i for i in range(4) if i != axis]
        for side, index in ((0, 0), (1, grid.shape[axis] - 1)):
            face = st.face_restrict(gauge, axis, side)
            assert isinstance(face, st.GaugeField) and face.grid == grid.drop_axis(axis)
            values = np.take(gauge.values, index, axis)[..., keep, :]
            jet = np.take(gauge.jet, index, axis)[:, :, :, keep][..., keep, :]
            assert face.values is None and face.jet is None and face.block_jet is not None
            assert oracle.stored(face).values.shape == face.grid.shape + (3, 3)
            np.testing.assert_array_equal(oracle.stored(face).values, values)
            np.testing.assert_array_equal(oracle.stored(face).jet, jet)


def _unit_rows(rng, shape, n):
    rows = rng.normal(size=shape + (n,))
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


def _contract_arrays(cls, grid):
    """Valid constructor arrays of one field class on ``grid``."""
    rng = np.random.default_rng(3)
    shape, rank = grid.shape, grid.rank
    if cls is st.SpinorField:
        spinor = _unit_rows(rng, shape, 4)
        return {"values": spinor[..., 0::2] + 1j * spinor[..., 1::2],
                "jet": rng.normal(size=shape + (rank, 2)) + 0j}
    if cls is st.PhiField:
        return {"values": rng.normal(size=shape + (4,)),
                "jet": rng.normal(size=shape + (rank, 4))}
    return {"values": rng.normal(size=shape + (rank, 3)),
            "jet": rng.normal(size=shape + (rank, rank, 3))}


CONTRACT_CLASSES = [st.SpinorField, st.PhiField, st.GaugeField]


@pytest.mark.parametrize("cls", CONTRACT_CLASSES, ids=lambda c: c.__name__)
def test_field_constructor_contract(cls):
    grid = st.box_grid((4, 4, 5, 4), -1.0, 1.0)
    arrays = _contract_arrays(cls, grid)

    def build(**changes):
        return cls(grid, **{**arrays, **changes})

    # wrong sample or jet shape, non-finite samples
    for name, array in arrays.items():
        with pytest.raises(FieldError):
            build(**{name: array[:-1]})
    bad = arrays["values"].copy()
    bad.reshape(-1)[5] = np.nan
    with pytest.raises(FieldError):
        build(values=bad)

    # read-only arrays, detached from the caller's
    field = build()
    kept = {name: array.copy() for name, array in arrays.items()}
    for name, array in arrays.items():
        stored = getattr(field, name)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored.reshape(-1)[0] = 0.0
        array[...] = 0.0
        np.testing.assert_array_equal(stored, kept[name])
    if "jet" in arrays:
        assert field.jet is not None

    # a read-only aligned array with no writable base is adopted; a
    # read-only view of a writable base and an unaligned view are copied
    owned = {name: read_only(array.copy()) for name, array in kept.items()}
    adopted = build(**owned)
    for name, array in owned.items():
        assert np.shares_memory(getattr(adopted, name), array)
    for name, array in kept.items():
        view = array.copy()[...]
        view.setflags(write=False)
        assert view.base.flags.writeable
        buffer = np.empty(array.nbytes + 1, dtype=np.uint8)
        buffer[1:] = array.reshape(-1).view(np.uint8)
        buffer.setflags(write=False)
        unaligned = buffer[1:].view(array.dtype).reshape(array.shape)
        assert not unaligned.flags.aligned and not unaligned.flags.writeable
        for source in (view, unaligned):
            stored = getattr(cls(grid, **{**kept, name: source}), name)
            assert not np.shares_memory(stored, source)
            assert stored.flags.aligned and not stored.flags.writeable
            np.testing.assert_array_equal(stored, array)

    # normalize decides from the samples
    if cls is st.SpinorField:
        scaled = cls(grid, 2.0 * kept["values"])
        phi = st.spinor_to_phi(field)
        unit = st.phi_to_spinor(phi)
        back = st.phi_to_spinor(st.PhiField(grid, 2.0 * phi.values))
        assert st.normalize(field) is field and st.normalize(unit) is unit
        assert st.normalize(scaled) is not scaled and st.normalize(back) is not back


@pytest.mark.parametrize("cls", LatticeField.__subclasses__(), ids=lambda c: c.__name__)
def test_every_field_kind_is_a_file_kind(cls, tmp_path):
    assert cls in CONTRACT_CLASSES
    assert fldio._FIELD_CLASSES[cls.FLD_KIND] is cls
    grid = st.box_grid((4, 4, 5, 4), -1.0, 1.0)
    arrays = _contract_arrays(cls, grid)
    field = cls(grid, arrays["values"], **({"jet": arrays["jet"]} if "jet" in arrays else {}))
    path = str(tmp_path / "field.fld")
    fldio.write_field(field, path)
    back = fldio.read_field(path)
    assert type(back) is cls and back.grid == grid
    # a file's samples and jet are read from the file block by block, not kept
    assert back.values is None and back.jet is None
    assert (back.block_jet is None) == (field.jet is None)
    np.testing.assert_array_equal(oracle.stored(back).values, field.values)
    np.testing.assert_array_equal(oracle.stored(back).jet, field.jet)


def test_face_restrict_of_a_sampler_backed_phi_is_the_jet_face():
    grid = st.box_grid((12, 12, 12, 12), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    assert phi.jet is None
    stored = oracle.stored(phi)
    for axis in range(4):
        for side in (0, 1):
            face = st.face_restrict(phi, axis, side)
            expected = st.face_restrict(stored, axis, side)
            assert face.sampler is None and face.grid == expected.grid
            for served in (face, expected):
                assert served.values is None and served.jet is None
                assert served.block_jet is not None
            np.testing.assert_array_equal(oracle.stored(face).values,
                                          oracle.stored(expected).values)
            np.testing.assert_array_equal(oracle.stored(face).jet,
                                          oracle.stored(expected).jet)


@pytest.mark.parametrize("budget", [1, 3000, None])
def test_sampled_jet_of_a_slab_samples_those_planes(budget, monkeypatch):
    # exact_jet(slab) asks the block_jet hook once, for exactly that slab,
    # and equals the whole jet of one hook call bit for bit
    from su2topo import lattice
    if budget is not None:
        monkeypatch.setattr(lattice, "SLAB_SITES", budget)
    grid = st.box_grid((7, 6, 5, 6), -2.0, 2.0)
    source = st.quaternion_power_field(3, grid)
    hook, asked = source.block_jet, []
    whole = np.ascontiguousarray(hook(slice(None)))

    def counted(block):
        asked.append(block)
        return hook(block)

    samples = oracle.stored(source).values
    phi = st.PhiField(grid, samples, block_jet=counted)
    for lo in range(grid.shape[0]):
        for hi in range(lo + 1, grid.shape[0] + 1):
            asked.clear()
            assert np.array_equal(_bits(phi.exact_jet(slice(lo, hi))), _bits(whole[lo:hi]))
            assert asked == [slice(lo, hi)]
            # a slab's derivatives are its jet, asked for that slab only
            assert np.array_equal(_bits(phi.slab_samples(slice(lo, hi))[1]),
                                  _bits(whole[lo:hi]))
            assert asked == [slice(lo, hi)] * 2
    # the point sampler is not a jet source
    assert st.PhiField(grid, samples, sampler=source.sampler).exact_jet(slice(0, 1)) is None
