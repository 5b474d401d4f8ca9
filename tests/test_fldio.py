import dataclasses
import io
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import site_major as oracle
import su2topo as st
from conftest import peak_traced_bytes
from su2topo import (BadMagicError, ChecksumError, CountMismatchError,
                     FieldFormatError, FileChangedError, HeaderError)
from su2topo import fldio
from su2topo.fldio import read_field, write_field


@pytest.fixture
def grids():
    g3 = st.Grid((5, 6, 7), (0.0, -1.0, 0.5), (0.1, 0.2, 0.3),
                 (False, True, False))
    g4 = st.Grid((4, 5, 4, 6), (-1.0, 0.0, 0.0, 2.0), (0.1, 0.2, 0.3, 0.1),
                 (False, False, True, False), cell_centered=True)
    return g3, g4


def all_fields(g3, g4):
    rng = np.random.default_rng(0)
    yield st.SpinorField(
        g3, rng.normal(size=(5, 6, 7, 2)) + 1j * rng.normal(size=(5, 6, 7, 2)),
        jet=rng.normal(size=(5, 6, 7, 3, 2)) + 1j * rng.normal(size=(5, 6, 7, 3, 2)))
    yield st.PhiField(g4, rng.normal(size=g4.shape + (4,)),
                      jet=rng.normal(size=g4.shape + (4, 4)))
    yield st.GaugeField(g4, rng.normal(size=g4.shape + (4, 3)))
    yield st.PhiField(g3, rng.normal(size=g3.shape + (4,)))
    reversed_g4 = dataclasses.replace(g4, orientation=-1)
    yield st.PhiField(reversed_g4, rng.normal(size=g4.shape + (4,)),
                      jet=rng.normal(size=g4.shape + (4, 4)))


def test_round_trip_all_kinds(tmp_path, grids):
    g3, g4 = grids
    for field in all_fields(g3, g4):
        path = str(tmp_path / f"{type(field).__name__}.fld")
        write_field(field, path)
        back = read_field(path)
        assert type(back) is type(field)
        assert back.grid == field.grid
        _assert_served_from_the_file(back)
        whole = oracle.stored(back)
        assert np.array_equal(whole.values, field.values)
        assert not back.values_at(slice(0, 1)).flags.writeable
        if field.jet is None:
            assert whole.jet is None
        else:
            assert np.array_equal(whole.jet, field.jet)


def _assert_served_from_the_file(back):
    # a file's values and jet stay in the file, whatever the kind: neither
    # is kept
    assert back.values is None
    assert isinstance(back.block_values, fldio._FileBlocks)
    assert back.jet is None
    assert back.block_jet is None or isinstance(back.block_jet, fldio._FileBlocks)


def test_written_twice_is_byte_identical(tmp_path, grids):
    g3, _ = grids
    field = st.PhiField(g3, np.linspace(0, 1, 4 * int(np.prod(g3.shape)))
                        .reshape(g3.shape + (4,)))
    p1, p2 = str(tmp_path / "a.fld"), str(tmp_path / "b.fld")
    write_field(field, p1)
    write_field(field, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_size_formula_17x4_spinor(tmp_path):
    grid = st.Grid((17,) * 4, (0.0,) * 4, (0.1,) * 4, (False,) * 4)
    psi = st.SpinorField(grid, np.ones(grid.shape + (2,), dtype=complex))
    path = str(tmp_path / "big.fld")
    write_field(psi, path)
    header = 8 + 4 * 21
    assert os.path.getsize(path) == header + 2 * 2 * 8 * 17**4 + 8


def test_bad_magic(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.zeros(g3.shape + (4,))), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(b"XLD1" + blob[4:])
    with pytest.raises(BadMagicError):
        read_field(path)


def test_retired_fld1_magic_is_bad_magic(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.zeros(g3.shape + (4,))), path)
    blob = open(path, "rb").read()
    assert blob[:4] == b"FLD2"
    open(path, "wb").write(b"FLD1" + blob[4:])
    with pytest.raises(BadMagicError, match="retired FLD1"):
        read_field(path)


def test_unknown_flag_bit_is_header_error(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.zeros(g3.shape + (4,))), path)
    blob = bytearray(open(path, "rb").read())
    blob[6] |= 8
    open(path, "wb").write(bytes(blob))
    with pytest.raises(HeaderError):
        read_field(path)


def test_truncated_file_is_count_mismatch(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.zeros(g3.shape + (4,))), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-17])
    with pytest.raises(CountMismatchError):
        read_field(path)


@pytest.mark.parametrize("change", [-1, 1])
def test_file_one_byte_off_is_count_mismatch(tmp_path, grids, change):
    # the size is checked against the header's layout before any payload
    # buffer is allocated or read
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.zeros(g3.shape + (4,))), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-1] if change < 0 else blob + b"\0")
    with pytest.raises(CountMismatchError, match=f"file has {len(blob) + change} bytes"):
        read_field(path)


@pytest.mark.parametrize("kind", ["spinor", "phi"])
def test_read_values_and_jet_stay_in_the_file(tmp_path, kind):
    # the values and the jet are checksummed through one plane buffer and
    # left in the file: the field stores neither, each is read block by
    # block from its offset, and the read traces less than half the values
    # (one jet plane is a quarter of them here)
    grid = st.Grid((16, 5, 4, 6), (0.0,) * 4, (0.1,) * 4, (False, True, False, False))
    field = _random_field(kind, grid, True, np.random.default_rng(8))
    path = str(tmp_path / "f.fld")
    write_field(field, path)
    peak, back = peak_traced_bytes(lambda: read_field(path))
    _assert_served_from_the_file(back)
    header = 8 + 21 * grid.rank
    assert back.block_values.offset == header
    assert back.block_jet.offset == header + field.values.nbytes
    assert peak < field.values.nbytes // 2
    whole = oracle.stored(back)
    assert np.array_equal(whole.values, field.values)
    assert np.array_equal(whole.jet, field.jet)


def test_payload_corruption_is_checksum_error(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.arange(4 * int(np.prod(g3.shape)), dtype=float)
                            .reshape(g3.shape + (4,))), path)
    blob = bytearray(open(path, "rb").read())
    blob[200] ^= 0x10
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ChecksumError):
        read_field(path)


def test_every_single_byte_corruption_detected(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.linspace(-1, 1, 4 * int(np.prod(g3.shape)))
                            .reshape(g3.shape + (4,))), path)
    blob = open(path, "rb").read()
    rng = np.random.default_rng(99)
    bad_path = str(tmp_path / "bad.fld")
    for _ in range(100):
        pos = int(rng.integers(0, len(blob)))
        bit = 1 << int(rng.integers(0, 8))
        corrupted = blob[:pos] + bytes([blob[pos] ^ bit]) + blob[pos + 1:]
        open(bad_path, "wb").write(corrupted)
        with pytest.raises(FieldFormatError):
            read_field(bad_path)


def test_reserved_byte_enforced(tmp_path, grids):
    g3, _ = grids
    path = str(tmp_path / "f.fld")
    write_field(st.PhiField(g3, np.zeros(g3.shape + (4,))), path)
    blob = bytearray(open(path, "rb").read())
    blob[7] = 1
    open(path, "wb").write(bytes(blob))
    with pytest.raises(HeaderError):
        read_field(path)


def test_write_failure_leaves_no_partial_file(tmp_path, grids):
    g3, _ = grids
    field = st.PhiField(g3, np.zeros(g3.shape + (4,)))
    with pytest.raises(OSError):
        write_field(field, str(tmp_path / "missing" / "f.fld"))
    assert list(tmp_path.iterdir()) == []


def test_normalized_flag_recovered_on_read(tmp_path):
    psi = st.identity_map_s3(8)
    path = str(tmp_path / "id.fld")
    write_field(psi, path)
    back = read_field(path)
    assert st.normalize(back) is back


def _random_field(kind, grid, jets, rng):
    shape, rank = grid.shape, grid.rank

    def cnormal(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    if kind == "spinor":
        return st.SpinorField(grid, cnormal(shape + (2,)),
                              jet=cnormal(shape + (rank, 2)) if jets else None)
    if kind == "phi":
        return st.PhiField(grid, rng.normal(size=shape + (4,)),
                           jet=rng.normal(size=shape + (rank, 4)) if jets else None)
    return st.GaugeField(
        grid, rng.normal(size=shape + (rank, 3)),
        jet=rng.normal(size=shape + (rank, rank, 3)) if jets else None)


@hst.composite
def _fields(draw):
    rank = draw(hst.sampled_from((3, 4)))
    coord = hst.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    grid = st.Grid(
        tuple(draw(hst.integers(4, 6)) for _ in range(rank)),
        tuple(draw(coord) for _ in range(rank)),
        tuple(draw(hst.floats(1e-3, 1.0)) for _ in range(rank)),
        tuple(draw(hst.booleans()) for _ in range(rank)),
        cell_centered=draw(hst.booleans()),
        orientation=draw(hst.sampled_from((1, -1))))
    kind = draw(hst.sampled_from(("spinor", "phi", "gauge")))
    jets = draw(hst.booleans())
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    return _random_field(kind, grid, jets, rng)


@settings(max_examples=50, deadline=None)
@given(field=_fields(), flip=hst.integers(0, 2**40), bit=hst.integers(0, 7))
def test_property_round_trip_and_single_bit_flip(tmp_path_factory, field, flip, bit):
    path = str(tmp_path_factory.mktemp("fld") / "f.fld")
    write_field(field, path)
    back = read_field(path)
    assert type(back) is type(field)
    assert back.grid == field.grid
    _assert_served_from_the_file(back)
    whole = oracle.stored(back)
    assert np.array_equal(whole.values, field.values)
    assert (whole.jet is None) if field.jet is None else np.array_equal(whole.jet, field.jet)

    blob = bytearray(open(path, "rb").read())
    blob[flip % len(blob)] ^= 1 << bit
    open(path, "wb").write(bytes(blob))
    with pytest.raises(FieldFormatError):
        read_field(path)


def test_sampler_backed_field_writes_its_exact_jet(tmp_path):
    grid = st.box_grid((12, 12, 12, 12), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    assert phi.jet is None
    sampled, stored = tmp_path / "sampled.fld", tmp_path / "stored.fld"
    write_field(phi, str(sampled))
    whole = oracle.stored(phi)
    write_field(st.PhiField(grid, whole.values, jet=whole.jet), str(stored))
    assert sampled.read_bytes() == stored.read_bytes()
    back = read_field(str(sampled))
    assert back.jet is None
    np.testing.assert_array_equal(oracle.stored(back).jet, whole.jet)


def test_box_jet_is_written_slab_by_slab(tmp_path):
    # the jet a box field's kernel serves (4x its values) never exists whole:
    # the traced peak of the write stays below it (measured 2.30x the
    # values at 20^4, 4.55x when the whole jet was built first)
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    path = str(tmp_path / "phi.fld")
    peak, _ = peak_traced_bytes(lambda: write_field(phi, path))
    assert peak < 3.0 * 20**4 * 4 * 8
    back = read_field(path)
    assert back.jet is None
    assert np.array_equal(oracle.stored(back).jet, oracle.stored(phi).jet)


def test_served_values_are_written_slab_by_slab(tmp_path):
    # a field that computes its values per block writes them one slab at a
    # time: the file is that of the stored values, and the write traces
    # less than the values themselves (measured 0.60 of them), which a
    # whole read would hold
    grid = st.box_grid((20, 20, 20, 20), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    box = st.quaternion_polynomial_field(roots, grid)
    served = st.PhiField(grid, None, block_values=box.values_at)
    path, stored_path = str(tmp_path / "served.fld"), str(tmp_path / "stored.fld")
    peak, _ = peak_traced_bytes(lambda: write_field(served, path))
    write_field(st.PhiField(grid, oracle.stored(box).values), stored_path)
    assert open(path, "rb").read() == open(stored_path, "rb").read()
    assert peak < 20**4 * 4 * 8


def _patch(path, offset, data, fix_crc=True):
    """Overwrite bytes of an FLD file at ``offset``, then rewrite its CRC."""
    blob = bytearray(open(path, "rb").read())
    blob[offset:offset + len(data)] = data
    if fix_crc:
        blob[-8:] = struct.pack("<Q", zlib.crc32(bytes(blob[:-8])))
    open(path, "wb").write(bytes(blob))


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_jet_entry_is_an_error_once_the_checksum_holds(tmp_path, entry):
    # the reader checks each chunk of the jet as it checksums it; a
    # corrupted file is still a checksum error first
    grid = st.box_grid((6, 5, 4, 5), -1.0, 1.0)
    phi = st.linear_phi_field(np.eye(4), [0.1, 0.0, 0.0, 0.0], grid)
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    jet_at = 8 + 4 * 21 + 6 * 5 * 4 * 5 * 4 * 8
    site = jet_at + 8 * (3 * 5 * 4 * 5 * 16 + 77)      # in plane 3
    _patch(path, site, struct.pack("<d", entry), fix_crc=False)
    with pytest.raises(ChecksumError):
        read_field(path)
    _patch(path, site, struct.pack("<d", entry))
    with pytest.raises(st.FieldError, match="phi jet contains non-finite samples"):
        read_field(path)


def test_a_nan_next_to_a_buffer_boundary_names_the_jet(tmp_path, capsys, monkeypatch):
    # the checksum read takes the values and then the jet in chunks of
    # min(plane, SLAB_SITES) sites: 1000 sites, a budget that divides no
    # plane here, so 4000 floats of values and 16000 of the jet.  A
    # CRC-valid file with a NaN in the first float of the jet (right after
    # the values' last, shorter chunk), or in the last float before or
    # the first after a chunk boundary inside the jet, exits 3 naming the
    # jet
    from su2topo import lattice
    from su2topo.cli import main
    monkeypatch.setattr(lattice, "SLAB_SITES", 1000)
    grid = st.box_grid((12,) * 4, -2.0, 2.0)
    phi = st.quaternion_polynomial_field(
        [[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]], grid)
    jet_at = 8 + 4 * 21 + 8 * 4 * 12**4
    chunk = 8 * 16 * 1000
    path = str(tmp_path / "phi.fld")
    for at in (jet_at, jet_at + 5 * chunk - 8, jet_at + 5 * chunk):
        write_field(phi, path)
        _patch(path, at, struct.pack("<d", np.nan))
        with pytest.raises(st.FieldError, match="phi jet contains non-finite samples"):
            read_field(path)
        assert main(["zeros", path, "--no-color"]) == 3
        err = capsys.readouterr().err
        assert err == f"su2topo: error: {path}: phi jet contains non-finite samples\n"


@pytest.mark.parametrize("field_at, value", [
    (12, 1e308), (12, 1e-320), (12, 5e-324), (4, 1e308), (4, -1e308)],
    ids=["spacing 1e308", "subnormal spacing", "smallest spacing",
         "origin 1e308", "origin -1e308"])
@pytest.mark.parametrize("axis", [0, 2])
def test_degenerate_axes_are_header_errors(tmp_path, field_at, value, axis):
    # coordinates that overflow, collapse onto one float, or step by a
    # subnormal spacing are rejected by the grid, as a header error
    grid = st.box_grid((6, 5, 4, 5), -1.0, 1.0)
    path = str(tmp_path / "phi.fld")
    write_field(st.linear_phi_field(np.eye(4), [0.1, 0.0, 0.0, 0.0], grid), path)
    _patch(path, 8 + 21 * axis + field_at, struct.pack("<d", value))
    with pytest.raises(HeaderError, match=f"axis {axis}|normal floats"):
        read_field(path)


def _stored_phi(shape=(6, 5, 7, 4), periodic=(False, True, False, True)):
    rng = np.random.default_rng(3)
    grid = st.Grid(shape, (0.0,) * 4, (0.1, 0.2, 0.3, 0.4), periodic)
    return st.PhiField(grid, rng.normal(size=shape + (4,)),
                       jet=rng.normal(size=shape + (4, 4)))


def _slice(rng, n):
    start, stop = sorted(int(k) for k in rng.integers(0, n + 1, size=2))
    step = int(rng.integers(1, 3))
    if rng.integers(2):
        return slice(start, stop, step)
    return slice(stop, start - 1 if start else None, -step)


@pytest.mark.parametrize("read_bytes", [0, None, 1 << 40])
def test_file_jet_blocks_equal_the_stored_jet(tmp_path, monkeypatch, read_bytes):
    # every block a phi file's jet serves equals that block of the jet it
    # was written from, bit for bit: axis-0 slabs, blocks of per-axis
    # slices with positive and negative steps, empty blocks and the whole
    # jet, read as the shortest runs (a read costs nothing), the default
    # plan, or the fewest reads
    if read_bytes is not None:
        monkeypatch.setattr(fldio._FileBlocks, "READ_BYTES", read_bytes)
    phi = _stored_phi()
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    back = read_field(path)
    assert back.jet is None
    rng = np.random.default_rng(7)
    blocks = [slice(None), slice(2, 5), slice(3, 3), slice(None, None, -1),
              (slice(None), slice(4, 1, -1)), (slice(1, 4), slice(2, 2, -1))]
    blocks += [tuple(_slice(rng, n) for n in phi.grid.shape[:rank])
               for rank in (1, 2, 3, 4) for _ in range(50)]
    for block in blocks:
        got = back.exact_jet(block)
        assert got.dtype == phi.jet.dtype
        assert np.array_equal(got, phi.jet[block]), block
    # written again, the field read from the file gives the same bytes
    again = str(tmp_path / "again.fld")
    write_field(back, again)
    assert open(again, "rb").read() == open(path, "rb").read()


class _CountedReads(io.FileIO):
    reads = []

    def readinto(self, buffer):
        self.reads.append(len(memoryview(buffer).cast("B")))
        return super().readinto(buffer)


def test_file_jet_reads_runs_of_the_block(tmp_path, monkeypatch):
    # a block is read in runs of whole sites along the axis that reads the
    # fewest bytes, a read counting as READ_BYTES, with a buffer of at most
    # SLAB_SITES sites: under a budget of a plane, one read of a face of
    # axis 0, one row per plane for axis 1, a row's run of sites per row
    # for axis 2, and whole planes for the last axis; under the default
    # budget, the last axis's face in runs of rows of axes 2 and 3
    from su2topo import lattice
    rng = np.random.default_rng(4)
    shape = (6, 24, 24, 24)
    grid = st.Grid(shape, (0.0,) * 4, (0.1,) * 4, (False,) * 4)
    phi = st.PhiField(grid, rng.normal(size=shape + (4,)),
                      jet=rng.normal(size=shape + (4, 4)))
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    back = read_field(path)
    monkeypatch.setattr(fldio, "open", lambda p, mode: _CountedReads(p, mode),
                        raising=False)
    site = 4 * 4 * 8
    plans = {0: [24**3 * site], 1: [24**2 * site] * 6, 2: [24 * site] * (6 * 24),
             3: [24**3 * site] * 6}
    default = lattice.SLAB_SITES
    for budget, last in ((24**3, plans[3]), (default, [24**2 * site] * (6 * 24))):
        monkeypatch.setattr(lattice, "SLAB_SITES", budget)
        for axis, reads in {**plans, 3: last}.items():
            face = (slice(None),) * axis + (slice(shape[axis] - 1, shape[axis]),)
            _CountedReads.reads.clear()
            assert np.array_equal(back.exact_jet(face), phi.jet[face])
            assert _CountedReads.reads == reads, (budget, axis)
    # with reads free, only the block's own sites are read; with reads
    # dear, one run per plane from the block's first row to its last, and
    # a slab of whole planes in one read straight into the result
    block = (slice(1, 5), slice(2, 9, 3), slice(0, 24, 5), slice(3, 7))
    slab = (slice(1, 5),)
    for read_bytes, piece, reads in [(0, block, [4 * site] * (4 * 3 * 5)),
                                     (1 << 40, block, [7 * 24**2 * site] * 4),
                                     (1 << 40, slab, [4 * 24**3 * site])]:
        monkeypatch.setattr(fldio._FileBlocks, "READ_BYTES", read_bytes)
        _CountedReads.reads.clear()
        assert np.array_equal(back.exact_jet(piece), phi.jet[piece])
        assert _CountedReads.reads == reads


@pytest.mark.parametrize("change", ["truncate", "rewrite", "replace", "remove"])
def test_jet_of_a_changed_file_is_an_input_error(tmp_path, change):
    # the jet is read after the checksum was verified: a file that changed
    # since then (shorter, rewritten in place, replaced or gone) raises
    # FileChangedError instead of serving other bytes
    phi = _stored_phi()
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    back = read_field(path)
    face = (slice(None), slice(0, 1))
    assert np.array_equal(back.exact_jet(face), phi.jet[face])
    size = os.path.getsize(path)
    if change == "truncate":
        os.truncate(path, size - 8)
    elif change == "rewrite":
        with open(path, "r+b") as handle:     # same inode, same size
            handle.seek(size - 100)
            handle.write(b"\x7f")
    elif change == "replace":
        write_field(dataclasses.replace(phi, jet=2.0 * phi.jet), path)
    else:
        os.remove(path)
    with pytest.raises(FileChangedError, match="after it was"):
        back.exact_jet(face)


@pytest.mark.parametrize("kind", ["spinor", "phi", "gauge"])
def test_file_values_blocks_equal_the_written_values(tmp_path, kind):
    # every block a file's values serve equals that block of the values it
    # was written from, bit for bit: 150 random blocks of per-axis slices,
    # negative steps and empty blocks among them, for each field kind
    rng = np.random.default_rng(11)
    grid = st.Grid((6, 5, 7, 4), (0.0,) * 4, (0.1, 0.2, 0.3, 0.4),
                   (False, True, False, True))
    field = _random_field(kind, grid, True, rng)
    path = str(tmp_path / "f.fld")
    write_field(field, path)
    back = read_field(path)
    _assert_served_from_the_file(back)
    for _ in range(150):
        block = tuple(_slice(rng, n) for n in grid.shape[:int(rng.integers(1, 5))])
        got = back.values_at(block)
        assert got.dtype == field.values.dtype and not got.flags.writeable
        assert np.array_equal(got, field.values[block]), block
    assert np.array_equal(oracle.stored(back).values, field.values)


@pytest.mark.parametrize("change", ["truncate", "replace"])
def test_values_of_a_changed_file_are_an_input_error(tmp_path, change):
    # the values, like the jet, are read after the checksum was verified:
    # a file cut short or replaced since then raises FileChangedError
    phi = _stored_phi()
    path = str(tmp_path / "phi.fld")
    write_field(st.PhiField(phi.grid, phi.values), path)
    back = read_field(path)
    face = (slice(None), slice(0, 1))
    assert np.array_equal(back.values_at(face), phi.values[face])
    if change == "truncate":
        os.truncate(path, os.path.getsize(path) - 8)
    else:
        write_field(st.PhiField(phi.grid, 2.0 * phi.values), path)
    with pytest.raises(FileChangedError, match="after it was"):
        back.values_at(face)
