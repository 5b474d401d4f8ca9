"""FLD2 binary field files.

Layout (all little-endian):

    bytes 0-3   magic "FLD2"
    byte  4     kind: 1 spinor, 2 phi, 3 gauge (4, a retired SU(2)
                matrix kind, and 5, a retired scalar kind, read as unknown)
    byte  5     rank r (3 or 4)
    byte  6     flags: bit 0 jets present, bit 1 cell-centered,
                bit 2 orientation -1
    byte  7     reserved, must be 0
    r times     u32 n_i, f64 origin_i, f64 spacing_i, u8 boundary
                (boundary: 0 open, 1 periodic)
    payload     f64 samples, site-major (last grid axis fastest),
                component-fastest within a site, real/imaginary
                interleaved for complex kinds
    jets        same layout when flagged, axis-major within a site
                (first derivatives only)
    trailer     8 bytes: CRC-32 (zlib) of all preceding bytes, as a u64

CRC-32 detects every single-bit error and every error burst of up to 32
bits.  Writes stream the header, the values' own buffer and the jet one
axis-0 slab at a time into a temp file that is then renamed, so a failed
write never leaves a partial file behind, no serialized copy of the
payload is built and a served jet is never whole.  Reads validate magic,
header sanity and byte count as distinct error types, then checksum every
byte before the field is built.  The values and a jet, of any kind, are
checksummed, and checked finite, one axis-0 plane at a time through one
reused buffer and stay in the file: the field's ``block_values`` and
``block_jet`` read the planes a block covers when something asks for
them (the zero search reads the screen's slabs, the box faces a face
slab at a time, the bounding block of each Newton step's points and a
4^4 window per zero; the charge sweep and
``decompose`` read one slab and its stencil planes at a time), after
checking that the file is still the one that was verified.
The retired FLD1 format (FNV-1a trailer, no orientation) is rejected as
bad magic.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import zlib

import numpy as np

from .errors import (BadMagicError, ChecksumError, CountMismatchError, FieldError,
                     FieldFormatError, FileChangedError, HeaderError, LatticeError)
from .fields import GaugeField, PhiField, SpinorField
from .lattice import Grid, slabs

MAGIC = b"FLD2"
RETIRED_MAGIC = b"FLD1"

# Kind codes, component shapes and dtypes are declared by the field classes.
_FIELD_CLASSES = {cls.FLD_KIND: cls for cls in (SpinorField, PhiField, GaugeField)}

FLAG_JETS = 1
FLAG_CELL_CENTERED = 2
FLAG_REVERSED = 4


def _file_dtype(cls) -> np.dtype:
    """Little-endian sample dtype of a field class: f64 or f64 pairs."""
    return np.dtype(cls.DTYPE).newbyteorder("<")


def write_field(field, path: str) -> None:
    """Serialize a field to an FLD2 file atomically.

    The jets written are the field's exact jet: the stored one, or the
    one its ``block_jet`` serves (a generator's or a file's).  The values
    and then the jet are read and written one axis-0 slab at a time
    (:func:`slabs`), the CRC chained over the parts, so values or a jet
    that a field computes per block never exist whole.
    """
    kind = getattr(field, "FLD_KIND", None)
    if kind is None:
        raise FieldFormatError(f"cannot serialize {type(field).__name__}")
    grid = field.grid
    jets = (field.exact_jet(slab) for slab in slabs(grid))
    first = next(jets)
    flags = ((FLAG_JETS if first is not None else 0)
             | (FLAG_CELL_CENTERED if grid.cell_centered else 0)
             | (FLAG_REVERSED if grid.orientation == -1 else 0))

    header = [MAGIC, struct.pack("<BBBB", kind, grid.rank, flags, 0)]
    for i in range(grid.rank):
        header.append(struct.pack("<IddB", grid.shape[i], grid.origin[i],
                                  grid.spacing[i], 1 if grid.periodic[i] else 0))
    # Contiguous arrays already in the file layout are written without a
    # copy; the slabs are taken one at a time as the loop below writes.
    dtype = _file_dtype(type(field))
    arrays = itertools.chain((field.values_at(slab) for slab in slabs(grid)),
                             [] if first is None else itertools.chain([first], jets))
    parts = itertools.chain([b"".join(header)],
                            (memoryview(np.ascontiguousarray(array, dtype=dtype))
                             for array in arrays))

    import tempfile                     # only a write needs it
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fld-")
    try:
        with os.fdopen(fd, "wb") as handle:
            crc = 0
            for part in parts:
                handle.write(part)
                crc = zlib.crc32(part, crc)
            handle.write(struct.pack("<Q", crc))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_field(path: str):
    """Deserialize an FLD2 file; the inverse of :func:`write_field`.

    The header is read and checked first; the file size (``os.fstat``) is
    checked against the layout before any payload buffer is allocated, so
    a corrupt header cannot ask for a huge one.  The CRC is checked over
    every byte before the field is returned.  The values and a jet are
    checksummed and checked finite one axis-0 plane at a time through one
    buffer of a plane (a non-finite entry raises
    :class:`~su2topo.errors.FieldError`, naming the values or the jet,
    once the checksum holds), and no payload is kept: the field of any
    kind is built with ``values=None`` and reads its values, and its jet,
    from the file block by block (:class:`_FileBlocks`).  Axes that
    :class:`~su2topo.lattice.Grid` rejects (coordinates that are not
    finite and strictly increasing) raise :class:`HeaderError` once the
    size is checked, before any payload is read.
    """
    with open(path, "rb") as handle:
        stat = os.fstat(handle.fileno())
        size = stat.st_size
        head = handle.read(8)
        if head[:4] == RETIRED_MAGIC:
            raise BadMagicError(f"{path}: retired FLD1 format, no longer read; "
                                "regenerate the file to get FLD2")
        if len(head) < 4 or head[:4] != MAGIC:
            raise BadMagicError(f"{path}: not an FLD2 file")
        if len(head) < 8:
            raise CountMismatchError(f"{path}: truncated header")
        kind, rank, flags, reserved = struct.unpack("<BBBB", head[4:8])
        cls = _FIELD_CLASSES.get(kind)
        if cls is None:
            raise HeaderError(f"{path}: unknown field kind {kind}")
        if rank not in (3, 4):
            raise HeaderError(f"{path}: unsupported rank {rank}")
        if flags & ~(FLAG_JETS | FLAG_CELL_CENTERED | FLAG_REVERSED):
            raise HeaderError(f"{path}: unknown flag bits {flags:#04x}")
        if reserved != 0:
            raise HeaderError(f"{path}: reserved byte is {reserved}, expected 0")
        has_jet = bool(flags & FLAG_JETS)
        cell_centered = bool(flags & FLAG_CELL_CENTERED)
        orientation = -1 if flags & FLAG_REVERSED else 1

        axes = handle.read(rank * 21)
        if len(axes) < rank * 21:
            raise CountMismatchError(f"{path}: truncated axis records")
        shape, origin, spacing, periodic = [], [], [], []
        for off in range(0, rank * 21, 21):
            n, o, h, boundary = struct.unpack("<IddB", axes[off:off + 21])
            if n < 4:
                raise HeaderError(f"{path}: axis with {n} < 4 points")
            if not (np.isfinite(o) and np.isfinite(h) and h > 0):
                raise HeaderError(f"{path}: bad axis origin/spacing")
            if boundary not in (0, 1):
                raise HeaderError(f"{path}: bad boundary code {boundary}")
            shape.append(n)
            origin.append(o)
            spacing.append(h)
            periodic.append(boundary == 1)

        comps = cls.component_shape(rank)
        dtype = _file_dtype(cls)
        nvals = int(np.prod(shape)) * int(np.prod(comps)) * dtype.itemsize // 8
        expected = 8 + len(axes) + 8 * nvals * (1 + (rank if has_jet else 0)) + 8
        if size != expected:
            raise CountMismatchError(
                f"{path}: file has {size} bytes, layout requires {expected}")
        try:
            grid = Grid(shape=tuple(shape), origin=tuple(origin), spacing=tuple(spacing),
                        periodic=tuple(periodic), cell_centered=cell_centered,
                        orientation=orientation)
        except LatticeError as exc:
            raise HeaderError(f"{path}: {exc}") from exc

        # the values and a jet are checksummed, and checked finite, plane
        # by plane through one buffer, and left in the file
        plane = nvals // shape[0]
        buffer = np.empty(plane * (rank if has_jet else 1), dtype="<f8")
        parts = [("values", buffer[:plane])] * shape[0]
        if has_jet:
            parts += [("jet", buffer)] * shape[0]
        actual = zlib.crc32(axes, zlib.crc32(head))
        non_finite = set()
        for name, part in parts:
            view = memoryview(part).cast("B")
            if handle.readinto(view) != len(view):
                raise CountMismatchError(f"{path}: file changed size while being read")
            actual = zlib.crc32(view, actual)
            if not np.all(np.isfinite(part)):
                non_finite.add(name)
        trailer = handle.read()
        if len(trailer) != 8:
            raise CountMismatchError(f"{path}: file changed size while being read")

    stored, = struct.unpack("<Q", trailer)
    if stored != actual:
        raise ChecksumError(
            f"{path}: checksum {stored:#018x} != computed {actual:#018x}")
    for name, verb in (("values", "contain"), ("jet", "contains")):
        if name in non_finite:
            raise FieldError(f"{path}: {cls.LABEL} {name} {verb} non-finite samples")

    offset = 8 + len(axes)
    blocks = {"block_values": _FileBlocks(path, stat, offset, grid.shape, comps, dtype)}
    if has_jet:
        blocks["block_jet"] = _FileBlocks(path, stat, offset + 8 * nvals, grid.shape,
                                          (rank,) + comps, dtype)
    return cls(grid, None, **blocks)


def _identity(stat: os.stat_result) -> tuple:
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class _FileBlocks:
    """The block values or block jet of a file whose checksum
    :func:`read_field` verified: ``site_shape`` entries per site from
    ``offset`` on.

    A block (an axis-0 slice, or a tuple of per-axis slices) is read
    ascending, then reversed along the axes whose step is negative, as
    indexing a stored array gives it.  It is read as runs of whole sites: a
    run fixes the block's indices on the axes before some axis and spans
    that axis from the block's first index to its last, with every later
    axis whole.  The axis is chosen
    for the fewest bytes read, a read counting as ``READ_BYTES``: axis-0
    slabs are one read, a face of axis 1 one row per plane, a face of the
    last axis whole planes.  Runs go through one small buffer per call, or
    straight into the result where a run is exactly its part of the block;
    no file mapping is used, since mapped pages count in the resident set.
    Each call first checks (``os.fstat``) that the file has the device,
    inode, size and modification time it had when it was verified, and
    raises :class:`FileChangedError` if not: a changed file is an input
    error, never other bytes.
    """

    #: Bytes that one read costs as much as, in choosing how to read a block.
    READ_BYTES = 1 << 15

    def __init__(self, path: str, stat: os.stat_result, offset: int,
                 shape: tuple, site_shape: tuple, dtype: np.dtype):
        self.path = os.path.abspath(path)
        self.identity = _identity(stat)
        self.offset = offset
        self.shape = shape
        self.site_shape = site_shape
        self.dtype = dtype

    def __call__(self, block: slice | tuple) -> np.ndarray:
        shape = self.shape
        parts = ((block if isinstance(block, tuple) else (block,))
                 + (slice(None),) * len(shape))[:len(shape)]
        ranges = [range(*part.indices(n)) for part, n in zip(parts, shape)]
        if any(r.step < 0 for r in ranges):
            ascending = [r if r.step > 0 else r[::-1] for r in ranges]
            return self(tuple(slice(r.start, r.stop, r.step) for r in ascending))[
                tuple(slice(None, None, 1 if r.step > 0 else -1) for r in ranges)]
        out = np.empty(tuple(map(len, ranges)) + self.site_shape,
                       dtype=self.dtype.newbyteorder("="))
        if out.size == 0:
            return out
        site = math.prod(self.site_shape) * self.dtype.itemsize
        sites_after = [math.prod(shape[axis + 1:]) for axis in range(len(shape))]
        spans = [r[-1] + 1 - r.start for r in ranges]

        def run_shape(axis):
            return (spans[axis],) + shape[axis + 1:] + self.site_shape

        def cost(axis):         # in bytes, of reading runs along ``axis``
            reads = math.prod(out.shape[:axis])
            return reads * (self.READ_BYTES + spans[axis] * sites_after[axis] * site)

        # runs along axis 0 are read only straight into the result, so a
        # buffer never holds more than one plane
        axis = min((axis for axis in range(len(shape))
                    if axis or run_shape(0) == out.shape), key=cost)
        run = ranges[axis]
        buffer = (None if run_shape(axis) == out.shape[axis:]
                  else np.empty(run_shape(axis), self.dtype))
        inner = (slice(None, None, run.step),) + parts[axis + 1:]
        with self._open() as handle:
            for k in np.ndindex(*out.shape[:axis]):
                first = sum(r[i] * n for r, i, n in zip(ranges, k, sites_after))
                handle.seek(self.offset + (first + run.start * sites_after[axis]) * site)
                target = out[k] if buffer is None else buffer
                if handle.readinto(memoryview(target).cast("B")) != target.nbytes:
                    raise FileChangedError(f"{self.path}: file shrank after it was verified")
                if buffer is not None:
                    out[k] = buffer[inner]
        return out

    def _open(self):
        try:
            handle = open(self.path, "rb")
        except OSError as exc:
            raise FileChangedError(
                f"{self.path}: cannot be opened again after it was verified: {exc}") from exc
        if _identity(os.fstat(handle.fileno())) != self.identity:
            handle.close()
            raise FileChangedError(
                f"{self.path}: file changed after it was read and verified; read it again")
        return handle
