"""FLD2 binary field files.

Layout (all little-endian):

    bytes 0-3   magic "FLD2"
    byte  4     kind: 1 spinor, 2 phi, 3 gauge, 4 su2, 5 scalar
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
                (first derivatives only: an su2 field's jet2 is not
                stored and reads back as None)
    trailer     8 bytes: CRC-32 (zlib) of all preceding bytes, as a u64

CRC-32 detects every single-bit error and every error burst of up to 32
bits.  Writes stream the header, the values' own buffer and the jet one
axis-0 slab at a time into a temp file that is then renamed, so a failed
write never leaves a partial file behind, no serialized copy of the
payload is built and a sampled jet is never whole.  Reads validate magic,
header sanity and byte count as distinct error types before the payload
is read into one array, then the checksum before it is used; the field
adopts views of that array without a copy.  The retired FLD1 format
(FNV-1a trailer, no orientation) is rejected as bad magic.
"""

from __future__ import annotations

import itertools
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import (BadMagicError, ChecksumError, CountMismatchError,
                     FieldFormatError, HeaderError)
from .fields import GaugeField, PhiField, SpinorField, SU2Field
from .lattice import Grid, ScalarField, slabs

MAGIC = b"FLD2"
RETIRED_MAGIC = b"FLD1"

# Kind codes, component shapes and dtypes are declared by the field classes.
_FIELD_CLASSES = {cls.FLD_KIND: cls
          for cls in (SpinorField, PhiField, GaugeField, SU2Field, ScalarField)}

FLAG_JETS = 1
FLAG_CELL_CENTERED = 2
FLAG_REVERSED = 4


def _file_dtype(cls) -> np.dtype:
    """Little-endian sample dtype of a field class: f64 or f64 pairs."""
    return np.dtype(cls.DTYPE).newbyteorder("<")


def write_field(field, path: str) -> None:
    """Serialize a field to an FLD2 file atomically.

    The jets written are the field's exact jet: the stored one, or for a
    generator-built phi field the one its sampler computes.  The jet is
    read and written one axis-0 slab at a time (:func:`slabs`), the CRC
    chained over the parts, so a sampled jet never exists whole.
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
    # copy; the jet slabs are taken one at a time as the loop below writes.
    dtype = _file_dtype(type(field))
    arrays = ([field.values] if first is None
              else itertools.chain([field.values, first], jets))
    parts = itertools.chain([b"".join(header)],
                            (memoryview(np.ascontiguousarray(array, dtype=dtype))
                             for array in arrays))

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
    a corrupt header cannot ask for a huge one.  The payload is then read
    straight into one aligned ``<f8`` array and checksummed there, and the
    field adopts read-only views of it without a copy.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
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
        if has_jet and "jet" not in cls.__dataclass_fields__:
            raise HeaderError(f"{path}: {cls.LABEL}s carry no jets")

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

        sites = int(np.prod(shape))
        comps = cls.component_shape(rank)
        dtype = _file_dtype(cls)
        per_site = int(np.prod(comps)) * dtype.itemsize // 8
        payload_floats = sites * per_site * (1 + (rank if has_jet else 0))
        expected = 8 + len(axes) + 8 * payload_floats + 8
        if size != expected:
            raise CountMismatchError(
                f"{path}: file has {size} bytes, layout requires {expected}")

        flat = np.empty(payload_floats, dtype="<f8")
        payload = memoryview(flat).cast("B")
        got = handle.readinto(payload)
        trailer = handle.read()
        if got != len(payload) or len(trailer) != 8:
            raise CountMismatchError(f"{path}: file changed size while being read")

    stored, = struct.unpack("<Q", trailer)
    actual = zlib.crc32(payload, zlib.crc32(axes, zlib.crc32(head)))
    if stored != actual:
        raise ChecksumError(
            f"{path}: checksum {stored:#018x} != computed {actual:#018x}")

    grid = Grid(shape=tuple(shape), origin=tuple(origin), spacing=tuple(spacing),
                periodic=tuple(periodic), cell_centered=cell_centered,
                orientation=orientation)
    # Read-only views of the one payload array: the field adopts them.
    flat.setflags(write=False)
    nvals = sites * per_site
    values = flat[:nvals].view(dtype).reshape(grid.shape + comps)
    jet = (flat[nvals:].view(dtype).reshape(grid.shape + (rank,) + comps)
           if has_jet else None)
    return cls.from_samples(grid, values, jet)
