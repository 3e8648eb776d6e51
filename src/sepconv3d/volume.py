"""Dense 4D volumes over (channels, disparity, height, width).

A Volume4 wraps a C-contiguous numpy array of shape (c, d, h, w) in
float32 or float64.  Storage is row-major with w fastest, so the flat
offset of element (c, d, h, w) is::

    ((c * D + d) * H + h) * W + w

Volumes are immutable: the wrapped buffer is marked read-only and every
operation returns a fresh volume.

The module also provides the SV3D binary container (a small header plus
the raw little-endian payload) and a deterministic counter-based RNG so
that seeded volumes are bit-identical across platforms and runs.
``Shape4`` is defined in the numpy-free ``netcfg`` and re-exported here.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable

import numpy as np

from .netcfg import Shape4, same_pad

__all__ = [
    "Shape4",
    "Volume4",
    "VolumeError",
    "VolumeIOError",
    "load_volume",
    "save_volume",
    "splitmix64",
    "uniform_open",
]


class VolumeError(ValueError):
    """Raised on malformed shapes, dtypes or arguments."""


class VolumeIOError(IOError):
    """Raised on malformed or truncated SV3D payloads."""


_AXIS_BY_NAME = {"c": 0, "d": 1, "h": 2, "w": 3}

_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _check_dims(dims: Iterable[int]) -> Shape4:
    t = tuple(int(x) for x in dims)
    if len(t) != 4:
        raise VolumeError(f"expected 4 extents (c, d, h, w), got {len(t)}")
    if any(x < 1 for x in t):
        raise VolumeError(f"all extents must be >= 1, got {t}")
    return Shape4(*t)


# ----------------------------------------------------------------------
# deterministic RNG
#
# SplitMix64 in counter mode: stream element i is finalize(seed + (i+1)*G)
# with the usual 64-bit avalanche.  Pure integer arithmetic, so the same
# seed yields the same bytes on every platform.
# ----------------------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """Return `count` raw 64-bit words of the SplitMix64 stream for `seed`."""
    if count < 0:
        raise VolumeError(f"count must be >= 0, got {count}")
    with np.errstate(over="ignore"):
        z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + np.arange(
            1, count + 1, dtype=np.uint64
        ) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_A
        z = (z ^ (z >> np.uint64(27))) * _MIX_B
        z = z ^ (z >> np.uint64(31))
    return z


def uniform_open(seed: int, count: int) -> np.ndarray:
    """Deterministic float64 samples in [-1, 1), from the top 53 bits."""
    words = splitmix64(seed, count) >> np.uint64(11)
    return words.astype(np.float64) * (2.0 ** -53) * 2.0 - 1.0


# ----------------------------------------------------------------------
# the volume type
# ----------------------------------------------------------------------


class Volume4:
    """Immutable 4D tensor with axes (c, d, h, w)."""

    __slots__ = ("_arr",)

    def __init__(self, array, *, copy: bool = True):
        arr = np.array(array, copy=copy)
        if arr.ndim != 4:
            raise VolumeError(f"expected a 4D array, got ndim={arr.ndim}")
        if arr.dtype not in _SUPPORTED_DTYPES:
            raise VolumeError(
                f"unsupported dtype {arr.dtype}; use float32 or float64"
            )
        if any(x < 1 for x in arr.shape):
            raise VolumeError(f"all extents must be >= 1, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise VolumeError("volume contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._arr = arr

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, dims, dtype=np.float32) -> "Volume4":
        shape = _check_dims(dims)
        return cls(np.zeros(shape, dtype=_coerce_dtype(dtype)), copy=False)

    @classmethod
    def full(cls, dims, value: float, dtype=np.float32) -> "Volume4":
        shape = _check_dims(dims)
        return cls(np.full(shape, value, dtype=_coerce_dtype(dtype)), copy=False)

    @classmethod
    def random(cls, dims, seed: int, dtype=np.float32) -> "Volume4":
        """Seeded volume with values in [-1, 1); bit-identical per seed."""
        shape = _check_dims(dims)
        flat = uniform_open(seed, shape.numel)
        arr = flat.astype(_coerce_dtype(dtype)).reshape(shape)
        return cls(arr, copy=False)

    # -- basic accessors --------------------------------------------------

    @property
    def dims(self) -> Shape4:
        return Shape4(*self._arr.shape)

    @property
    def c(self) -> int:
        return self._arr.shape[0]

    @property
    def d(self) -> int:
        return self._arr.shape[1]

    @property
    def h(self) -> int:
        return self._arr.shape[2]

    @property
    def w(self) -> int:
        return self._arr.shape[3]

    @property
    def dtype(self) -> np.dtype:
        return self._arr.dtype

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the backing array."""
        return self._arr

    def to_numpy(self) -> np.ndarray:
        """Writable copy of the contents."""
        return self._arr.copy()

    def __repr__(self) -> str:
        c, d, h, w = self._arr.shape
        return f"Volume4(c={c}, d={d}, h={h}, w={w}, dtype={self._arr.dtype})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Volume4):
            return NotImplemented
        return (
            self._arr.dtype == other._arr.dtype
            and self._arr.shape == other._arr.shape
            and bool(np.array_equal(self._arr, other._arr))
        )

    def __hash__(self):  # pragma: no cover - volumes are not hashable
        raise TypeError("Volume4 is unhashable")

    # -- layout ops -------------------------------------------------------

    def permute(self, order) -> "Volume4":
        """Reorder axes and materialize contiguously.

        `order` is a permutation of (0, 1, 2, 3) or of the axis letters
        "c", "d", "h", "w".
        """
        idx = _parse_axis_order(order)
        out = np.ascontiguousarray(self._arr.transpose(idx))
        return Volume4(out, copy=False)

    def pad_same(self, k: int, axes=("d", "h", "w")) -> "Volume4":
        """Zero-pad so that a size-k window is centered on every site.

        Pads floor((k-1)/2) low and ceil((k-1)/2) high along each of the
        requested axes (a subset of d, h, w; the channel axis is never
        padded).
        """
        if k < 1:
            raise VolumeError(f"window size must be >= 1, got {k}")
        pads = [(0, 0), (0, 0), (0, 0), (0, 0)]
        for ax in axes:
            i = _AXIS_BY_NAME.get(ax)
            if i is None or i == 0:
                raise VolumeError(f"pad axis must be one of d/h/w, got {ax!r}")
            pads[i] = same_pad(k)
        out = np.pad(self._arr, pads, mode="constant")
        return Volume4(out, copy=False)

    def astype(self, dtype) -> "Volume4":
        return Volume4(self._arr.astype(_coerce_dtype(dtype)), copy=False)

    # -- serialization ----------------------------------------------------

    def serialize(self, sink: BinaryIO) -> None:
        write_sv3d(sink, self._arr)

    @classmethod
    def deserialize(cls, source: BinaryIO) -> "Volume4":
        return cls(read_sv3d(source), copy=False)


def _coerce_dtype(dtype) -> np.dtype:
    dt = np.dtype(dtype)
    if dt not in _SUPPORTED_DTYPES:
        raise VolumeError(f"unsupported dtype {dt}; use float32 or float64")
    return dt


def _parse_axis_order(order):
    seq = list(order)
    if len(seq) != 4:
        raise VolumeError(f"axis order must name all 4 axes, got {order!r}")
    idx = []
    for ax in seq:
        if isinstance(ax, str):
            if ax not in _AXIS_BY_NAME:
                raise VolumeError(f"unknown axis {ax!r}")
            idx.append(_AXIS_BY_NAME[ax])
        else:
            idx.append(int(ax))
    if sorted(idx) != [0, 1, 2, 3]:
        raise VolumeError(f"axis order must be a permutation, got {order!r}")
    return tuple(idx)


# ----------------------------------------------------------------------
# SV3D container
#
#   offset  size  field
#   0       4     magic "SV3D"
#   4       1     format version (1)
#   5       1     dtype code: 0 = float32, 1 = float64
#   6       2     reserved, must be 0
#   8       32    extents c, d, h, w as little-endian u64
#   40      -     payload, little-endian, C order (w fastest)
# ----------------------------------------------------------------------

_MAGIC = b"SV3D"
_VERSION = 1
_HEADER = struct.Struct("<4sBBH4Q")
_CODE_FOR_DTYPE = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_FOR_CODE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_READ_CHUNK = 1 << 24


def write_sv3d(sink: BinaryIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    code = _CODE_FOR_DTYPE.get(arr.dtype)
    if code is None or arr.ndim != 4:
        raise VolumeError(
            f"SV3D stores 4D float32/float64 arrays, got {arr.dtype} ndim={arr.ndim}"
        )
    c, d, h, w = arr.shape
    sink.write(_HEADER.pack(_MAGIC, _VERSION, code, 0, c, d, h, w))
    sink.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_sv3d(source: BinaryIO) -> np.ndarray:
    head = source.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise VolumeIOError(
            f"truncated header: expected {_HEADER.size} bytes, got {len(head)}"
        )
    magic, version, code, reserved, c, d, h, w = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise VolumeIOError(f"bad magic {magic!r}; expected {_MAGIC!r}")
    if version != _VERSION:
        raise VolumeIOError(f"unsupported format version {version}")
    if code not in _DTYPE_FOR_CODE:
        raise VolumeIOError(f"unknown dtype code {code}")
    if reserved != 0:
        raise VolumeIOError(f"reserved field must be 0, got {reserved}")
    dims = (c, d, h, w)
    if any(x < 1 for x in dims):
        raise VolumeIOError(f"extents must be >= 1, got {dims}")
    dt = _DTYPE_FOR_CODE[code]
    expect = c * d * h * w * dt.itemsize
    # read in bounded chunks: the header's byte count is not trusted until
    # the bytes arrive, so a forged header cannot make us allocate it
    chunks, got = [], 0
    while got < expect:
        chunk = source.read(min(expect - got, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    payload = b"".join(chunks)
    if len(payload) != expect:
        raise VolumeIOError(
            f"payload length mismatch: expected {expect} bytes, got {len(payload)}"
        )
    arr = np.frombuffer(payload, dtype=dt).reshape(dims)
    # native byte order, writable copy for the caller
    return arr.astype(dt.newbyteorder("="))


def save_volume(path, vol: Volume4) -> None:
    with open(path, "wb") as f:
        vol.serialize(f)


def load_volume(path) -> Volume4:
    with open(path, "rb") as f:
        return Volume4.deserialize(f)
