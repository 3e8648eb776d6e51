"""Volume container: constructors, layout ops, RNG, SV3D serialization."""

import io
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepconv3d import volume
from sepconv3d.volume import (
    IntStream,
    Shape4,
    Volume4,
    VolumeError,
    VolumeIOError,
    load_volume,
    save_volume,
    splitmix64,
    uniform_open,
    write_sv3d,
)


# ----------------------------------------------------------------------
# Shape4 and constructors
# ----------------------------------------------------------------------


def test_shape4_sites_and_numel():
    s = Shape4(3, 4, 5, 6)
    assert s.sites == 4 * 5 * 6
    assert s.numel == 3 * 4 * 5 * 6


def test_zeros_and_full():
    z = Volume4.zeros((2, 3, 4, 5))
    assert z.dims == Shape4(2, 3, 4, 5)
    assert z.dtype == np.float32
    assert not z.array.any()

    f = Volume4.full((1, 1, 2, 2), 2.5, dtype=np.float64)
    assert f.dtype == np.float64
    assert (f.array == 2.5).all()


def test_random_is_deterministic_per_seed():
    a = Volume4.random((3, 4, 5, 6), seed=7)
    b = Volume4.random((3, 4, 5, 6), seed=7)
    c = Volume4.random((3, 4, 5, 6), seed=8)
    assert np.array_equal(a.array, b.array)
    assert not np.array_equal(a.array, c.array)


def test_random_values_come_from_the_stream():
    v = Volume4.random((2, 3, 4, 5), seed=123, dtype=np.float64)
    expect = uniform_open(123, 2 * 3 * 4 * 5).reshape(2, 3, 4, 5)
    assert np.array_equal(v.array, expect)
    # f32 storage is the f64 stream rounded once
    v32 = Volume4.random((2, 3, 4, 5), seed=123)
    assert np.array_equal(v32.array, expect.astype(np.float32))


def test_constructor_validation():
    with pytest.raises(VolumeError):
        Volume4(np.zeros((2, 3, 4)))  # ndim 3
    with pytest.raises(VolumeError):
        Volume4(np.zeros((2, 3, 4, 5), dtype=np.int32))
    with pytest.raises(VolumeError):
        Volume4(np.zeros((2, 0, 4, 5)))
    bad = np.zeros((1, 1, 1, 2))
    bad[0, 0, 0, 1] = np.nan
    with pytest.raises(VolumeError):
        Volume4(bad)
    with pytest.raises(VolumeError):
        Volume4.zeros((2, 3, 4, 5), dtype="int64")
    with pytest.raises(VolumeError):
        Volume4.zeros((2, 3, 4))


def test_volume_is_immutable():
    v = Volume4.random((1, 2, 3, 4), seed=0)
    with pytest.raises(ValueError):
        v.array[0, 0, 0, 0] = 1.0
    out = v.to_numpy()
    out[0, 0, 0, 0] = 99.0  # copies are writable...
    assert v.array[0, 0, 0, 0] != 99.0  # ...and do not alias


def test_constructor_copies_by_default():
    src = np.zeros((1, 1, 1, 3))
    v = Volume4(src)
    src[0, 0, 0, 0] = 5.0
    assert v.array[0, 0, 0, 0] == 0.0


def test_equality_semantics():
    a = Volume4.random((1, 2, 3, 4), seed=1)
    b = Volume4.random((1, 2, 3, 4), seed=1)
    assert a == b
    assert a != Volume4.random((1, 2, 3, 4), seed=2)
    assert a != a.astype(np.float64)  # dtype participates
    assert (a == object()) is False
    with pytest.raises(TypeError):
        hash(a)


# ----------------------------------------------------------------------
# indexing law and layout ops
# ----------------------------------------------------------------------


@given(
    dims=st.tuples(*(st.integers(1, 4) for _ in range(4))),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_flat_index_law(dims, data):
    v = Volume4.random(dims, seed=5, dtype=np.float64)
    C, D, H, W = dims
    c = data.draw(st.integers(0, C - 1))
    d = data.draw(st.integers(0, D - 1))
    h = data.draw(st.integers(0, H - 1))
    w = data.draw(st.integers(0, W - 1))
    flat = ((c * D + d) * H + h) * W + w
    assert v.array.reshape(-1)[flat] == v.array[c, d, h, w]


def test_permute_roundtrip_all_24_orders():
    v = Volume4.random((2, 3, 4, 5), seed=2, dtype=np.float64)
    for order in itertools.permutations(range(4)):
        inverse = tuple(np.argsort(order))
        back = v.permute(order).permute(inverse)
        assert np.array_equal(back.array, v.array), order


def test_permute_by_letters():
    v = Volume4.random((2, 3, 4, 5), seed=3)
    assert np.array_equal(
        v.permute("dchw").array, v.permute((1, 0, 2, 3)).array
    )
    assert v.permute("dchw").dims == Shape4(3, 2, 4, 5)


def test_permute_validation():
    v = Volume4.zeros((1, 2, 3, 4))
    with pytest.raises(VolumeError):
        v.permute((0, 1, 2))
    with pytest.raises(VolumeError):
        v.permute((0, 1, 2, 2))
    with pytest.raises(VolumeError):
        v.permute("cdhq")


def test_pad_same_k3_centers_original():
    v = Volume4.full((1, 2, 2, 2), 1.0)
    p = v.pad_same(3)
    assert p.dims == Shape4(1, 4, 4, 4)
    assert np.array_equal(p.array[:, 1:3, 1:3, 1:3], v.array)
    assert p.array.sum() == v.array.sum()  # everything else is zero


def test_pad_same_k1_is_identity():
    v = Volume4.random((2, 3, 4, 5), seed=9)
    assert np.array_equal(v.pad_same(1).array, v.array)


def test_pad_same_even_k_split():
    # even windows pad floor((k-1)/2) low and ceil((k-1)/2) high
    v = Volume4.random((1, 1, 1, 5), seed=4)
    p = v.pad_same(4, axes=("w",))
    assert p.dims == Shape4(1, 1, 1, 8)
    assert p.array[0, 0, 0, 0] == 0.0
    assert np.array_equal(p.array[0, 0, 0, 1:6], v.array[0, 0, 0, :])
    assert not p.array[0, 0, 0, 6:8].any()


def test_pad_same_interior_crop_roundtrip():
    v = Volume4.random((2, 3, 4, 5), seed=11, dtype=np.float64)
    p = v.pad_same(5)
    assert np.array_equal(p.array[:, 2:5, 2:6, 2:7], v.array)


def test_pad_same_validation():
    v = Volume4.zeros((1, 2, 3, 4))
    with pytest.raises(VolumeError):
        v.pad_same(0)
    with pytest.raises(VolumeError):
        v.pad_same(3, axes=("c",))
    with pytest.raises(VolumeError):
        v.pad_same(3, axes=("q",))


def test_astype():
    v = Volume4.random((1, 2, 3, 4), seed=6)
    up = v.astype(np.float64)
    assert up.dtype == np.float64
    assert np.array_equal(up.astype("float32").array, v.array)


# ----------------------------------------------------------------------
# deterministic RNG
# ----------------------------------------------------------------------


def _splitmix64_scalar(seed, i):
    """Scalar reference: finalize(seed + (i+1) * golden), 64-bit wrapping."""
    mask = (1 << 64) - 1
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
def test_splitmix64_matches_scalar_reference(seed):
    words = splitmix64(seed, 6)
    for i in range(6):
        assert int(words[i]) == _splitmix64_scalar(seed & (2**64 - 1), i)


def test_splitmix64_validation():
    with pytest.raises(VolumeError):
        splitmix64(0, -1)
    assert splitmix64(0, 0).size == 0


@given(seed=st.integers(0, 2**64 - 1), count=st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_uniform_open_range(seed, count):
    vals = uniform_open(seed, count)
    assert vals.size == count
    if count:
        assert vals.min() >= -1.0
        assert vals.max() < 1.0


def _full_size_words(seed, count):
    """Reference: the stream as one full-size vector expression."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed & (2**64 - 1)) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


_B = volume._BLOCK


@pytest.mark.parametrize("count", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 7])
@pytest.mark.parametrize("seed", [5, 2**64 - 3])
def test_blocked_rng_matches_the_full_size_formula(seed, count):
    words = _full_size_words(seed, count)
    assert splitmix64(seed, count).tobytes() == words.tobytes()
    vals = (words >> np.uint64(11)).astype(np.float64) * (2.0 ** -53) * 2.0 - 1.0
    assert uniform_open(seed, count).tobytes() == vals.tobytes()
    if count:
        for dtype in (np.float32, np.float64):
            got = Volume4.random((1, 1, 1, count), seed=seed, dtype=dtype).array
            assert got.tobytes() == vals.astype(dtype).reshape(1, 1, 1, count).tobytes()


@pytest.mark.parametrize("lo", [0, -7, 2**40])
@pytest.mark.parametrize("span", [1, 2, 3, 5, 1000, 2**31 - 1, 2**31])
def test_int_stream_draw_i_maps_word_i(lo, span):
    seed, n = 0x5EC0 + span, 40
    stream = IntStream(seed)
    for w in splitmix64(seed, n):
        got = stream.integers(lo, lo + span)
        assert got == lo + ((int(w) * span) >> 64)
        assert type(got) is int and lo <= got < lo + span


def test_int_stream_choice_takes_the_drawn_index():
    seq = ("full", "fwsc", "dwsc", "fdwsc")
    a, b = IntStream(0xC057), IntStream(0xC057)
    assert [a.choice(seq) for _ in range(50)] == [seq[b.integers(0, 4)] for _ in range(50)]


def test_int_stream_needs_a_nonempty_integer_span():
    stream = IntStream(1)
    for lo, hi in ((3, 3), (4, 3), (0, 2.0), (True, 3)):
        with pytest.raises(VolumeError, match="lo < hi"):
            stream.integers(lo, hi)
    with pytest.raises(VolumeError, match="seed"):
        IntStream(1.5)


# ----------------------------------------------------------------------
# SV3D container
# ----------------------------------------------------------------------

_HEADER = struct.Struct("<4sBBH4Q")


def test_sv3d_header_layout():
    v = Volume4.random((3, 8, 16, 16), seed=21)
    buf = io.BytesIO()
    v.serialize(buf)
    raw = buf.getvalue()
    magic, version, code, reserved, c, d, h, w = _HEADER.unpack(raw[: _HEADER.size])
    assert magic == b"SV3D"
    assert version == 1
    assert code == 0  # float32
    assert reserved == 0
    assert (c, d, h, w) == (3, 8, 16, 16)
    assert raw[_HEADER.size :] == v.array.astype("<f4").tobytes()

    buf64 = io.BytesIO()
    v.astype(np.float64).serialize(buf64)
    assert buf64.getvalue()[5] == 1  # dtype code for float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sv3d_roundtrip(dtype):
    v = Volume4.random((3, 8, 16, 16), seed=33, dtype=dtype)
    buf = io.BytesIO()
    v.serialize(buf)
    buf.seek(0)
    back = Volume4.deserialize(buf)
    assert back == v
    # serialize the reloaded volume: byte-identical container
    buf2 = io.BytesIO()
    back.serialize(buf2)
    assert buf2.getvalue() == buf.getvalue()


def _valid_container() -> bytearray:
    buf = io.BytesIO()
    Volume4.random((1, 2, 2, 2), seed=1).serialize(buf)
    return bytearray(buf.getvalue())


def test_sv3d_truncated_header():
    with pytest.raises(VolumeIOError, match="truncated header"):
        Volume4.deserialize(io.BytesIO(b"SV3"))


def test_sv3d_truncated_payload():
    raw = _valid_container()
    with pytest.raises(VolumeIOError, match="payload length"):
        Volume4.deserialize(io.BytesIO(bytes(raw[:-4])))


def test_sv3d_bad_magic():
    raw = _valid_container()
    raw[:4] = b"XV3D"
    with pytest.raises(VolumeIOError, match="magic"):
        Volume4.deserialize(io.BytesIO(bytes(raw)))


def test_sv3d_bad_version():
    raw = _valid_container()
    raw[4] = 2
    with pytest.raises(VolumeIOError, match="version"):
        Volume4.deserialize(io.BytesIO(bytes(raw)))


def test_sv3d_unknown_dtype_code():
    raw = _valid_container()
    raw[5] = 7
    with pytest.raises(VolumeIOError, match="dtype code"):
        Volume4.deserialize(io.BytesIO(bytes(raw)))


def test_sv3d_reserved_must_be_zero():
    raw = _valid_container()
    raw[6] = 1
    with pytest.raises(VolumeIOError, match="reserved"):
        Volume4.deserialize(io.BytesIO(bytes(raw)))


def test_sv3d_zero_extent_rejected():
    raw = _valid_container()
    raw[8:16] = struct.pack("<Q", 0)
    with pytest.raises(VolumeIOError, match="extents"):
        Volume4.deserialize(io.BytesIO(bytes(raw)))


def test_save_and_load_files(tmp_path):
    v = Volume4.random((2, 4, 6, 8), seed=17, dtype=np.float64)
    path = tmp_path / "vol.sv3d"
    save_volume(path, v)
    assert load_volume(path) == v
    with pytest.raises(OSError):
        load_volume(tmp_path / "missing.sv3d")


@pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
def test_pad_same_rejects_non_integer_window(k):
    v = Volume4.random((1, 2, 3, 4), seed=1)
    with pytest.raises(VolumeError, match="window size"):
        v.pad_same(k)


def test_pad_same_accepts_numpy_integers():
    v = Volume4.random((1, 2, 3, 4), seed=1)
    assert np.array_equal(v.pad_same(np.int64(3)).array, v.pad_same(3).array)


# ----------------------------------------------------------------------
# extents, axes and seeds are integers, never truncated
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [2.7, 2.0, True, "2", None])
def test_constructors_reject_non_integer_extents(bad):
    dims = (bad, 3, 4, 5)
    for make in (lambda: Volume4.random(dims, seed=1), lambda: Volume4.zeros(dims),
                 lambda: Volume4.full(dims, 1.0)):
        with pytest.raises(VolumeError, match="integers"):
            make()
    assert Volume4.zeros((np.int64(2), 3, np.int32(4), 5)).dims == Shape4(2, 3, 4, 5)


@pytest.mark.parametrize("order", [(0.5, 1, 2, 3), (True, 0, 2, 3), ("c", 1.0, 2, 3)])
def test_permute_rejects_non_integer_axes(order):
    v = Volume4.random((2, 3, 4, 5), seed=1)
    with pytest.raises(VolumeError, match="axis"):
        v.permute(order)
    assert v.permute((np.int64(1), 0, 2, 3)) == v.permute((1, 0, 2, 3))


@pytest.mark.parametrize("seed", [2.5, 1.0, True, "1", None])
def test_seeds_must_be_integers(seed):
    for draw in (lambda: Volume4.random((1, 2, 2, 2), seed=seed),
                 lambda: splitmix64(seed, 4), lambda: uniform_open(seed, 4)):
        with pytest.raises(VolumeError, match="seed"):
            draw()


def test_negative_zero_and_numpy_integer_seeds_keep_their_streams():
    assert np.array_equal(splitmix64(-1, 5), splitmix64(2**64 - 1, 5))
    assert np.array_equal(splitmix64(np.int64(7), 5), splitmix64(7, 5))
    assert Volume4.random((1, 2, 2, 2), seed=0) == Volume4.random((1, 2, 2, 2), seed=np.uint8(0))


def test_zeros_rejects_empty_extents():
    with pytest.raises(VolumeError, match="all extents must be >= 1"):
        Volume4.zeros((0, 1, 1, 1))


@pytest.mark.parametrize("arr", [np.zeros((1, 1, 1, 1), np.int64), np.zeros((1, 2, 3))])
def test_write_sv3d_rejects_non_float_or_non_4d_arrays(arr):
    with pytest.raises(VolumeError, match="SV3D stores 4D float32/float64 arrays"):
        write_sv3d(io.BytesIO(), arr)
