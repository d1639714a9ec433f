import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import ring_template, square_ring_template
from orbiconv.data import (
    MAX_SPLIT_BYTES,
    Dataset,
    IdxFormatError,
    Split,
    SynthKind,
    gen_synthetic,
    load_idx,
)
from orbiconv import transform
from orbiconv.experiments import DataConfig
from orbiconv.orbt import OrbtFormatError, load_tensor, save_tensor


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((2, 1, 4, 4), np.float32), np.zeros(3, np.int64))
    with pytest.raises(ValueError):
        Dataset(np.zeros((1, 1, 4, 4), np.float32), np.array([-1]))


@pytest.mark.parametrize("size", [8, 16, 100, 256])
def test_split_bytes_are_bounded(size):
    """A split's float32 images hold at most MAX_SPLIT_BYTES: the largest
    accepted n_per_class fits, one more is rejected naming it, and
    gen_synthetic rejects it before it allocates."""
    most = MAX_SPLIT_BYTES // (2 * size * size * 4)
    assert DataConfig(n_per_class=most, size=size).n_per_class == most
    for make in (lambda n: DataConfig(n_per_class=n, size=size),
                 lambda n: gen_synthetic(SynthKind.RING_VS_CROSS, n, size, 0)):
        with pytest.raises(ValueError,
                           match=f"^n_per_class must be at most {most} "):
            make(most + 1)


def test_ring_template_properties():
    t = ring_template(5)
    assert t.shape == (5, 5)
    assert np.abs(t).sum() == pytest.approx(1.0)
    assert t[2, 2] == 0.0  # center slot carries no ring mass
    assert np.allclose(t, t[::-1]) and np.allclose(t, t[:, ::-1])


def test_square_ring_template_is_shell_indicator():
    t = square_ring_template(5)
    assert t[2, 2] == 0.0
    assert t[0, 0] == pytest.approx(1 / 16)
    inner = t[1:4, 1:4]
    assert np.allclose(inner, 0.0)
    assert t.sum() == pytest.approx(1.0)


def test_templates_differ():
    assert not np.allclose(ring_template(5), square_ring_template(5))


def test_planted_data_builds_b_once(monkeypatch):
    """Planted-circular datasets read the one cached B of a circular 5x5
    kernel, so a second dataset builds no transform."""
    built, original = [], transform.build_transform

    def counting(geometry):
        built.append(geometry.kernel_size)
        return original(geometry)

    monkeypatch.setattr(transform, "build_transform", counting)
    transform.circular_transform.cache_clear()
    a = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 2, 12, 0)
    b = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 2, 12, 1)
    assert built == [5]
    assert not np.array_equal(a.images, b.images)


@pytest.mark.parametrize("kind", list(SynthKind))
def test_gen_synthetic_shapes_and_balance(kind):
    ds = gen_synthetic(kind, 10, 16, 0)
    assert ds.images.shape == (20, 1, 16, 16)
    assert ds.images.dtype == np.float32
    assert ds.labels.dtype == np.int64
    assert (ds.labels == 0).sum() == (ds.labels == 1).sum() == 10
    assert ds.num_classes == 2
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0


def test_gen_synthetic_deterministic_per_seed():
    a = gen_synthetic(SynthKind.RING_VS_CROSS, 5, 16, 7)
    b = gen_synthetic(SynthKind.RING_VS_CROSS, 5, 16, 7)
    c = gen_synthetic(SynthKind.RING_VS_CROSS, 5, 16, 8)
    assert np.array_equal(a.images, b.images)
    assert not np.array_equal(a.images, c.images)


def test_gen_synthetic_kinds_use_separate_streams():
    a = gen_synthetic(SynthKind.RING_VS_CROSS, 5, 16, 0)
    b = gen_synthetic(SynthKind.ORIENTED_BARS, 5, 16, 0)
    assert not np.array_equal(a.images, b.images)


def test_gen_synthetic_rejects_tiny_size():
    with pytest.raises(ValueError):
        gen_synthetic(SynthKind.RING_VS_CROSS, 4, 6, 0)


def test_split_tag_carried():
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 2, 8, 0, Split.TEST)
    assert ds.split_tag is Split.TEST


def _write_idx(tmp_path, images, labels):
    """Reference IDX writer, independent of the loader."""
    n, h, w = images.shape
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return str(ip), str(lp)


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (3, 4, 5), dtype=np.uint8)
    labels = np.array([0, 2, 1], dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, labels)
    ds = load_idx(ip, lp)
    assert ds.images.shape == (3, 1, 4, 5)
    assert np.allclose(ds.images[:, 0] * 255.0, images, atol=1e-5)
    assert np.array_equal(ds.labels, labels)


def test_load_idx_bad_magic(tmp_path):
    images = np.zeros((1, 2, 2), dtype=np.uint8)
    labels = np.zeros(1, dtype=np.uint8)
    ip, lp = _write_idx(tmp_path, images, labels)
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">IIII", 0x123, 1, 2, 2) + images.tobytes())
    with pytest.raises(IdxFormatError, match="magic"):
        load_idx(str(bad), lp)


def test_load_idx_truncated(tmp_path):
    ip, lp = _write_idx(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                        np.zeros(2, dtype=np.uint8))
    data = open(ip, "rb").read()
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(data[:-5])
    with pytest.raises(IdxFormatError, match="expected"):
        load_idx(str(trunc), lp)


def test_load_idx_count_mismatch(tmp_path):
    ip, _ = _write_idx(tmp_path, np.zeros((2, 3, 3), dtype=np.uint8),
                       np.zeros(2, dtype=np.uint8))
    lp = tmp_path / "short.idx"
    lp.write_bytes(struct.pack(">II", 0x801, 3) + b"\0\0\0")
    with pytest.raises(IdxFormatError, match="count"):
        load_idx(ip, str(lp))


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_orbt_round_trip(tmp_path, dtype):
    rng = np.random.default_rng(1)
    arr = (rng.integers(-5, 5, (2, 3, 4)).astype(dtype))
    path = str(tmp_path / "t.orbt")
    save_tensor(path, arr)
    back = load_tensor(path)
    assert back.dtype == np.dtype(dtype).newbyteorder("<")
    assert np.array_equal(back, arr)


def test_orbt_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(OrbtFormatError):
        save_tensor(str(tmp_path / "x.orbt"), np.zeros(3, dtype=np.int32))


def test_orbt_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.orbt"
    p.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(OrbtFormatError, match="magic"):
        load_tensor(str(p))
    good = tmp_path / "good.orbt"
    save_tensor(str(good), np.ones((2, 2), dtype=np.float32))
    cut = tmp_path / "cut.orbt"
    # inside the payload; after the magic; inside and after the dtype/rank
    # bytes; inside the extents
    for end in (-3, 4, 5, 6, 9):
        cut.write_bytes(good.read_bytes()[:end])
        with pytest.raises(OrbtFormatError, match="truncated"):
            load_tensor(str(cut))


def test_orbt_huge_extents_do_not_wrap(tmp_path):
    # four 65536 extents make 2**64 elements, which wraps to 0 in int64 and
    # would pass an empty payload
    p = tmp_path / "huge.orbt"
    p.write_bytes(b"ORBT" + struct.pack("<BB4I", 0, 4, *[65536] * 4))
    assert p.stat().st_size == 22
    with pytest.raises(OrbtFormatError, match="truncated payload"):
        load_tensor(str(p))


# Parser fuzz: each loader reads truncated, bit-flipped and well-formed files
# with huge extents and ranks, and may raise only its own format error. A
# huge extent is checked against the file's own payload length first, so no
# example allocates more than the file holds.

_EXTENTS = st.sampled_from([0, 1, 2, 3, 65536, 2**32 - 1])
_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _payload(draw, size: int) -> bytes:
    """`size` drawn bytes, or a short drawn run when `size` is too large."""
    if size <= 256:
        return draw(st.binary(min_size=size, max_size=size))
    return draw(st.binary(max_size=64))


def _damage(draw, data: bytes) -> bytes:
    """`data`, maybe cut to a drawn length, with up to three bits flipped."""
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3)) if data else 0):
        bit = draw(st.integers(0, 8 * len(data) - 1))
        data[bit // 8] ^= 1 << bit % 8
    return bytes(data)


@st.composite
def _orbt_files(draw):
    code = draw(st.integers(0, 3))  # 3 is no dtype code
    rank = draw(st.integers(0, 4) | st.integers(0, 255))
    dims = draw(st.lists(_EXTENTS, min_size=rank, max_size=rank))
    itemsize = 4 if code == 0 else 8
    return _damage(draw, b"ORBT" + struct.pack(f"<BB{rank}I", code, rank, *dims)
                   + _payload(draw, itemsize * math.prod(dims)))


@_FUZZ
@given(blob=_orbt_files())
@example(blob=b"ORBT" + struct.pack("<BB70I", 0, 70, *[1] * 70) + bytes(4)
         )  # a rank numpy cannot hold
@example(blob=b"ORBT" + struct.pack("<BB3I", 0, 3, 0, 2**32 - 1, 2**32 - 1)
         )  # no elements, but extents numpy cannot hold
def test_orbt_loader_raises_only_its_format_error(tmp_path, blob):
    path = tmp_path / "fuzz.orbt"
    path.write_bytes(blob)
    try:
        arr = load_tensor(str(path))
    except OrbtFormatError:
        return
    assert len(blob) == 6 + 4 * arr.ndim + arr.nbytes


@st.composite
def _idx_pairs(draw):
    n, h, w = (draw(_EXTENTS) for _ in range(3))
    nl = draw(st.just(n) | _EXTENTS)
    images = struct.pack(">IIII", 0x803, n, h, w) + _payload(draw, n * h * w)
    labels = struct.pack(">II", 0x801, nl) + _payload(draw, nl)
    return _damage(draw, images), _damage(draw, labels)


@_FUZZ
@given(files=_idx_pairs())
@example(files=(struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1),
                struct.pack(">II", 0x801, 0))
         )  # no images, but extents numpy cannot hold
@example(files=(struct.pack(">IIII", 0x803, 0x20000001, 0, 2**32 - 1),
                struct.pack(">II", 0x801, 0))
         )  # no bytes: the uint8 shape fits, its float32 copy does not
def test_idx_loader_raises_only_its_format_error(tmp_path, files):
    paths = [tmp_path / name for name in ("img.idx", "lab.idx")]
    for path, blob in zip(paths, files):
        path.write_bytes(blob)
    try:
        ds = load_idx(*map(str, paths))
    except IdxFormatError:
        return
    assert ds.images.shape[1] == 1 and len(ds.labels) == len(ds)
