import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import reference_warp_dataset, reference_warp_image
from orbiconv import experiments, layers
from orbiconv.autodiff import Var
from orbiconv.experiments import (
    SEARCH_DATA,
    Config,
    ConfigError,
    DataConfig,
    RobustnessSweep,
    SmallCNN,
    WarpMode,
    check_search_bytes,
    compare_config,
    compare_kernels,
    load_config,
    output_dir,
    parse_config,
    patch_bytes,
    robustness_csv,
    robustness_eval,
    train_setup,
    warp_dataset,
    warp_images,
    write_manifest,
)
from orbiconv.data import MAX_BYTES, Dataset, Split, SynthKind, gen_synthetic
from orbiconv.nas import PRIMITIVES, SearchConfig, SearchNetwork
from orbiconv.rng import stream
from orbiconv.train import train


def warp_image(img, angle, mode):
    return warp_images(img[None], [angle], mode)[0]


def test_warp_zero_angle_is_copy():
    img = np.random.default_rng(0).random((8, 8)).astype(np.float32)
    out = warp_image(img, 0.0, WarpMode.ROTATE)
    assert np.array_equal(out, img)
    assert out is not img


def test_rotation_by_90_permutes_pixels():
    img = np.zeros((9, 9))
    img[4, 7] = 1.0  # point at x=+3, y=0 from center
    out = warp_image(img, 90.0, WarpMode.ROTATE)
    # counter-clockwise: mass moves to x=0, y=+3 (row 1, col 4)
    assert out[1, 4] == pytest.approx(1.0, abs=1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


def test_rotation_round_trip_small_error():
    # a smooth image round-trips with little interpolation loss
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    img = np.exp(-((xx - 9) ** 2 + (yy - 6) ** 2) / 12.0)
    back = warp_image(warp_image(img, 20.0, WarpMode.ROTATE), -20.0,
                      WarpMode.ROTATE)
    inner = (slice(4, 12), slice(4, 12))
    assert np.abs(back[inner] - img[inner]).mean() < 0.05


def test_shear_preserves_rows():
    img = np.zeros((9, 9))
    img[4, :] = 1.0  # the y=0 row is fixed under x-shear
    out = warp_image(img, 30.0, WarpMode.SHEAR)
    assert np.allclose(out[4, :], 1.0, atol=1e-12)


def test_shear_angle_limit():
    for angle in (90.0, -90.0, 135.0):
        with pytest.raises(ValueError):
            warp_image(np.zeros((4, 4)), angle, WarpMode.SHEAR)
        with pytest.raises(ValueError):
            warp_images(np.zeros((3, 4, 4)), [10.0, angle, 0.0],
                        WarpMode.SHEAR)


def test_warp_dataset_keeps_labels_and_shape():
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 0)
    out = warp_dataset(ds, 15.0, WarpMode.ROTATE, stream(0, "warp"))
    assert out.images.shape == ds.images.shape
    assert np.array_equal(out.labels, ds.labels)
    assert not np.array_equal(out.images, ds.images)


# the largest |angle| drawn in each mode: rotation up to a quarter turn,
# shear short of its limit of 90 degrees
_WARP_LIMIT = {WarpMode.ROTATE: 90.0, WarpMode.SHEAR: 89.9}
_FRACTION = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(-1.0, 1.0))


def _images(shape, dtype, seed):
    """Normal pixels of `dtype`, the first of them -0.0."""
    imgs = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    imgs.reshape(-1)[:1] = -0.0
    return imgs


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 12), w=st.integers(1, 12),
       dtype=st.sampled_from([np.float32, np.float64]),
       mode=st.sampled_from(list(WarpMode)), fraction=_FRACTION,
       seed=st.integers(0, 2**32 - 1))
@example(h=9, w=9, dtype=np.float64, mode=WarpMode.ROTATE, fraction=-0.0,
         seed=0)  # -0.0 degrees returns the image's own bytes
@example(h=5, w=11, dtype=np.float32, mode=WarpMode.SHEAR, fraction=-1.0,
         seed=1)  # the steepest shear, sending most taps off the image
def test_warp_image_gives_reference_bytes(h, w, dtype, mode, fraction, seed):
    img = _images((h, w), dtype, seed)
    angle = fraction * _WARP_LIMIT[mode]
    want = reference_warp_image(img, angle, mode)
    got = warp_image(img, angle, mode)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 5), c=st.integers(1, 3), h=st.integers(1, 12),
       w=st.integers(1, 12), dtype=st.sampled_from([np.float32, np.float64]),
       mode=st.sampled_from(list(WarpMode)),
       fraction=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2**32 - 1))
@example(n=4, c=3, h=7, w=12, dtype=np.float32, mode=WarpMode.ROTATE,
         fraction=1.0, seed=0)  # channels share one angle, H != W
def test_warp_dataset_gives_reference_bytes(n, c, h, w, dtype, mode,
                                            fraction, seed):
    ds = Dataset(_images((n, c, h, w), dtype, seed), np.arange(n) % 2,
                 Split.TEST)
    a = fraction * _WARP_LIMIT[mode]
    want = reference_warp_dataset(ds, a, mode, stream(seed, "warp"))
    got = warp_dataset(ds, a, mode, stream(seed, "warp"))
    assert got.images.dtype == want.images.dtype
    assert got.images.tobytes() == want.images.tobytes()
    assert np.array_equal(got.labels, ds.labels)
    assert got.split_tag is ds.split_tag


@pytest.mark.parametrize("mode", list(WarpMode))
def test_warp_images_give_reference_bytes_over_many_angles(mode):
    """A thousand angles in one batch: enough that an angle whose cos, sin
    or tan is one ulp off the scalar `math` one changes output bytes."""
    n, lim = 1000, _WARP_LIMIT[mode]
    imgs = _images((n, 6, 5), np.float64, 0)
    angles = np.random.default_rng(1).uniform(-lim, lim, n)
    want = np.stack([reference_warp_image(im, a, mode)
                     for im, a in zip(imgs, angles)])
    assert warp_images(imgs, angles, mode).tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", list(WarpMode))
def test_warp_chunks_move_no_bit(mode):
    """A batch that spans several chunks and a one-image tail gives the
    bytes of its images warped one call at a time."""
    h, w = 11, 13
    n = 2 * (experiments._WARP_CHUNK_BYTES // (8 * h * w)) + 1
    assert n >= 3  # two full chunks and a one-image tail
    imgs = _images((n, h, w), np.float32, 0)
    angles = np.random.default_rng(1).uniform(-60, 60, n)
    angles[1] = 0.0
    one_by_one = np.stack([warp_image(im, a, mode)
                           for im, a in zip(imgs, angles)])
    assert warp_images(imgs, angles, mode).tobytes() == one_by_one.tobytes()


def test_empty_dataset_warps_to_empty_dataset():
    ds = Dataset(np.zeros((0, 2, 8, 10), np.float32),
                 np.zeros(0, np.int64), Split.TEST)
    out = warp_dataset(ds, 30.0, WarpMode.ROTATE, stream(0, "warp"))
    assert out.images.shape == (0, 2, 8, 10)
    assert out.images.dtype == np.float32 and len(out) == 0


def test_sweep_rejects_out_of_range_angles():
    with pytest.raises(ValueError):
        RobustnessSweep(angle_ranges=[0])
    with pytest.raises(ValueError):
        RobustnessSweep(angle_ranges=[95])
    with pytest.raises(ValueError, match="trials"):
        RobustnessSweep(trials=0)


class _ConstantModel:
    """Always predicts class 0."""

    def __call__(self, x):
        from orbiconv.autodiff import Var
        logits = np.tile([1.0, 0.0], (x.data.shape[0], 1))
        return Var(logits, requires_grad=False)


def test_robustness_constant_model_constant_error():
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 0)
    sweep = RobustnessSweep(angle_ranges=[10, 40], trials=2)
    rows = robustness_eval(_ConstantModel(), ds, sweep)
    per_angle = 2 + 2  # trials + mean + std
    assert len(rows) == 2 * per_angle
    for r in rows:
        if r["trial"] == "std":
            assert r["err"] == 0.0
        else:
            assert r["err"] == 0.5


def test_robustness_csv_layout():
    rows = [{"mode": "rotate", "a": 10, "trial": 0, "err": 0.25}]
    text = robustness_csv(rows)
    assert text.splitlines() == ["mode,a,trial,err", "rotate,10,0,0.25"]


def test_robustness_rows_deterministic():
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 0)
    model = SmallCNN(channels=(4,), seed=0)
    sweep = RobustnessSweep(angle_ranges=[20], trials=2, seed=3)
    assert robustness_eval(model, ds, sweep) == robustness_eval(model, ds, sweep)


def test_compare_kernels_csv_and_svg():
    cfg = {
        "compare.dataset": "oriented_bars",
        "compare.n_per_class": "6",
        "compare.size": "12",
        "compare.shapes": "square,circle",
        "compare.kernel_sizes": "3",
        "compare.seeds": "0,1",
        "train.epochs": "2",
        "train.batch_size": "8",
    }
    ccfg = compare_config(Config(cfg))
    csv_text, svg_text = compare_kernels(ccfg)
    assert ccfg.seeds == [0, 1]
    lines = csv_text.splitlines()
    assert lines[0] == "shape,K,seed,final_test_err"
    assert len(lines) == 1 + 4 + 4  # runs + mean/std per (shape, K)
    assert any(line.startswith("square,3,mean,") for line in lines)
    assert svg_text.startswith("<svg ")
    assert "circle" in svg_text and "square" in svg_text


def test_unknown_shape_and_config_key_rejected():
    with pytest.raises(ValueError, match="cirlce"):
        SmallCNN(shape="cirlce")
    with pytest.raises(ValueError, match=r"p_circular must be in \[0, 1\]"):
        SmallCNN(shape="square", p_circular=1.5)
    with pytest.raises(ValueError, match="cirlce"):
        compare_config(Config({"compare.shapes": "square,cirlce"}))
    cfg = Config({"compare.seed": "0", "out.dir": "."})
    compare_config(cfg)
    with pytest.raises(ConfigError, match="compare.seed$"):
        output_dir(cfg)


@pytest.mark.parametrize("n_per_class, batch_size", [(40, 16), (20, 16),
                                                     (40, 72)])
def test_patch_rule_is_a_runs_largest_patch_matrix(monkeypatch, n_per_class,
                                                   batch_size):
    """`patch_bytes` is the largest im2col matrix that training and
    evaluation build: `evaluate`'s 64-image batch, the whole split of 40 or
    a train batch of 72, at size 9 (9 -> 5 -> 3 over the pools)."""
    built = []

    def recording(*args):
        out = real(*args)
        built.append(out.nbytes)
        return out

    real = layers.extract_patches
    monkeypatch.setattr(layers, "extract_patches", recording)
    setup = train_setup(parse_config(
        f"model.kernel_size = 5\ndata.size = 9\ndata.n_per_class = "
        f"{n_per_class}\ntrain.batch_size = {batch_size}\ntrain.epochs = 1"))
    train(*setup.build(), setup.train)
    assert max(built) == patch_bytes(5, setup.data, batch_size)


@pytest.mark.parametrize("n_per_class, ok", [(8, True), (9, False)])
@pytest.mark.parametrize("read, lines, key", [
    (train_setup, "model.kernel_size = 31\ndata.size = 64\n"
     "data.n_per_class = {n}", "model.kernel_size"),
    (compare_config, "compare.kernel_sizes = 3,31\ncompare.size = 64\n"
     "compare.n_per_class = {n}", "compare.kernel_sizes"),
], ids=["train", "compare"])
def test_patch_bound_is_inclusive(read, lines, key, n_per_class, ok):
    """At K = 31 and size 64 the second block's patches take 8 x 961 x 32^2
    x 4 bytes an image: a split of 16 images fits in 512 MB, one of 18 does
    not."""
    cfg = parse_config(lines.format(n=n_per_class))
    assert (patch_bytes(31, DataConfig(n_per_class=n_per_class, size=64), 16)
            <= MAX_BYTES) == ok
    if ok:
        read(cfg)
    else:
        with pytest.raises(ConfigError, match=f"^{key}: kernel size 31"):
            read(cfg)


@pytest.mark.parametrize("batch_size, n_per_class, ok", [
    (1213, 607, True), (1214, 607, False), (1214, 606, True)])
def test_search_activation_bound_is_inclusive(batch_size, n_per_class, ok):
    """By default the first cell's 9 edges of 6 separable convs keep 8 x 16^2
    float32 values an image each: a batch of 1213 fits in 512 MB and one of
    1214 does not, unless a split of 1212 images caps the batch."""
    cfg = SearchConfig(batch_size=batch_size)
    data = replace(SEARCH_DATA, n_per_class=n_per_class)
    if ok:
        check_search_bytes(cfg, data)
    else:
        with pytest.raises(ConfigError,
                           match="^search.batch_size: 1214 images of size 16"):
            check_search_bytes(cfg, data)


def test_search_activation_rule_is_a_lower_bound(monkeypatch):
    """What the rule counts is at most the padded depthwise inputs that a
    one-cell supernet's forward builds and keeps for the backward."""
    padded = []

    def recording(*args):
        out = real(*args)
        padded.append(out.nbytes)
        return out

    real = layers._pad
    monkeypatch.setattr(layers, "_pad", recording)
    cfg = SearchConfig(num_nodes=4, num_cells=1, channels=3, batch_size=2,
                       op_names=list(PRIMITIVES))
    x = np.zeros((2, 1, 8, 8), np.float32)
    SearchNetwork(cfg, 1, 2)(Var(x, requires_grad=False))
    monkeypatch.setattr(experiments, "MAX_BYTES", sum(padded))
    check_search_bytes(cfg, replace(SEARCH_DATA, n_per_class=1, size=8))


def test_parse_config():
    text = """
    # comment line
    train.epochs = 5
    model.shape = circle  # trailing comment
    """
    cfg = parse_config(text)
    assert cfg == {"train.epochs": "5", "model.shape": "circle"}


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a key value pair")


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=st.binary(max_size=256)
       | st.text(max_size=128).map(lambda t: t.encode("utf-8")))
@example(blob=b"train.epochs = 5\n")
@example(blob=b"model.shape = \xe9\n")  # Latin-1, not UTF-8
def test_load_config_raises_only_config_error(tmp_path, blob):
    """Any file, valid UTF-8 or not, loads or raises ConfigError."""
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(blob)
    try:
        cfg = load_config(str(path))
    except ConfigError:
        return
    assert cfg == parse_config(blob.decode("utf-8"))


def test_write_manifest(tmp_path):
    out = tmp_path / "report.csv"
    out.write_text("a,b\n1,2\n")
    path = write_manifest(str(tmp_path), {"k": "v"}, 7, [str(out)])
    manifest = json.loads(open(path).read())
    assert manifest["seed"] == 7
    assert len(manifest["config_sha256"]) == 64
    assert "report.csv" in manifest["outputs"]
    # content hash changes when the file changes
    out.write_text("a,b\n1,3\n")
    manifest2 = json.loads(open(write_manifest(
        str(tmp_path), {"k": "v"}, 7, [str(out)])).read())
    assert manifest2["outputs"]["report.csv"] != manifest["outputs"]["report.csv"]
