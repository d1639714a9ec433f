import json

import numpy as np
import pytest

from orbiconv.experiments import (
    Config,
    ConfigError,
    RobustnessSweep,
    SmallCNN,
    WarpMode,
    compare_config,
    compare_kernels,
    load_config,
    make_output_dir,
    parse_config,
    robustness_csv,
    robustness_eval,
    warp_dataset,
    warp_image,
    write_manifest,
)
from orbiconv.data import Dataset, SynthKind, gen_synthetic
from orbiconv.rng import stream


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
    with pytest.raises(ValueError):
        warp_image(np.zeros((4, 4)), 90.0, WarpMode.SHEAR)


def test_warp_dataset_keeps_labels_and_shape():
    ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 0)
    out = warp_dataset(ds, 15.0, WarpMode.ROTATE, stream(0, "warp"))
    assert out.images.shape == ds.images.shape
    assert np.array_equal(out.labels, ds.labels)
    assert not np.array_equal(out.images, ds.images)


def test_sweep_rejects_out_of_range_angles():
    with pytest.raises(ValueError):
        RobustnessSweep(angle_ranges=[0])
    with pytest.raises(ValueError):
        RobustnessSweep(angle_ranges=[95])


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
    with pytest.raises(ValueError, match="cirlce"):
        compare_config(Config({"compare.shapes": "square,cirlce"}))
    cfg = Config({"compare.seed": "0", "out.dir": "."})
    compare_config(cfg)
    with pytest.raises(ConfigError, match="compare.seed$"):
        make_output_dir(cfg)


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
