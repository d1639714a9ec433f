"""Experiment drivers: image warping, the rotation/shear robustness sweep,
and square-vs-circle-vs-integrated kernel comparisons."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .data import Dataset, SynthKind, gen_synthetic
from .geometry import Mode
from .integrated import EvalBranch, IntegratedConv
from .autodiff import relu
from .layers import (
    ChannelAffine,
    Conv2d,
    Linear,
    Module,
    avg_pool2d,
    global_avg_pool,
)
from .rng import stream
from .train import TrainConfig, evaluate, train


class WarpMode(Enum):
    ROTATE = "rotate"
    SHEAR = "shear"


@dataclass
class RobustnessSweep:
    angle_ranges: list[int] = field(
        default_factory=lambda: [10, 20, 30, 40, 50, 60, 70, 80])
    mode: WarpMode = WarpMode.ROTATE
    trials: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        for a in self.angle_ranges:
            if not 0 < a < 90:
                raise ValueError(f"angle range {a} not in (0, 90)")


def warp_image(img: np.ndarray, angle: float, mode: WarpMode) -> np.ndarray:
    """Rotate or shear an H x W image about its center.

    Inverse-map resampling with bilinear interpolation and zero fill, in the
    same y-up convention as the kernel geometry. Shear maps x to
    x + tan(angle) * y.
    """
    h, w = img.shape
    if mode is WarpMode.SHEAR and not abs(angle) < 90:
        raise ValueError("shear angle must satisfy |angle| < 90")
    if angle == 0.0:
        return img.copy()
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    x = cols - cc
    y = cr - rows
    rad = math.radians(angle)
    if mode is WarpMode.ROTATE:
        ct, st = math.cos(rad), math.sin(rad)
        xs = ct * x + st * y
        ys = -st * x + ct * y
    else:
        xs = x - math.tan(rad) * y
        ys = y
    src_r = cr - ys
    src_c = xs + cc
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = src_r - r0
    fc = src_c - c0
    out = np.zeros_like(img, dtype=np.float64)
    for dr, dc, wgt in ((0, 0, (1 - fr) * (1 - fc)), (0, 1, (1 - fr) * fc),
                        (1, 0, fr * (1 - fc)), (1, 1, fr * fc)):
        rr = r0 + dr
        cc2 = c0 + dc
        valid = (rr >= 0) & (rr < h) & (cc2 >= 0) & (cc2 < w)
        vals = np.where(valid, img[np.clip(rr, 0, h - 1), np.clip(cc2, 0, w - 1)], 0.0)
        out += wgt * vals
    return out.astype(img.dtype)


def warp_dataset(ds: Dataset, angle_range: float, mode: WarpMode,
                 rng) -> Dataset:
    """Warp every image by an independent uniform angle in (-a, a)."""
    images = np.empty_like(ds.images)
    for i in range(len(ds)):
        angle = rng.uniform(-angle_range, angle_range)
        for c in range(ds.images.shape[1]):
            images[i, c] = warp_image(ds.images[i, c], angle, mode)
    return Dataset(images, ds.labels.copy(), ds.split_tag)


def robustness_eval(model: Module, test: Dataset,
                    sweep: RobustnessSweep) -> list[dict]:
    """Rows of per-trial error plus mean/std aggregates per angle range."""
    rows: list[dict] = []
    for a in sweep.angle_ranges:
        errs = []
        for trial in range(sweep.trials):
            rng = stream(sweep.seed, f"robust/{sweep.mode.value}/{a}", trial)
            warped = warp_dataset(test, a, sweep.mode, rng)
            err = evaluate(model, warped)
            errs.append(err)
            rows.append({"mode": sweep.mode.value, "a": a, "trial": trial,
                         "err": err})
        rows.append({"mode": sweep.mode.value, "a": a, "trial": "mean",
                     "err": float(np.mean(errs))})
        rows.append({"mode": sweep.mode.value, "a": a, "trial": "std",
                     "err": float(np.std(errs))})
    return rows


def robustness_csv(rows: list[dict]) -> str:
    lines = ["mode,a,trial,err"]
    for r in rows:
        lines.append(f"{r['mode']},{r['a']},{r['trial']},{r['err']!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Comparison model and driver


def kernel_shape(shape: str) -> Mode | None:
    """The Mode a SmallCNN shape name stands for; None for integrated."""
    modes = {"square": Mode.SQUARE, "circle": Mode.CIRCULAR,
             "circular": Mode.CIRCULAR, "integrated": None}
    if shape not in modes:
        raise ValueError(f"unknown kernel shape {shape!r}, expected one of "
                         f"{', '.join(modes)}")
    return modes[shape]


class SmallCNN(Module):
    """Three conv blocks (conv -> affine -> relu -> avg pool) + linear head."""

    def __init__(self, *, in_channels: int = 1, num_classes: int = 2,
                 kernel_size: int = 3, shape: str = "square",
                 channels: tuple[int, ...] = (8, 16, 16), seed: int = 0,
                 p_circular: float = 0.5,
                 eval_branch: EvalBranch = EvalBranch.CIRCULAR):
        self.blocks: list[Module] = []
        self.affines: list[Module] = []
        mode = kernel_shape(shape)
        cin = in_channels
        pad = (kernel_size - 1) // 2
        for idx, cout in enumerate(channels):
            rng = stream(seed, f"w/block{idx}")
            if mode is None:
                conv: Module = IntegratedConv(
                    cin, cout, kernel_size, padding=pad, p_circular=p_circular,
                    seed=seed, stream_id=f"layer{idx}", eval_branch=eval_branch,
                    rng=rng)
            else:
                conv = Conv2d(cin, cout, kernel_size, padding=pad, mode=mode,
                              rng=rng)
            self.blocks.append(conv)
            self.affines.append(ChannelAffine(cout))
            cin = cout
        self.head = Linear(cin, num_classes, rng=stream(seed, "w/head"))

    def forward(self, x):
        for conv, affine in zip(self.blocks, self.affines):
            x = avg_pool2d(relu(affine(conv(x))), 3, 2, 1)
        return self.head(global_avg_pool(x))


def compare_kernels(cfg: dict) -> tuple[str, str]:
    """Train every (shape, K, seed) combination on identical data and seeds.

    Returns (long-format CSV text, SVG line chart text). CSV rows are
    shape,K,seed,final_test_err with aggregate shape,K,mean,std rows after.
    Raises ConfigError for a key of `cfg` that the comparison does not read.
    """
    cfg = Config(cfg)
    kind = cfg.value("compare.dataset", SynthKind, SynthKind.RING_VS_CROSS)
    n_per_class = cfg.value("compare.n_per_class", int, 40)
    size = cfg.value("compare.size", int, 16)
    shapes = cfg.value("compare.shapes", str, ["square", "circle"])
    for shape in shapes:
        kernel_shape(shape)
    kernel_sizes = cfg.value("compare.kernel_sizes", int, [3, 5])
    seeds = cfg.value("compare.seeds", int, [0, 1, 2])
    tcfg = train_config(cfg)
    p_circular = cfg.value("integrated.p_circular", float, 0.5)
    eval_branch = cfg.value("integrated.eval_branch", EvalBranch,
                            EvalBranch.CIRCULAR)
    cfg.reject_unread()

    rows = []
    results: dict[tuple[str, int], list[float]] = {}
    for k in kernel_sizes:
        for shape in shapes:
            errs = []
            for seed in seeds:
                train_ds = gen_synthetic(kind, n_per_class, size, seed)
                test_ds = gen_synthetic(kind, n_per_class, size, seed + 10_000)
                model = SmallCNN(kernel_size=k, shape=shape, seed=seed,
                                 num_classes=train_ds.num_classes,
                                 p_circular=p_circular,
                                 eval_branch=eval_branch)
                report = train(model, train_ds, test_ds,
                               replace(tcfg, seed=seed))
                err = report.test_err[-1]
                errs.append(err)
                rows.append(f"{shape},{k},{seed},{err!r}")
            results[(shape, k)] = errs
    lines = ["shape,K,seed,final_test_err"] + rows
    for (shape, k), errs in results.items():
        lines.append(f"{shape},{k},mean,{float(np.mean(errs))!r}")
        lines.append(f"{shape},{k},std,{float(np.std(errs))!r}")
    csv_text = "\n".join(lines) + "\n"
    svg_text = _error_chart_svg(results, kernel_sizes, shapes)
    return csv_text, svg_text


_SVG_COLORS = {"square": "#1f77b4", "circle": "#d62728",
               "circular": "#d62728", "integrated": "#2ca02c"}


def _error_chart_svg(results: dict[tuple[str, int], list[float]],
                     kernel_sizes: list[int], shapes: list[str]) -> str:
    width, height, margin = 420, 300, 45
    max_err = max((max(v) for v in results.values()), default=1.0) or 1.0
    ks = sorted(kernel_sizes)

    def sx(k: float) -> float:
        if len(ks) == 1:
            return width / 2
        return margin + (k - ks[0]) / (ks[-1] - ks[0]) * (width - 2 * margin)

    def sy(e: float) -> float:
        return height - margin - (e / max_err) * (height - 2 * margin)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}"'
             f' y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>']
    for k in ks:
        parts.append(f'<text x="{sx(k):.1f}" y="{height - margin + 18:.1f}" '
                     f'font-size="11" text-anchor="middle">K={k}</text>')
    for i, shape in enumerate(shapes):
        color = _SVG_COLORS.get(shape, "#555555")
        pts = " ".join(f"{sx(k):.1f},{sy(float(np.mean(results[(shape, k)]))):.1f}"
                       for k in ks if (shape, k) in results)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.append(f'<text x="{width - margin + 2}" y="{margin + 14 * i}" '
                     f'font-size="11" fill="{color}">{shape}</text>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Config files and run manifests


class ConfigError(ValueError):
    pass


class Config(dict):
    """A flat config that records the keys read through `get`, so that a
    command can reject the keys it does not know."""

    def __init__(self, values=()):
        super().__init__(values)
        self.read: set[str] = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def value(self, key: str, kind, default):
        """`key` converted by `kind` (int, float, str or an Enum), or
        `default` when the key is absent. When `default` is a list, the
        value is a comma-separated list of `kind`. Raises ConfigError
        naming the key when the value does not convert."""
        raw = self.get(key)
        if raw is None:
            return default
        try:
            if isinstance(default, list):
                return [kind(v.strip()) for v in raw.split(",")]
            return kind(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None

    def reject_unread(self) -> None:
        """Raise ConfigError naming every key not read so far, except
        `out.dir`, which every command accepts."""
        unknown = sorted(set(self) - self.read - {"out.dir"})
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")


def from_config(cls, cfg: Config, section: str, names: tuple[str, ...]):
    """The dataclass `cls` with each field in `names` read from the key
    `section.<name>`; the field's default gives the value's type and the
    value of an absent key."""
    return cls(**{name: cfg.value(f"{section}.{name}", type(getattr(cls, name)),
                                  getattr(cls, name)) for name in names})


def train_config(cfg: Config) -> TrainConfig:
    """TrainConfig from the `train.*` keys; absent keys keep its defaults."""
    tcfg = from_config(TrainConfig, cfg, "train", (
        "epochs", "batch_size", "lr_init", "momentum", "weight_decay",
        "warmup_epochs", "seed"))
    if tcfg.epochs < 1:
        raise ConfigError("train.epochs must be at least 1")
    return tcfg


def parse_config(text: str) -> Config:
    """Flat `key = value` config, UTF-8, `#` comments."""
    out = Config()
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key} repeats line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        out[key] = value
    return out


def load_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config(f.read())
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def write_manifest(out_dir: str, config: dict, seed: int,
                   outputs: list[str]) -> str:
    """Record config hash, seed and content hashes of the produced files."""
    cfg_bytes = json.dumps(config, sort_keys=True).encode("utf-8")
    manifest = {
        "config_sha256": hashlib.sha256(cfg_bytes).hexdigest(),
        "seed": seed,
        "outputs": {},
    }
    for path in outputs:
        with open(path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        manifest["outputs"][os.path.basename(path)] = digest
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return path
