"""Experiment drivers: image warping, the rotation/shear robustness sweep,
and square-vs-circle-vs-integrated kernel comparisons."""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from enum import Enum

import numpy as np

from .data import (MAX_BYTES, Dataset, SynthKind, check_image_size,
                   check_split_size, gen_synthetic)
from .geometry import Mode, check_kernel_size
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
from .nas import SEP_CONVS, SearchConfig, cell_edges
from .rng import stream
from .train import EVAL_BATCH, TrainConfig, evaluate, train


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
                raise ValueError(f"angle_ranges must be in (0, 90), got {a}")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


# Float64 bytes of one chunk's (n, H, W) plane in `warp_images`: 16 images
# of 16 x 16. A chunk holds about a dozen such planes at once. On a 2-vCPU
# x86 box an 80-image call took 0.8-1.2 ms in chunks of 16 or 32 images and
# 1.3-1.9 ms in chunks of 64 or more, whose temporaries land on fresh pages.
# Each image is warped on its own, so the chunking moves no bit.
_WARP_CHUNK_BYTES = 1 << 15


def warp_images(imgs: np.ndarray, angles, mode: WarpMode) -> np.ndarray:
    """Rotate or shear each H x W image of `imgs` (N, H, W) about its center
    by its own angle in degrees.

    Inverse-map resampling with bilinear interpolation and zero fill, in the
    same y-up convention as the kernel geometry. Shear maps x to
    x + tan(angle) * y. An image whose angle is 0 comes back unchanged.
    """
    n, h, w = imgs.shape
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (n,):
        raise ValueError(f"angles of shape {angles.shape} for {n} images")
    if mode is WarpMode.SHEAR and not np.all(np.abs(angles) < 90):
        raise ValueError("shear angle must satisfy |angle| < 90")
    out = np.empty_like(imgs)
    step = max(1, _WARP_CHUNK_BYTES // (8 * max(1, h * w)))
    for s in range(0, n, step):
        out[s:s + step] = _warp_chunk(imgs[s:s + step],
                                      angles[s:s + step].tolist(), mode)
    still = angles == 0.0
    out[still] = imgs[still]
    return out


def _warp_chunk(imgs: np.ndarray, angles: list[float],
                mode: WarpMode) -> np.ndarray:
    """`warp_images` of one chunk. The trigonometry is scalar `math` per
    image (numpy's array `tan` differs from it in the last ulp on some
    angles), broadcast as (n, 1, 1) over one shared grid. The taps read a
    copy with a two-pixel zero border, so a tap outside the image reads 0."""
    n, h, w = imgs.shape
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rows, cols = np.mgrid[0:h, 0:w].astype(np.float64)
    x = cols - cc
    y = cr - rows
    rads = [math.radians(a) for a in angles]

    def per_image(f):
        return np.array([f(r) for r in rads]).reshape(n, 1, 1)

    # source pixel of each output pixel: (src_r, src_c) = (cr - ys, xs + cc)
    if mode is WarpMode.ROTATE:
        ct, st = per_image(math.cos), per_image(math.sin)
        src_c = ct * x
        src_c += st * y
        src_r = -st * x
        src_r += ct * y
        np.subtract(cr, src_r, out=src_r)
    else:
        src_c = x - per_image(math.tan) * y
        src_r = cr - y
    src_c += cc
    r0 = np.floor(src_r).astype(np.int64)
    c0 = np.floor(src_c).astype(np.int64)
    fr = np.subtract(src_r, r0, out=src_r)
    fc = np.subtract(src_c, c0, out=src_c)
    gr, gc = 1 - fr, 1 - fc
    pw = w + 4
    padded = np.zeros((n, h + 4, pw), dtype=imgs.dtype)
    padded[:, 2:-2, 2:-2] = imgs
    flat = padded.reshape(-1)
    # flat index of tap (r0, c0). Clipping r0 to [-2, h] and c0 to [-2, w]
    # moves only corners whose two taps both lie off the image, and keeps
    # those taps on the zero border.
    idx = np.clip(r0, -2, h) * pw + np.clip(c0, -2, w)
    idx += np.arange(n).reshape(n, 1, 1) * padded[0].size + 2 * pw + 2
    out = np.zeros((n, h, w))
    for a, b, shift in ((gr, gc, 0), (gr, fc, 1), (fr, gc, pw),
                        (fr, fc, pw + 1)):
        wgt = a * b
        wgt *= flat.take(idx + shift)
        out += wgt
    return out.astype(imgs.dtype)


def warp_dataset(ds: Dataset, angle_range: float, mode: WarpMode,
                 rng) -> Dataset:
    """Warp every image by an independent uniform angle in (-a, a), drawn
    in image order; an image's channels share its angle."""
    n, c, h, w = ds.images.shape
    angles = rng.uniform(-angle_range, angle_range, size=n)
    images = warp_images(ds.images.reshape(n * c, h, w),
                         np.repeat(angles, c), mode)
    return Dataset(images.reshape(ds.images.shape), ds.labels.copy(),
                   ds.split_tag)


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


def kernel_shape(shape: str, name: str = "shape") -> Mode | None:
    """The Mode a SmallCNN shape name stands for; None for integrated."""
    modes = {"square": Mode.SQUARE, "circle": Mode.CIRCULAR,
             "circular": Mode.CIRCULAR, "integrated": None}
    if shape not in modes:
        raise ValueError(f"{name}: unknown kernel shape {shape!r}, expected "
                         f"one of {', '.join(modes)}")
    return modes[shape]


@dataclass
class ModelConfig:
    """SmallCNN's kernel options, the keys `model.*` and `integrated.*`."""
    kernel_size: int = 3
    shape: str = "square"
    p_circular: float = 0.5
    eval_branch: EvalBranch = EvalBranch.CIRCULAR

    def __post_init__(self) -> None:
        kernel_shape(self.shape)
        check_kernel_size(self.kernel_size)
        if not 0 <= self.p_circular <= 1:
            raise ValueError("p_circular must be in [0, 1]")


SMALLCNN_CHANNELS = (8, 16, 16)


class SmallCNN(Module):
    """Three conv blocks (conv -> affine -> relu -> avg pool) + linear head,
    with the kernels of `ModelConfig(**model)`."""

    def __init__(self, *, in_channels: int = 1, num_classes: int = 2,
                 channels: tuple[int, ...] = SMALLCNN_CHANNELS, seed: int = 0,
                 **model):
        self.blocks: list[Module] = []
        self.affines: list[Module] = []
        model = ModelConfig(**model)
        mode = kernel_shape(model.shape)
        cin = in_channels
        pad = (model.kernel_size - 1) // 2
        for idx, cout in enumerate(channels):
            rng = stream(seed, f"w/block{idx}")
            if mode is None:
                conv: Module = IntegratedConv(
                    cin, cout, model.kernel_size, padding=pad,
                    p_circular=model.p_circular, seed=seed,
                    stream_id=f"layer{idx}", eval_branch=model.eval_branch,
                    rng=rng)
            else:
                conv = Conv2d(cin, cout, model.kernel_size, padding=pad,
                              mode=mode, rng=rng)
            self.blocks.append(conv)
            self.affines.append(ChannelAffine(cout))
            cin = cout
        self.head = Linear(cin, num_classes, rng=stream(seed, "w/head"))

    def forward(self, x):
        for conv, affine in zip(self.blocks, self.affines):
            x = avg_pool2d(relu(affine(conv(x))), 3, 2, 1)
        return self.head(global_avg_pool(x))


def compare_kernels(ccfg: CompareConfig) -> tuple[str, str]:
    """Train every (shape, K, seed) combination on identical data and seeds.

    Returns (long-format CSV text, SVG line chart text). CSV rows are
    shape,K,seed,final_test_err with aggregate shape,K,mean,std rows after.
    """
    rows = []
    results: dict[tuple[str, int], list[float]] = {}
    for k in ccfg.kernel_sizes:
        for shape in ccfg.shapes:
            errs = results[(shape, k)] = []
            model = replace(ccfg.model, kernel_size=k, shape=shape)
            for seed in ccfg.seeds:
                setup = TrainSetup(replace(ccfg.train, seed=seed), ccfg.data,
                                   model)
                err = train(*setup.build(), setup.train).test_err[-1]
                errs.append(err)
                rows.append(f"{shape},{k},{seed},{err!r}")
    lines = ["shape,K,seed,final_test_err"] + rows
    for (shape, k), errs in results.items():
        lines.append(f"{shape},{k},mean,{float(np.mean(errs))!r}")
        lines.append(f"{shape},{k},std,{float(np.std(errs))!r}")
    return ("\n".join(lines) + "\n",
            _error_chart_svg(results, ccfg.kernel_sizes, ccfg.shapes))


_SVG_COLORS = {Mode.SQUARE: "#1f77b4", Mode.CIRCULAR: "#d62728",
               None: "#2ca02c"}  # keyed by kernel_shape; None is integrated


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
        color = _SVG_COLORS[kernel_shape(shape)]
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
    """A flat config that records the keys read through `value`, so that a
    command can reject the keys it does not know."""

    def __init__(self, values=()):
        super().__init__(values)
        self.read: set[str] = set()

    def value(self, key: str, default):
        """`key` converted to the type of `default` (int, float, str or an
        Enum), or `default` when the key is absent. A list default reads a
        comma-separated list of its first item's type. Raises ConfigError
        naming the key when the value does not convert."""
        self.read.add(key)
        raw = self.get(key)
        if raw is None:
            return default
        try:
            if isinstance(default, list):
                return [type(default[0])(v.strip()) for v in raw.split(",")]
            return type(default)(raw)
        except ValueError as e:
            raise ConfigError(f"{key}: {e}") from None

    def reject_unread(self) -> None:
        """Raise ConfigError naming every key not read so far."""
        unknown = sorted(set(self) - self.read)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")


def from_config(default, cfg: Config, section: str, names: tuple[str, ...],
                keys: dict[str, str] | None = None):
    """The dataclass instance `default` with the fields `names` read from
    `section.<key>`, where a field's key is its name unless `keys` maps it
    to another (`robustness.angles` sets `angle_ranges`); its ValueError,
    which starts with the field, is a ConfigError naming the key
    (`train.epochs must be at least 1`)."""
    keys = keys or {}
    values = {n: cfg.value(f"{section}.{keys.get(n, n)}", getattr(default, n))
              for n in names}
    try:
        return replace(default, **values)
    except ValueError as e:
        field, space, rest = str(e).partition(" ")
        raise ConfigError(
            f"{section}.{keys.get(field, field)}{space}{rest}") from None


TRAIN_KEYS = ("epochs", "batch_size", "lr_init", "momentum", "weight_decay",
              "warmup_epochs", "seed")  # seed last: compare reads the rest


@dataclass
class DataConfig:
    kind: SynthKind = SynthKind.RING_VS_CROSS
    n_per_class: int = 40
    size: int = 16

    def __post_init__(self) -> None:
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be at least 1")
        check_image_size(self.size)
        check_split_size(self.n_per_class, self.size)

    def splits(self, seed: int) -> tuple[Dataset, Dataset]:
        """The train split of `seed` and the test split, seeded 10_000 higher."""
        return tuple(gen_synthetic(self.kind, self.n_per_class, self.size, s)
                     for s in (seed, seed + 10_000))


SEARCH_DATA = DataConfig(SynthKind.PLANTED_CIRCULAR)
DATA_KEYS = ("kind", "n_per_class", "size")
INTEGRATED_KEYS = ("p_circular", "eval_branch")  # ModelConfig's `integrated.*`


@dataclass
class CompareConfig:
    """What `compare_kernels` runs: each (shape, K, seed) trains `model` of
    that shape and K by `train` with that seed, on `data`'s splits of it."""
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    shapes: list[str] = field(default_factory=lambda: ["square", "circle"])
    kernel_sizes: list[int] = field(default_factory=lambda: [3, 5])
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])

    def __post_init__(self) -> None:
        # compare_kernels keys its errors by (shape, K): no entry may repeat,
        # and two names of one kernel shape are one entry
        keys = {"shapes": [kernel_shape(s, "shapes") for s in self.shapes],
                "kernel_sizes": self.kernel_sizes, "seeds": self.seeds}
        for name, values in keys.items():
            if len(set(values)) < len(values):
                raise ValueError(
                    f"{name} repeats an entry: {getattr(self, name)}")
        for k in self.kernel_sizes:
            check_kernel_size(k, "kernel_sizes")


def patch_bytes(kernel_size: int, data: DataConfig, batch_size: int) -> int:
    """Bytes of the largest im2col patch matrix a SmallCNN run on `data`
    builds: B x cin x K^2 x H^2 float32 values over the three blocks, where
    H halves, rounding up, per avg pool, and B, a train batch or one of
    `evaluate`'s, is at most a split."""
    b = min(max(batch_size, EVAL_BATCH), 2 * data.n_per_class)
    most, cin, h = 0, 1, data.size
    for cout in SMALLCNN_CHANNELS:
        most = max(most, b * cin * kernel_size**2 * h * h * 4)
        cin, h = cout, (h + 1) // 2
    return most


def check_patch_bytes(kernel_size: int, data: DataConfig, batch_size: int,
                      key: str) -> None:
    """Raise ConfigError naming `key` if `patch_bytes` passes MAX_BYTES."""
    need = patch_bytes(kernel_size, data, batch_size)
    if need > MAX_BYTES:
        raise ConfigError(
            f"{key}: kernel size {kernel_size} at image size {data.size} "
            f"needs a {need >> 20} MB im2col patch matrix (at most "
            f"{MAX_BYTES >> 20} MB)")


def check_search_bytes(cfg: SearchConfig, data: DataConfig) -> None:
    """Raise ConfigError naming `search.batch_size` if a lower bound of the
    activations a search keeps for a backward passes MAX_BYTES: each
    separable conv on each edge of the first cell keeps at least one
    float32 (b, C, H, W) array, its padded depthwise input, where b, a
    train batch, is at most a split."""
    b = min(cfg.batch_size, 2 * data.n_per_class)
    convs = len(cell_edges(cfg.num_nodes)) * sum(
        name in SEP_CONVS for name in cfg.op_names)
    need = convs * b * cfg.channels * data.size**2 * 4
    if need > MAX_BYTES:
        raise ConfigError(
            f"search.batch_size: {b} images of size {data.size} at "
            f"{cfg.channels} channels need {need >> 20} MB of activations "
            f"in the first cell (at most {MAX_BYTES >> 20} MB)")


def compare_config(cfg: Config) -> CompareConfig:
    """`compare.*`, `train.*` but the seed, and `integrated.*`."""
    ccfg = CompareConfig(from_config(DataConfig(), cfg, "compare", DATA_KEYS,
                                     {"kind": "dataset"}),
                         from_config(TrainConfig(), cfg, "train",
                                     TRAIN_KEYS[:-1]),
                         from_config(ModelConfig(), cfg, "integrated",
                                     INTEGRATED_KEYS))
    ccfg = from_config(ccfg, cfg, "compare", ("shapes", "kernel_sizes", "seeds"))
    for k in ccfg.kernel_sizes:
        check_patch_bytes(k, ccfg.data, ccfg.train.batch_size,
                          "compare.kernel_sizes")
    return ccfg


@dataclass
class TrainSetup:
    """What `train` and `robustness` run; `build` generates the data and
    the model."""
    train: TrainConfig
    data: DataConfig
    model: ModelConfig

    def build(self) -> tuple[SmallCNN, Dataset, Dataset]:
        """SmallCNN and the train/test splits of the train seed."""
        train_ds, test_ds = self.data.splits(self.train.seed)
        model = SmallCNN(seed=self.train.seed,
                         num_classes=train_ds.num_classes, **asdict(self.model))
        return model, train_ds, test_ds


def train_setup(cfg: Config) -> TrainSetup:
    """`train.*`, `data.*`, `model.*` and `integrated.*` of a train config,
    read and checked without generating any data."""
    setup = TrainSetup(from_config(TrainConfig(), cfg, "train", TRAIN_KEYS),
                       from_config(DataConfig(), cfg, "data", DATA_KEYS),
                       from_config(from_config(ModelConfig(), cfg, "model",
                                               ("kernel_size", "shape")),
                                   cfg, "integrated", INTEGRATED_KEYS))
    check_patch_bytes(setup.model.kernel_size, setup.data,
                      setup.train.batch_size, "model.kernel_size")
    return setup


def output_dir(cfg: Config) -> str:
    """Reject unread keys, then return `out.dir` once it is a writable
    directory or its nearest existing ancestor is one. Nothing is created:
    a command makes the directory when its data exist."""
    out_dir = cfg.value("out.dir", ".")
    cfg.reject_unread()
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path) or not os.access(path, os.W_OK | os.X_OK):
        raise OSError(f"{out_dir}: {path} is not a writable directory")
    return out_dir


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
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e


def write_manifest(out_dir: str, config: dict,
                   seed: int | list[int] | dict[str, int],
                   outputs: list[str]) -> str:
    """Record config hash, seed(s) and content hashes of the produced files.
    A run with several seeds passes them by name (`robustness`: train, sweep)."""
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
