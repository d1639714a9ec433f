"""Synthetic datasets and IDX-format ingestion."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import circular_points
from .transform import circular_transform, reparameterize
from .rng import stream


class Split(Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


class SynthKind(Enum):
    RING_VS_CROSS = "ring_vs_cross"
    ORIENTED_BARS = "oriented_bars"
    PLANTED_CIRCULAR = "planted_circular"


@dataclass
class Dataset:
    images: np.ndarray  # (N, C, H, W) float32 in [0, 1]
    labels: np.ndarray  # (N,) int64
    split_tag: Split = Split.TRAIN

    def __post_init__(self) -> None:
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("image/label count mismatch")
        if len(self.labels) and (self.labels.min() < 0):
            raise ValueError("negative label")

    def __len__(self) -> int:
        return int(self.images.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _circular_footprint(kernel_size: int, outer_ring: bool) -> np.ndarray:
    """Effective square-grid footprint of a uniform circular kernel: B^T
    applied to the indicator of the outermost ring's slots (`outer_ring`) or
    of every other ring's slots, normalized to unit L1 norm."""
    geo = circular_points(kernel_size)
    m = (kernel_size - 1) // 2
    w = np.array([1.0 if (r == m) == outer_ring else 0.0 for r in geo.rings])
    eff = reparameterize(w, circular_transform(kernel_size))
    return eff.reshape(kernel_size, -1) / np.abs(eff).sum()


def corner_template(kernel_size: int = 5) -> np.ndarray:
    """Four corner dots. Corners sit far from every circular sample point,
    so this pattern is nearly invisible to a circular kernel."""
    t = np.zeros((kernel_size, kernel_size))
    t[0, 0] = t[0, -1] = t[-1, 0] = t[-1, -1] = 1.0
    return t / t.sum()


def _splat(canvas: np.ndarray, template: np.ndarray, row: int, col: int,
           amplitude: float) -> None:
    k = template.shape[0]
    canvas[row:row + k, col:col + k] += amplitude * template


# The largest image side of a synthetic dataset. A K = 5 SmallCNN step on
# a batch of 16 images of side 256 holds im2col patches of 0.1-0.2 GB per
# layer; each doubling of the side takes four times that.
MAX_IMAGE_SIZE = 256


def check_image_size(size: int) -> None:
    """Raise ValueError unless 8 <= size <= MAX_IMAGE_SIZE."""
    if size < 8:
        raise ValueError(f"size must be at least 8, got {size}")
    if size > MAX_IMAGE_SIZE:
        raise ValueError(f"size must be at most {MAX_IMAGE_SIZE}, got {size}")


# The byte budget of each memory rule: the most bytes of one split's float32
# images (1000 per class of side 256), of a SmallCNN run's largest im2col
# patch matrix, of a supernet's float32 weights and of the activations its
# first cell keeps for the backward.
MAX_BYTES = 2**29


def check_split_size(n_per_class: int, size: int) -> None:
    """Raise ValueError unless a split of 2 * n_per_class images of side
    `size` holds at most MAX_BYTES."""
    most = MAX_BYTES // (2 * size * size * 4)
    if n_per_class > most:
        raise ValueError(f"n_per_class must be at most {most} at size {size} "
                         f"({MAX_BYTES >> 20} MB a split), got "
                         f"{n_per_class}")


def gen_synthetic(kind: SynthKind, n_per_class: int, size: int,
                  seed: int, split_tag: Split = Split.TRAIN) -> Dataset:
    """Deterministic synthetic two-class images.

    RING_VS_CROSS: class 0 is an annulus, class 1 a plus-sign, at random
    position and scale with additive noise.
    ORIENTED_BARS: class 0 horizontal, class 1 vertical bar.
    PLANTED_CIRCULAR: class labels are separable by the response to a fixed
    5x5 circular-ring filter; class 1 images carry the circular-ring
    footprint, class 0 a filled circular-disk footprint, at random positions.
    Both classes also carry label-uncorrelated corner-dot distractor splats
    that a circular kernel cannot resolve.
    """
    check_image_size(size)
    check_split_size(n_per_class, size)
    rng = stream(seed, f"synth/{kind.value}")
    n = 2 * n_per_class
    images = np.zeros((n, 1, size, size), dtype=np.float32)
    labels = np.zeros(n, dtype=np.int64)
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    if kind is SynthKind.PLANTED_CIRCULAR:
        # indexed by label: the filled disk, then the outer ring
        planted = tuple(_circular_footprint(5, ring) for ring in (False, True))
        distract = corner_template(5)

    for i in range(n):
        label = i % 2
        labels[i] = label
        img = np.zeros((size, size), dtype=np.float64)
        if kind is SynthKind.RING_VS_CROSS:
            cx = rng.uniform(size * 0.3, size * 0.7)
            cy = rng.uniform(size * 0.3, size * 0.7)
            radius = rng.uniform(2.0, size * 0.25)
            if label == 0:
                dist = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
                img = np.exp(-((dist - radius) ** 2) / 0.5)
            else:
                horiz = np.exp(-((yy - cy) ** 2) / 0.5) * (np.abs(xx - cx) <= radius)
                vert = np.exp(-((xx - cx) ** 2) / 0.5) * (np.abs(yy - cy) <= radius)
                img = np.maximum(horiz, vert)
            img = img + rng.normal(0.0, 0.1, size=img.shape)
        elif kind is SynthKind.ORIENTED_BARS:
            pos = int(rng.integers(1, size - 1))
            if label == 0:
                img[pos, :] = 1.0
            else:
                img[:, pos] = 1.0
            img = img + rng.normal(0.0, 0.05, size=img.shape)
        elif kind is SynthKind.PLANTED_CIRCULAR:
            for _ in range(2):
                row = int(rng.integers(0, size - 5))
                col = int(rng.integers(0, size - 5))
                amp = rng.uniform(0.8, 1.2)
                _splat(img, planted[label], row, col, amp * 8.0)
            for _ in range(4):
                row = int(rng.integers(0, size - 5))
                col = int(rng.integers(0, size - 5))
                amp = rng.uniform(0.8, 1.2)
                _splat(img, distract, row, col, amp * 1.2)
            img = img + rng.normal(0.0, 0.1, size=img.shape)
        images[i, 0] = np.clip(img, 0.0, 1.0).astype(np.float32)
    return Dataset(images, labels, split_tag)


class IdxFormatError(ValueError):
    pass


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair (the MNIST container format)."""
    with open(images_path, "rb") as f:
        head = f.read(16)
        if len(head) < 16:
            raise IdxFormatError(f"{images_path}: truncated header")
        magic, n, h, w = struct.unpack(">IIII", head)
        if magic != 0x00000803:
            raise IdxFormatError(f"{images_path}: bad magic 0x{magic:08x}")
        payload = f.read()
    if len(payload) != n * h * w:
        raise IdxFormatError(f"{images_path}: expected {n * h * w} bytes, "
                             f"got {len(payload)}")
    try:  # an empty file may still state extents numpy cannot hold
        images = np.frombuffer(payload, dtype=np.uint8).reshape(n, 1, h, w)
        images = images.astype(np.float32) / 255.0
    except ValueError as e:
        raise IdxFormatError(f"{images_path}: {e}") from None

    with open(labels_path, "rb") as f:
        head = f.read(8)
        if len(head) < 8:
            raise IdxFormatError(f"{labels_path}: truncated header")
        magic, nl = struct.unpack(">II", head)
        if magic != 0x00000801:
            raise IdxFormatError(f"{labels_path}: bad magic 0x{magic:08x}")
        lab = f.read()
    if len(lab) != nl:
        raise IdxFormatError(f"{labels_path}: expected {nl} bytes, got {len(lab)}")
    if nl != n:
        raise IdxFormatError(f"image count {n} != label count {nl}")
    labels = np.frombuffer(lab, dtype=np.uint8).astype(np.int64)
    return Dataset(images, labels, Split.TRAIN)
