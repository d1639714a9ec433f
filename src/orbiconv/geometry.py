"""Receptive-field sampling geometry for square and circular kernels.

A K x K square kernel samples the integer grid {-d*m, ..., d*m}^2 with
m = (K-1)/2. The circular variant keeps the same number of samples (K^2)
but places them on concentric rings: one center point plus 8k points on
ring k at radius d*k, spaced at equal angles with one point on the +x axis.

Coordinates use a y-up convention: offset (0, 1) is the top-middle slot of
a 3 x 3 kernel. The mapping to image row/column indexing (row grows
downward) lives in the tensor engine, not here.

Circular points are stored in the order of their paired square-grid slots:
ring k points, sorted by angle, are matched one-to-one with the grid points
at Chebyshev distance k, also sorted by angle. This makes the per-slot
offset circular[i] - square[i] well defined and keeps kernel-weight
ordering identical between the two modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple


class Mode(Enum):
    SQUARE = "square"
    CIRCULAR = "circular"


class SamplePoint(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class SamplePointSet:
    kernel_size: int
    mode: Mode
    points: tuple[SamplePoint, ...]
    dilation: int = 1
    # ring index of each point (0 for the center; square mode uses the
    # Chebyshev shell index), aligned with `points`
    rings: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.points) != self.kernel_size**2:
            raise ValueError(
                f"expected {self.kernel_size ** 2} points, got {len(self.points)}"
            )


# Largest kernel extent, the largest of the paper's Sec. 4.1 (31 x 31).
# Building a circular B weighs four grid points per sample point, so its
# time grows as K^2: K = 5 takes 0.17 ms and K = 31 7 ms on a 2-vCPU x86
# box. What grows faster is a dense conv's im2col matrix, K^2 values per
# output pixel and input channel.
MAX_KERNEL_SIZE = 31


def check_kernel_size(k: int, name: str = "kernel_size") -> None:
    """The one kernel-size rule: a kernel has a center slot, so its extent
    `name` is odd and at least 1, and at most MAX_KERNEL_SIZE."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"{name} must be odd and >= 1, got {k}")
    if k > MAX_KERNEL_SIZE:
        raise ValueError(f"{name} must be at most {MAX_KERNEL_SIZE}, got {k}")


def _check_args(kernel_size: int, dilation: int) -> None:
    check_kernel_size(kernel_size)
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")


def square_points(kernel_size: int, dilation: int = 1) -> SamplePointSet:
    """Row-major grid offsets of a square kernel, top-left slot first."""
    _check_args(kernel_size, dilation)
    m = (kernel_size - 1) // 2
    pts = []
    rings = []
    for row in range(kernel_size):
        for col in range(kernel_size):
            x = dilation * (col - m)
            y = dilation * (m - row)
            pts.append(SamplePoint(float(x), float(y)))
            rings.append(max(abs(col - m), abs(row - m)))
    return SamplePointSet(kernel_size, Mode.SQUARE, tuple(pts), dilation, tuple(rings))


def _shell_slots(kernel_size: int, ring: int) -> list[int]:
    """Row-major indices of the grid slots at Chebyshev distance `ring`,
    sorted by angle from the +x axis, counterclockwise."""
    m = (kernel_size - 1) // 2
    slots = []
    for row in range(kernel_size):
        for col in range(kernel_size):
            if max(abs(col - m), abs(row - m)) == ring:
                slots.append((row, col))
    def angle(rc: tuple[int, int]) -> float:
        x, y = rc[1] - m, m - rc[0]
        a = math.atan2(y, x)
        return a if a >= -1e-15 else a + 2 * math.pi
    slots.sort(key=angle)
    return [row * kernel_size + col for row, col in slots]


def circular_points(kernel_size: int, dilation: int = 1) -> SamplePointSet:
    """Concentric-ring sample points of a circular kernel.

    Ring k carries 8k points at radius dilation*k, at angles j*(2*pi/(8k))
    from the +x axis. Each point is stored at the slot of its angular match
    on the square grid's Chebyshev shell k, so indexing is row-major like
    square_points.
    """
    _check_args(kernel_size, dilation)
    n = kernel_size**2
    pts: list[SamplePoint | None] = [None] * n
    rings = [0] * n
    m = (kernel_size - 1) // 2
    center = m * kernel_size + m
    pts[center] = SamplePoint(0.0, 0.0)
    for k in range(1, m + 1):
        slots = _shell_slots(kernel_size, k)
        count = 8 * k
        for j, slot in enumerate(slots):
            theta = 2.0 * math.pi * j / count
            x = dilation * k * math.cos(theta)
            y = dilation * k * math.sin(theta)
            # snap exact axis points onto the grid
            if abs(x - round(x)) < 1e-9:
                x = float(round(x))
            if abs(y - round(y)) < 1e-9:
                y = float(round(y))
            pts[slot] = SamplePoint(x, y)
            rings[slot] = k
    assert all(p is not None for p in pts)
    return SamplePointSet(
        kernel_size, Mode.CIRCULAR, tuple(pts), dilation, tuple(rings)  # type: ignore[arg-type]
    )


def offsets(square: SamplePointSet, circular: SamplePointSet) -> list[tuple[float, float]]:
    """Per-slot displacement circular[i] - square[i]."""
    if square.mode is not Mode.SQUARE or circular.mode is not Mode.CIRCULAR:
        raise ValueError("offsets() expects (square, circular) point sets")
    if (square.kernel_size, square.dilation) != (circular.kernel_size, circular.dilation):
        raise ValueError(
            "mismatched geometry: "
            f"square K={square.kernel_size} d={square.dilation}, "
            f"circular K={circular.kernel_size} d={circular.dilation}"
        )
    return [
        (c.x - s.x, c.y - s.y) for s, c in zip(square.points, circular.points)
    ]
