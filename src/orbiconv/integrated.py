"""Integrated kernels: one shared weight tensor, two kernel shapes (the
weights as they are for the square branch, B^T w for the circular one), with
the active branch re-drawn per layer per training iteration.

The draw is a pure function of (seed, stream id, iteration), so runs replay
exactly and degenerate probabilities (p = 0 or 1) reduce bit-for-bit to the
pure square or circular layer.
"""

from __future__ import annotations

from enum import Enum

from .autodiff import Var, add, scale
from .geometry import Mode
from .layers import Conv2d
from .rng import stream


class EvalBranch(Enum):
    """Evaluation kernel shape: the Mode of the same value, or AVERAGE."""
    SQUARE = "square"
    CIRCULAR = "circular"
    AVERAGE = "average"


class IntegratedConv(Conv2d):
    """Convolution layer whose kernel shape is sampled each iteration.

    The inherited `kernel()` is the circular branch's B^T w; the square
    branch convolves `weights` as they are. A `current_choice` of None
    averages the two. `conv` holds Conv2d's keyword options but `mode`.
    """

    def __init__(self, cin: int, cout: int, k: int, *,
                 p_circular: float = 0.5, seed: int = 0,
                 stream_id: str = "integrated",
                 eval_branch: EvalBranch = EvalBranch.CIRCULAR, **conv):
        if not 0.0 <= p_circular <= 1.0:
            raise ValueError("p_circular must be in [0, 1]")
        super().__init__(cin, cout, k, mode=Mode.CIRCULAR, **conv)
        self.p_circular = p_circular
        self.seed = seed
        self.stream_id = stream_id
        self.eval_branch = eval_branch
        self.enter_eval()

    def draw_for_iteration(self, iteration: int) -> Mode:
        """Re-draw the active branch; deterministic in (seed, stream, iteration)."""
        # u lies in [0, 1): p = 1 always draws CIRCULAR and p = 0 SQUARE
        u = stream(self.seed, f"integrated/{self.stream_id}", iteration).random()
        self.current_choice = Mode.CIRCULAR if u < self.p_circular else Mode.SQUARE
        return self.current_choice

    def enter_eval(self) -> None:
        """Pin the branch for evaluation per the configured eval rule."""
        self.current_choice = (None if self.eval_branch is EvalBranch.AVERAGE
                               else Mode(self.eval_branch.value))

    def forward(self, x: Var) -> Var:
        if self.current_choice is None:
            return scale(add(self._conv(x, self.weights),
                             self._conv(x, self.kernel())), 0.5)
        return self._conv(x, self.kernel() if self.current_choice
                          is Mode.CIRCULAR else self.weights)
