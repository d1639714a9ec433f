"""orbiconv: circular convolution kernels via a fixed sparse bilinear
re-parameterization, integrated square/circular kernels, and a small
differentiable architecture search over an operation space that includes
circular convolutions."""

__version__ = "0.1.0"

from .geometry import Mode, SamplePoint, SamplePointSet, circular_points, offsets, square_points
from .transform import (
    TransformMatrix,
    bilinear_weight,
    build_transform,
    identity_transform,
    reparameterize,
    resample_patch,
    transform_gradient_pushforward,
)
from .analysis import verify_delta_identity
from .autodiff import Var
from .data import Dataset, Split, SynthKind, gen_synthetic, load_idx
from .integrated import EvalBranch, IntegratedConv
from .layers import Conv2d, Linear, Module
from .nas import (
    CellGenotype,
    PRIMITIVES,
    SearchConfig,
    SearchNetwork,
    discretize,
    genotype_to_dot,
    mixed_op_forward,
    search,
)
from .train import TrainConfig, TrainReport, train

__all__ = [
    "Mode", "SamplePoint", "SamplePointSet", "circular_points", "offsets",
    "square_points", "TransformMatrix", "bilinear_weight",
    "build_transform", "identity_transform", "reparameterize",
    "resample_patch", "transform_gradient_pushforward",
    "verify_delta_identity", "Var", "Dataset", "Split", "SynthKind",
    "gen_synthetic", "load_idx", "EvalBranch", "IntegratedConv",
    "Conv2d", "Linear", "Module", "CellGenotype", "PRIMITIVES",
    "SearchConfig", "SearchNetwork", "discretize", "genotype_to_dot",
    "mixed_op_forward", "search", "TrainConfig", "TrainReport", "train",
]
