"""Central finite-difference checking of layer gradients."""

from __future__ import annotations

import numpy as np

from .autodiff import Var, relu
from .geometry import Mode
from .integrated import IntegratedConv
from .layers import (
    ChannelAffine,
    Conv2d,
    Linear,
    avg_pool2d,
    global_avg_pool,
    linear,
    max_pool2d,
)
from .rng import stream


def finite_difference(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_gradients(forward, leaves: dict[str, Var], *,
                    eps: float = 1e-5) -> dict[str, float]:
    """Compare backward() gradients of scalar forward() against central
    differences for every named leaf. Returns per-leaf relative errors."""
    for v in leaves.values():
        v.zero_grad()
    out = forward()
    out.backward()
    errors = {}
    for name, v in leaves.items():
        analytic = v.grad if v.grad is not None else np.zeros_like(v.data)
        numeric = finite_difference(lambda: float(forward().data), v.data, eps)
        denom = max(np.linalg.norm(numeric), np.linalg.norm(analytic), 1e-12)
        errors[name] = float(np.linalg.norm(analytic - numeric) / denom)
    return errors


def _loss_of(y: Var, proj: np.ndarray) -> Var:
    # random linear functional of the output keeps every entry in play
    flat = y.data.reshape(-1)

    def bw(g: np.ndarray) -> None:
        y.accumulate((float(g) * proj).reshape(y.data.shape))

    return Var(np.asarray(float(flat @ proj)), (y,), bw)


def run_all_layer_checks(seed: int = 0, *, rtol: float = 1e-6,
                         verbose: bool = False) -> list[str]:
    """Finite-difference check of every layer type; returns failed names."""
    rng = stream(seed, "gradcheck")
    failures = []

    def run(name: str, forward, leaves: dict[str, Var]) -> None:
        errs = check_gradients(forward, leaves)
        worst = max(errs.values())
        ok = worst < rtol
        if verbose:
            status = "ok" if ok else "FAIL"
            print(f"  {name:32s} max rel err {worst:.3e}  {status}")
        if not ok:
            failures.append(name)

    def rand_input(shape) -> Var:
        return Var(rng.standard_normal(shape))

    # square / circular / dilated-circular convolutions
    for name, mode, dil in (("conv_square_3x3", Mode.SQUARE, 1),
                            ("conv_circular_3x3", Mode.CIRCULAR, 1),
                            ("conv_circular_5x5_dil2", Mode.CIRCULAR, 2)):
        k = 5 if dil == 2 else 3
        layer = Conv2d(2, 3, k, padding=dil * (k - 1) // 2, dilation=dil,
                       mode=mode, rng=rng, dtype=np.float64)
        x = rand_input((1, 2, 6, 6))
        proj = rng.standard_normal(3 * 6 * 6)
        leaves = {"x": x, "w": layer.weights, "b": layer.bias}
        run(name, lambda l=layer, x=x, p=proj: _loss_of(l(x), p), leaves)

    # separable: depthwise (circular) followed by pointwise
    dw = Conv2d(2, 2, 3, padding=1, mode=Mode.CIRCULAR,
                depthwise=True, bias=False, rng=rng, dtype=np.float64)
    pw = Conv2d(2, 3, 1, bias=False, rng=rng, dtype=np.float64)
    x = rand_input((1, 2, 5, 5))
    proj = rng.standard_normal(3 * 5 * 5)
    run("separable_circular", lambda: _loss_of(pw(dw(x)), proj),
        {"x": x, "w_dw": dw.weights, "w_pw": pw.weights})

    # integrated layer with the branch frozen on each side, and averaged
    # (None): then both branches' weight gradients reach one tensor
    for branch in (Mode.SQUARE, Mode.CIRCULAR, None):
        layer = IntegratedConv(2, 2, 3, padding=1, seed=seed, rng=rng,
                               dtype=np.float64)
        layer.current_choice = branch
        x = rand_input((1, 2, 5, 5))
        proj = rng.standard_normal(2 * 5 * 5)
        run(f"integrated_frozen_{branch.value if branch else 'average'}",
            lambda l=layer, x=x, p=proj: _loss_of(l(x), p),
            {"x": x, "w": layer.weights, "b": layer.bias})

    # pooling
    x = rand_input((2, 2, 6, 6))
    proj = rng.standard_normal(2 * 2 * 6 * 6)
    run("max_pool_3x3", lambda: _loss_of(max_pool2d(x, 3, 1, 1), proj), {"x": x})
    run("avg_pool_3x3", lambda: _loss_of(avg_pool2d(x, 3, 1, 1), proj), {"x": x})

    # linear + relu + affine + global pool
    lin = Linear(4, 3, rng=rng, dtype=np.float64)
    x = rand_input((5, 4))
    proj = rng.standard_normal(5 * 3)
    run("linear", lambda: _loss_of(linear(x, lin.weights, lin.bias), proj),
        {"x": x, "w": lin.weights, "b": lin.bias})

    aff = ChannelAffine(2, dtype=np.float64)
    x = rand_input((2, 2, 4, 4))
    proj = rng.standard_normal(2 * 2 * 4 * 4)
    run("channel_affine", lambda: _loss_of(aff(x), proj),
        {"x": x, "scale": aff.scale, "shift": aff.shift})

    x = rand_input((2, 3, 4, 4))
    proj = rng.standard_normal(2 * 3 * 4 * 4)
    run("relu", lambda: _loss_of(relu(x), proj), {"x": x})

    x = rand_input((2, 3, 4, 4))
    proj = rng.standard_normal(2 * 3)
    run("global_avg_pool", lambda: _loss_of(global_avg_pool(x), proj), {"x": x})

    return failures
