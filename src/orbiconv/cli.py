"""Command line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .analysis import verify_delta_identity
from .data import SynthKind, gen_synthetic
from .experiments import (
    Config,
    ConfigError,
    RobustnessSweep,
    SmallCNN,
    compare_kernels,
    from_config,
    load_config,
    robustness_csv,
    robustness_eval,
    train_config,
    write_manifest,
)
from .geometry import circular_points, square_points
from .integrated import EvalBranch
from .nas import SearchConfig, genotype_to_dot, search
from .orbt import save_tensor
from .train import NumericalError, TrainConfig, train
from .transform import build_transform


def _cmd_geometry(args) -> int:
    if args.mode == "circular":
        pts = circular_points(args.size, args.dilation)
    else:
        pts = square_points(args.size, args.dilation)
    lines = ["index,x,y,ring"]
    for i, (p, ring) in enumerate(zip(pts.points, pts.rings)):
        lines.append(f"{i},{p.x:.15g},{p.y:.15g},{ring}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_transform(args) -> int:
    b = build_transform(circular_points(args.size, args.dilation))
    lines = ["row,col,value"]
    for i, row in enumerate(b.rows):
        for col, val in row:
            lines.append(f"{i},{col},{val:.17g}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_check_grad(args) -> int:
    from .gradcheck import run_all_layer_checks
    failures = run_all_layer_checks(seed=args.seed, verbose=True)
    if failures:
        print(f"{len(failures)} gradient check(s) failed", file=sys.stderr)
        return 3
    print("all gradient checks passed")
    return 0


def _cmd_gen_data(args) -> int:
    ds = gen_synthetic(SynthKind(args.kind), args.n, args.size, args.seed)
    save_tensor(args.out + ".images.orbt", ds.images)
    save_tensor(args.out + ".labels.orbt", ds.labels)
    print(f"wrote {len(ds)} samples to {args.out}.{{images,labels}}.orbt")
    return 0


def _build_model_and_data(cfg: Config, seed: int):
    kind = cfg.value("data.kind", SynthKind, SynthKind.RING_VS_CROSS)
    n_per_class = cfg.value("data.n_per_class", int, 40)
    size = cfg.value("data.size", int, 16)
    train_ds = gen_synthetic(kind, n_per_class, size, seed)
    test_ds = gen_synthetic(kind, n_per_class, size, seed + 10_000)
    model = SmallCNN(
        kernel_size=cfg.value("model.kernel_size", int, 3),
        shape=cfg.get("model.shape", "square"),
        seed=seed,
        num_classes=train_ds.num_classes,
        p_circular=cfg.value("integrated.p_circular", float, 0.5),
        eval_branch=cfg.value("integrated.eval_branch", EvalBranch,
                              EvalBranch.CIRCULAR),
    )
    return model, train_ds, test_ds


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg.get("out.dir", ".")
    tcfg = train_config(cfg)
    model, train_ds, test_ds = _build_model_and_data(cfg, tcfg.seed)
    cfg.reject_unread()
    os.makedirs(out_dir, exist_ok=True)
    report = train(model, train_ds, test_ds, tcfg)
    path = os.path.join(out_dir, "train_report.csv")
    _write(path, report.to_csv())
    write_manifest(out_dir, cfg, tcfg.seed, [path])
    print(f"final test error: {report.test_err[-1]:.4f}")
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg.get("out.dir", ".")
    csv_text, svg_text = compare_kernels(cfg)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "compare.csv")
    svg_path = os.path.join(out_dir, "compare.svg")
    _write(csv_path, csv_text)
    _write(svg_path, svg_text)
    seed = cfg.value("train.seed", int, TrainConfig.seed)
    write_manifest(out_dir, cfg, seed, [csv_path, svg_path])
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _cmd_robustness(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg.get("out.dir", ".")
    tcfg = train_config(cfg)
    model, train_ds, test_ds = _build_model_and_data(cfg, tcfg.seed)
    sweep = from_config(RobustnessSweep, cfg, "robustness",
                        ("mode", "trials", "seed"))
    sweep = replace(sweep, angle_ranges=cfg.value(
        "robustness.angles", int, sweep.angle_ranges))
    cfg.reject_unread()
    os.makedirs(out_dir, exist_ok=True)
    report = train(model, train_ds, test_ds, tcfg)
    rows = robustness_eval(model, test_ds, sweep)
    path = os.path.join(out_dir, "robustness.csv")
    _write(path, robustness_csv(rows))
    write_manifest(out_dir, cfg, sweep.seed, [path])
    print(f"wrote {path} (final train err trace: {report.test_err[-1]:.4f})")
    return 0


def _cmd_search(args) -> int:
    cfg = load_config(args.config)
    scfg = from_config(SearchConfig, cfg, "search", (
        "num_nodes", "num_cells", "channels", "epochs", "batch_size",
        "lr_init", "weight_decay", "alpha_lr", "alpha_weight_decay", "seed"))
    if scfg.epochs < 1:
        raise ConfigError("search.epochs must be at least 1")
    kind = cfg.value("data.kind", SynthKind, SynthKind.PLANTED_CIRCULAR)
    n_per_class = cfg.value("data.n_per_class", int, 40)
    size = cfg.value("data.size", int, 16)
    cfg.reject_unread()
    train_ds = gen_synthetic(kind, n_per_class, size, scfg.seed)
    val_ds = gen_synthetic(kind, n_per_class, size, scfg.seed + 10_000)
    genotypes, report, _net = search(train_ds, val_ds, scfg)
    payload = "{\n" + ",\n".join(
        f'"{name}": {g.to_json()}' for name, g in genotypes.items()) + "\n}\n"
    _write(args.out, payload)
    if args.dot:
        dot = "".join(genotype_to_dot(g) for g in genotypes.values())
        _write(args.dot, dot)
    print(f"val loss: {report.val_loss[0]:.4f} -> {report.val_loss[-1]:.4f}")
    return 0


def _cmd_identity_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for k in (1, 3, 5, 7):
        for d in (1, 2):
            b = build_transform(circular_points(k, d))
            for _ in range(args.trials):
                img = rng.standard_normal((16, 16))
                wb = rng.standard_normal(k * k)
                wa = wb + 0.1 * rng.standard_normal(k * k)
                v1, v2, v3 = verify_delta_identity(img, wb, wa, b)
                ref = max(abs(v1), abs(v2), abs(v3), 1e-30)
                rel = max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)) / ref
                worst = max(worst, rel)
    print(f"max pairwise relative difference: {worst:.3e}")
    if worst >= 1e-10:
        print("identity check FAILED", file=sys.stderr)
        return 3
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbiconv")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="emit kernel sample points as CSV")
    g.add_argument("--size", type=int, required=True)
    g.add_argument("--mode", choices=["square", "circular"], default="circular")
    g.add_argument("--dilation", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_geometry)

    t = sub.add_parser("transform", help="emit the transformation matrix as CSV")
    t.add_argument("--size", type=int, required=True)
    t.add_argument("--dilation", type=int, default=1)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_transform)

    c = sub.add_parser("check-grad", help="finite-difference checks of all layers")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_check_grad)

    d = sub.add_parser("gen-data", help="generate a synthetic dataset")
    d.add_argument("--kind", choices=[k.value for k in SynthKind],
                   default="ring_vs_cross")
    d.add_argument("--n", type=int, default=40)
    d.add_argument("--size", type=int, default=16)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", required=True)
    d.set_defaults(func=_cmd_gen_data)

    tr = sub.add_parser("train", help="train a small CNN per config")
    tr.add_argument("--config", required=True)
    tr.set_defaults(func=_cmd_train)

    cp = sub.add_parser("compare", help="square vs circle vs integrated runs")
    cp.add_argument("--config", required=True)
    cp.set_defaults(func=_cmd_compare)

    rb = sub.add_parser("robustness", help="rotation/shear robustness sweep")
    rb.add_argument("--config", required=True)
    rb.set_defaults(func=_cmd_robustness)

    se = sub.add_parser("search", help="differentiable architecture search")
    se.add_argument("--config", required=True)
    se.add_argument("--out", required=True)
    se.add_argument("--dot")
    se.set_defaults(func=_cmd_search)

    ic = sub.add_parser("identity-check", help="output-change identity sweeps")
    ic.add_argument("--seed", type=int, default=0)
    ic.add_argument("--trials", type=int, default=20)
    ic.set_defaults(func=_cmd_identity_check)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
