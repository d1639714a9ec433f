"""Command line entry point.

Exit codes: 0 success, 2 configuration/usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .analysis import verify_delta_identity
from .data import SynthKind, check_image_size, check_split_size, gen_synthetic
from .experiments import (
    DATA_KEYS,
    SEARCH_DATA,
    ConfigError,
    RobustnessSweep,
    compare_config,
    compare_kernels,
    from_config,
    load_config,
    output_dir,
    robustness_csv,
    robustness_eval,
    train_setup,
    write_manifest,
)
from .geometry import check_kernel_size, circular_points, square_points
from .nas import SearchConfig, genotype_to_dot, search
from .orbt import save_tensor
from .train import NumericalError, train
from .transform import circular_transform


def _cmd_geometry(args) -> int:
    points = circular_points if args.mode == "circular" else square_points
    pts = points(args.size, args.dilation)
    lines = ["index,x,y,ring"]
    for i, (p, ring) in enumerate(zip(pts.points, pts.rings)):
        lines.append(f"{i},{p.x:.15g},{p.y:.15g},{ring}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_transform(args) -> int:
    b = circular_transform(args.size, args.dilation)
    lines = ["row,col,value"] + [f"{i},{col},{val:.17g}"
                                 for i, col, val in zip(*b.nonzeros)]
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


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    setup = train_setup(cfg)
    out_dir = output_dir(cfg)
    model, train_ds, test_ds = setup.build()
    os.makedirs(out_dir, exist_ok=True)
    report = train(model, train_ds, test_ds, setup.train)
    path = os.path.join(out_dir, "train_report.csv")
    _write(path, report.to_csv())
    write_manifest(out_dir, cfg, setup.train.seed, [path])
    print(f"final test error: {report.test_err[-1]:.4f}")
    return 0


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    ccfg = compare_config(cfg)
    out_dir = output_dir(cfg)
    paths = [os.path.join(out_dir, f"compare.{ext}") for ext in ("csv", "svg")]
    texts = compare_kernels(ccfg)
    os.makedirs(out_dir, exist_ok=True)
    for path, text in zip(paths, texts):
        _write(path, text)
    write_manifest(out_dir, cfg, ccfg.seeds, paths)
    print(f"wrote {paths[0]} and {paths[1]}")
    return 0


def _cmd_robustness(args) -> int:
    cfg = load_config(args.config)
    setup = train_setup(cfg)
    sweep = from_config(RobustnessSweep(), cfg, "robustness",
                        ("angle_ranges", "mode", "trials", "seed"),
                        {"angle_ranges": "angles"})
    out_dir = output_dir(cfg)
    model, train_ds, test_ds = setup.build()
    os.makedirs(out_dir, exist_ok=True)
    report = train(model, train_ds, test_ds, setup.train)
    rows = robustness_eval(model, test_ds, sweep)
    path = os.path.join(out_dir, "robustness.csv")
    _write(path, robustness_csv(rows))
    seeds = {"train": setup.train.seed, "sweep": sweep.seed}
    write_manifest(out_dir, cfg, seeds, [path])
    print(f"wrote {path} (final train err trace: {report.test_err[-1]:.4f})")
    return 0


def _cmd_search(args) -> int:
    cfg = load_config(args.config)
    scfg = from_config(SearchConfig(), cfg, "search", (
        "num_nodes", "num_cells", "channels", "epochs", "batch_size",
        "lr_init", "weight_decay", "alpha_lr", "alpha_weight_decay", "seed"))
    data = from_config(SEARCH_DATA, cfg, "data", DATA_KEYS)
    cfg.reject_unread()
    for path in filter(None, (args.out, args.dot)):
        if os.path.isdir(path) or not os.access(os.path.dirname(path) or ".",
                                                os.W_OK):
            raise OSError(f"{path} is a directory or not in a writable one")
    train_ds, val_ds = data.splits(scfg.seed)
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
            b = circular_transform(k, d)
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


# argparse types; argparse names the flag when one raises
def nonempty(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _flag_rule(check, *values) -> None:
    """Run the package rule `check` on flag values. Its ValueError, less
    the field it starts with (argparse names the flag), is a usage error."""
    try:
        check(*values)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e).partition(" ")[2]) from None


def image_size(text: str) -> int:
    _flag_rule(check_image_size, int(text))
    return int(text)


def kernel_size(text: str) -> int:
    _flag_rule(check_kernel_size, int(text))
    return int(text)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orbiconv")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="emit kernel sample points as CSV")
    g.add_argument("--size", type=kernel_size, required=True)
    g.add_argument("--mode", choices=["square", "circular"], default="circular")
    g.add_argument("--dilation", type=positive, default=1)
    g.add_argument("--out", type=nonempty, required=True)
    g.set_defaults(func=_cmd_geometry)

    t = sub.add_parser("transform", help="emit the transformation matrix as CSV")
    t.add_argument("--size", type=kernel_size, required=True)
    t.add_argument("--dilation", type=positive, default=1)
    t.add_argument("--out", type=nonempty, required=True)
    t.set_defaults(func=_cmd_transform)

    c = sub.add_parser("check-grad", help="finite-difference checks of all layers")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_check_grad)

    d = sub.add_parser("gen-data", help="generate a synthetic dataset")
    d.add_argument("--kind", choices=[k.value for k in SynthKind],
                   default="ring_vs_cross")
    d.add_argument("--n", type=positive, default=40)
    d.add_argument("--size", type=image_size, default=16)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out", type=nonempty, required=True)
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
    se.add_argument("--out", type=nonempty, required=True)
    se.add_argument("--dot", type=nonempty)
    se.set_defaults(func=_cmd_search)

    ic = sub.add_parser("identity-check", help="output-change identity sweeps")
    ic.add_argument("--seed", type=int, default=0)
    ic.add_argument("--trials", type=positive, default=20)
    ic.set_defaults(func=_cmd_identity_check)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-data":  # --n's bound depends on --size
        try:
            _flag_rule(check_split_size, args.n, args.size)
        except argparse.ArgumentTypeError as e:
            parser.error(f"argument --n: {e}")
    try:
        return args.func(args)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
