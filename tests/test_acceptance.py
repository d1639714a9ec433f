"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
with its runtime against the stated budget. Numerical tolerances are part of
the checks themselves; runtime budgets are asserted after the checks.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import direct_circular_conv, direct_square_conv
from orbiconv.analysis import verify_delta_identity
from orbiconv.autodiff import Var, softmax_vec
from orbiconv.data import Split, SynthKind, gen_synthetic
from orbiconv.experiments import (
    RobustnessSweep,
    SmallCNN,
    robustness_eval,
)
from orbiconv.geometry import Mode, circular_points
from orbiconv.gradcheck import run_all_layer_checks
from orbiconv.integrated import EvalBranch, IntegratedConv
from orbiconv.nas import (
    Identity,
    PRIMITIVES,
    SearchConfig,
    Zero,
    cell_edges,
    discretize,
    mixed_op_forward,
    search,
)
from orbiconv.train import TrainConfig, evaluate, train
from orbiconv.transform import build_transform, reparameterize, resample_patch

GOLDEN = Path(__file__).parent / "golden" / "ring_vs_cross_k5.csv"


def _criterion(name: str, budget_s: float):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {name} ({time.perf_counter() - t0:.2f}s)")
                raise
            elapsed = time.perf_counter() - t0
            ok = elapsed < budget_s
            print(f"{'PASS' if ok else 'FAIL'} {name} "
                  f"({elapsed:.2f}s, budget {budget_s:g}s)")
            assert ok, f"{name}: {elapsed:.2f}s exceeded {budget_s:g}s budget"
        return wrapper
    return deco


@_criterion("transform-matrix invariants", 1.0)
def test_transform_matrix_invariants():
    for k in (1, 3, 5, 7):
        m = (k - 1) // 2
        for d in (1, 2):
            geo = circular_points(k, d)
            b = build_transform(geo)
            basis_rows = 0
            for i, row in enumerate(b.rows):
                total = sum(v for _, v in row)
                assert abs(total - 1.0) <= 1e-12, (k, d, i)
                assert all(0.0 <= v <= 1.0 for _, v in row), (k, d, i)
                assert 1 <= len(row) <= 4, (k, d, i)
                p = geo.points[i]
                on_grid = (p.x / d == round(p.x / d)
                           and p.y / d == round(p.y / d))
                if on_grid:
                    col = (int(round(m - p.y / d)) * k
                           + int(round(p.x / d + m)))
                    assert row == ((col, 1.0),), (k, d, i)
                    basis_rows += 1
            if k == 3:
                assert basis_rows == 5, d


@_criterion("reparameterized conv == resampled-patch conv", 5.0)
def test_reparameterized_conv_matches_resampled_patch_conv():
    rng = np.random.default_rng(0)
    for k in (1, 3, 5, 7):
        for d in (1, 2):
            b = build_transform(circular_points(k, d))
            size = d * (k - 1) + 3
            for _ in range(50):
                img = rng.standard_normal((size, size))
                w = rng.standard_normal(k * k)
                # route 1: standard conv with the effective kernel B^T w
                out1 = direct_square_conv(img, reparameterize(w, b), k, d)
                # route 2: resample each patch with B, then dot with raw w
                out2 = np.zeros_like(out1)
                for r in range(out2.shape[0]):
                    for c in range(out2.shape[1]):
                        patch = img[r:r + d * k:d, c:c + d * k:d].reshape(-1)
                        out2[r, c] = w @ resample_patch(patch, b)
                assert np.max(np.abs(out1 - out2)) < 1e-12, (k, d)


@_criterion("circular conv == fractional bilinear sampling oracle", 10.0)
def test_circular_conv_matches_bilinear_sampling_oracle():
    rng = np.random.default_rng(1)
    trials = 0
    for k, d in ((1, 1), (3, 1), (5, 1), (7, 1), (3, 2), (5, 2)):
        b = build_transform(circular_points(k, d))
        size = d * (k - 1) + 3
        for _ in range(17):
            img = rng.standard_normal((size, size))
            w = rng.standard_normal(k * k)
            got = direct_square_conv(img, reparameterize(w, b), k, d)
            want = direct_circular_conv(img, w, k, d)
            assert np.max(np.abs(got - want)) < 1e-10, (k, d)
            trials += 1
    assert trials >= 100


@_criterion("output-change identity, three routes", 5.0)
def test_output_change_identity_three_way_agreement():
    rng = np.random.default_rng(2)
    for k in (1, 3, 5, 7):
        for d in (1, 2):
            b = build_transform(circular_points(k, d))
            for _ in range(50):
                img = rng.standard_normal((16, 16))
                wb = rng.standard_normal(k * k)
                wa = wb + 0.1 * rng.standard_normal(k * k)
                v1, v2, v3 = verify_delta_identity(img, wb, wa, b)
                ref = max(abs(v1), abs(v2), abs(v3), 1e-30)
                spread = max(abs(v1 - v2), abs(v1 - v3), abs(v2 - v3)) / ref
                assert spread < 1e-10, (k, d)


@_criterion("finite-difference gradient checks, all layers", 30.0)
def test_gradient_checks_every_layer_type():
    assert run_all_layer_checks(seed=0, rtol=1e-6) == []


@_criterion("geometry ring symmetry and counts", 1.0)
def test_geometry_ring_symmetry_and_counts():
    for k in (1, 3, 5, 7):
        m = (k - 1) // 2
        for d in (1, 2):
            geo = circular_points(k, d)
            counts = {r: 0 for r in range(m + 1)}
            for r in geo.rings:
                counts[r] += 1
            assert counts[0] == 1
            assert all(counts[r] == 8 * r for r in range(1, m + 1))
            assert sum(counts.values()) == k * k
            for ring in range(1, m + 1):
                pts = [p for p, r in zip(geo.points, geo.rings) if r == ring]
                theta = 2.0 * np.pi / (8 * ring)
                ct, st = np.cos(theta), np.sin(theta)
                for p in pts:
                    rx, ry = ct * p.x - st * p.y, st * p.x + ct * p.y
                    nearest = min(np.hypot(q.x - rx, q.y - ry) for q in pts)
                    assert nearest < 1e-12, (k, d, ring)


def _integrated_run(shape: str, p: float, eval_branch: EvalBranch) -> str:
    train_ds = gen_synthetic(SynthKind.ORIENTED_BARS, 8, 12, 0)
    test_ds = gen_synthetic(SynthKind.ORIENTED_BARS, 4, 12, 1, Split.TEST)
    model = SmallCNN(channels=(4, 4), seed=9, shape=shape, p_circular=p,
                     eval_branch=eval_branch)
    report = train(model, train_ds, test_ds,
                   TrainConfig(epochs=3, batch_size=8, seed=2))
    return report.to_csv()


@_criterion("integrated kernel degenerate/stochastic behavior", 120.0)
def test_integrated_kernel_reduction_and_draw_frequency():
    assert _integrated_run("integrated", 0.0, EvalBranch.SQUARE) == \
        _integrated_run("square", 0.0, EvalBranch.SQUARE)
    assert _integrated_run("integrated", 1.0, EvalBranch.CIRCULAR) == \
        _integrated_run("circular", 1.0, EvalBranch.CIRCULAR)
    layer = IntegratedConv(1, 1, 3, p_circular=0.5, seed=0)
    n = 10_000
    hits = sum(layer.draw_for_iteration(i) is Mode.CIRCULAR
               for i in range(n))
    sigma = np.sqrt(n * 0.25)
    assert abs(hits - n * 0.5) <= 4 * sigma


def _softmax(a: np.ndarray) -> np.ndarray:
    e = np.exp(a - a.max())
    return e / e.sum()


def _genotype_oracle(alphas, op_names, num_nodes, cell_type):
    # independent re-derivation of the edge-ranking rule
    from orbiconv.nas import CellGenotype
    edges = cell_edges(num_nodes)
    soft = np.stack([_softmax(row) for row in alphas])
    nonzero = [i for i, n in enumerate(op_names) if n != "zero"]
    nodes = []
    for j in range(2, num_nodes):
        cands = []
        for idx, (i, jj) in enumerate(edges):
            if jj != j:
                continue
            ws = soft[idx, nonzero]
            best = min(range(len(ws)), key=lambda t: (-ws[t], t))
            cands.append((float(ws[best]), i, op_names[nonzero[best]]))
        cands.sort(key=lambda t: (-t[0], t[1]))
        nodes.append([(i, op) for _, i, op in cands[:2]])
    return CellGenotype(cell_type, nodes)


@_criterion("mixed-op softmax / shift invariance / discretization", 30.0)
def test_mixed_op_and_discretization_properties():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.standard_normal(len(PRIMITIVES))
        s = softmax_vec(Var(a)).data
        assert abs(s.sum() - 1.0) <= 1e-12
        assert np.all(s >= 0.0)
    x = Var(rng.standard_normal((1, 2, 4, 4)), requires_grad=False)
    ops = [Identity(1), Zero(1)]
    a = np.array([0.4, -0.2])
    o1 = mixed_op_forward(x, Var(a), ops).data
    o2 = mixed_op_forward(x, Var(a + 7.0), ops).data
    assert np.allclose(o1, o2, atol=1e-12)
    for _ in range(100):
        num_nodes = int(rng.integers(4, 7))
        alphas = rng.standard_normal((len(cell_edges(num_nodes)),
                                      len(PRIMITIVES)))
        got = discretize(alphas, PRIMITIVES, num_nodes, "normal")
        assert got == _genotype_oracle(alphas, PRIMITIVES, num_nodes,
                                       "normal")
        shifted = discretize(alphas + 3.0, PRIMITIVES, num_nodes, "normal")
        assert shifted == got


@_criterion("planted-operation search prefers the circular op", 600.0)
def test_search_recovers_planted_circular_operation():
    op_names = ["sep_conv_5x5", "circ_sep_conv_5x5", "zero"]
    wins = 0
    drops = []
    for seed in range(5):
        tr = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 40, 12, seed)
        va = gen_synthetic(SynthKind.PLANTED_CIRCULAR, 40, 12, seed + 10_000,
                           Split.VAL)
        cfg = SearchConfig(num_nodes=3, num_cells=1, channels=16, epochs=20,
                           batch_size=8, lr_init=0.12, weight_decay=0.0,
                           alpha_lr=0.02, alpha_weight_decay=0.0, seed=seed,
                           op_names=op_names)
        genotypes, report, _ = search(tr, va, cfg)
        top_edge_op = genotypes["normal"].nodes[0][0][1]
        wins += top_edge_op == "circ_sep_conv_5x5"
        drops.append((report.val_loss[0] - report.val_loss[-1])
                     / report.val_loss[0])
    assert wins >= 4, f"circular op won only {wins}/5 seeds ({drops})"
    assert drops[0] >= 0.30, f"seed-0 val loss drop {drops[0]:.3f} < 30%"


@_criterion("kernel-shape trend: clean error and rotation gap", 600.0)
def test_kernel_shape_error_and_rotation_trend_matches_golden():
    lines = ["shape,K,seed,clean_err,rot10_err,rot70_err"]
    agg = {}
    for shape in ("square", "circle"):
        cols = []
        for seed in range(5):
            tr = gen_synthetic(SynthKind.RING_VS_CROSS, 40, 16, seed)
            te = gen_synthetic(SynthKind.RING_VS_CROSS, 40, 16, seed + 10_000)
            model = SmallCNN(kernel_size=5, shape=shape, seed=seed)
            train(model, tr, te, TrainConfig(epochs=12, batch_size=16,
                                             lr_init=0.055, seed=seed))
            clean = evaluate(model, te)
            rows = robustness_eval(model, te, RobustnessSweep(
                angle_ranges=[10, 70], trials=3, seed=0))
            m = {r["a"]: r["err"] for r in rows if r["trial"] == "mean"}
            cols.append((clean, m[10], m[70]))
            lines.append(f"{shape},5,{seed},{clean!r},{m[10]!r},{m[70]!r}")
        agg[shape] = np.mean(cols, axis=0)
        c, a10, a70 = agg[shape]
        lines.append(f"{shape},5,mean,{float(c)!r},{float(a10)!r},"
                     f"{float(a70)!r}")
    gap_clean = float(agg["square"][0] - agg["circle"][0])
    gap10 = float(agg["square"][1] - agg["circle"][1])
    gap70 = float(agg["square"][2] - agg["circle"][2])
    lines.append(f"gap,5,mean,{gap_clean!r},{gap10!r},{gap70!r}")
    text = "\n".join(lines) + "\n"
    assert agg["circle"][0] <= agg["square"][0], \
        f"circular mean err {agg['circle'][0]:.4f} > square {agg['square'][0]:.4f}"
    assert gap70 > gap10, \
        f"rotation advantage gap70 {gap70:.4f} <= gap10 {gap10:.4f}"
    assert text == GOLDEN.read_text(), "result drifted from the golden CSV"
