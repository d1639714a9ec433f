from dataclasses import fields

import numpy as np
import pytest

from orbiconv import layers
from orbiconv.autodiff import Var, frozen
from orbiconv.data import MAX_BYTES, Dataset, Split, SynthKind, gen_synthetic
from orbiconv.nas import (
    Adam,
    CIRCULAR_OPS,
    CellGenotype,
    Identity,
    PRIMITIVES,
    SearchConfig,
    SearchNetwork,
    Zero,
    cell_edges,
    discretize,
    genotype_to_dot,
    make_op,
    mixed_op_forward,
    search,
)
from orbiconv.rng import stream
from orbiconv.train import SGD, NumericalError, TrainConfig, backprop


def _const(arr):
    return Var(np.asarray(arr, dtype=np.float64), requires_grad=False)


def _softmax(a):
    e = np.exp(a - a.max())
    return e / e.sum()


def test_float32_supernet_forward_stays_float32(monkeypatch):
    """The float64 alphas mix float32 ops in float32: a float32 supernet
    over all primitives, with a reduction cell, gives float32 logits, and
    every conv it runs reads a float32 input."""
    seen, original = [], layers.conv2d

    def conv2d(x, *args, **kwargs):
        seen.append(x.data.dtype)
        return original(x, *args, **kwargs)

    monkeypatch.setattr(layers, "conv2d", conv2d)
    net = SearchNetwork(SearchConfig(num_nodes=4, num_cells=2, channels=8,
                                     op_names=list(PRIMITIVES)), 1, 2)
    x = np.random.default_rng(0).random((2, 1, 16, 16), dtype=np.float32)
    logits = net(Var(x, requires_grad=False))
    assert logits.data.dtype == np.float32
    # the stem, and per cell 5 edges of 6 sep convs (2 convs each) and the
    # combine conv
    assert len(seen) == 123
    assert set(seen) == {np.dtype(np.float32)}


def test_primitive_roster():
    # alpha columns and stored genotypes index this order
    assert PRIMITIVES == [
        "sep_conv_3x3", "sep_conv_5x5", "dil_conv_3x3", "dil_conv_5x5",
        "circ_sep_conv_5x5", "circ_dil_conv_5x5", "max_pool_3x3",
        "avg_pool_3x3", "identity", "zero"]
    assert CIRCULAR_OPS == {"circ_sep_conv_5x5", "circ_dil_conv_5x5"}
    # an op runs a circular B exactly when it is in CIRCULAR_OPS
    for name in PRIMITIVES:
        op = make_op(name, 2, 1, stream(0, f"op/{name}"))
        depthwise = getattr(op, "depthwise", None)
        circular = depthwise is not None and depthwise.transform is not None
        assert circular == (name in CIRCULAR_OPS), name
    with pytest.raises(ValueError, match="unknown operation"):
        make_op("conv_7x1_1x7", 2, 1, stream(0, "op"))


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_op_preserves_channels_and_size(name):
    op = make_op(name, 4, 1, stream(0, f"op/{name}"))
    x = _const(np.random.default_rng(0).standard_normal((2, 4, 8, 8)))
    assert op(x).data.shape == (2, 4, 8, 8)


@pytest.mark.parametrize("name", PRIMITIVES)
def test_every_op_stride_two_halves_size(name):
    op = make_op(name, 4, 2, stream(0, f"op/{name}"))
    x = _const(np.random.default_rng(1).standard_normal((1, 4, 8, 8)))
    assert op(x).data.shape == (1, 4, 4, 4)


def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        make_op("conv_9x9", 4, 1, None)


def test_identity_and_zero_ops():
    x = _const(np.arange(16.0).reshape(1, 1, 4, 4))
    assert Identity(1)(x) is x
    assert np.array_equal(Zero(1)(x).data, np.zeros((1, 1, 4, 4)))
    assert np.array_equal(Identity(2)(x).data, x.data[:, :, ::2, ::2])


def test_zero_op_keeps_no_parent():
    """The zero op's output is a constant: no backward reaches x through it,
    so it keeps no parent and needs no gradient buffer."""
    x = Var(np.ones((2, 3, 4, 4)))
    for stride in (1, 2):
        out = Zero(stride)(x)
        assert out.parents == () and not out.requires_grad


def test_mixed_op_identity_zero_balanced():
    # equal logits over {identity, zero} pass x/2 through
    x = _const(np.random.default_rng(2).standard_normal((1, 3, 4, 4)))
    out = mixed_op_forward(x, Var(np.zeros(2)), [Identity(1), Zero(1)])
    assert np.allclose(out.data, 0.5 * x.data, atol=1e-12)


def test_mixed_op_saturated_alpha_selects_one_branch():
    x = _const(np.random.default_rng(3).standard_normal((1, 3, 4, 4)))
    alpha = Var(np.array([50.0, 0.0]))
    out = mixed_op_forward(x, alpha, [Identity(1), Zero(1)])
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_mixed_op_matches_manual_softmax_combination():
    rng = np.random.default_rng(4)
    ops = [make_op(n, 3, 1, stream(0, f"mix/{n}"))
           for n in ("sep_conv_3x3", "identity", "avg_pool_3x3")]
    x = _const(rng.standard_normal((1, 3, 6, 6)))
    a = rng.standard_normal(3)
    out = mixed_op_forward(x, Var(a), ops)
    w = _softmax(a)
    manual = sum(wi * op(x).data for wi, op in zip(w, ops))
    assert np.allclose(out.data, manual, atol=1e-12)


def test_mixed_op_alpha_shift_invariance():
    x = _const(np.random.default_rng(5).standard_normal((1, 2, 4, 4)))
    ops = [Identity(1), Zero(1)]
    a = np.array([0.3, -0.7])
    o1 = mixed_op_forward(x, Var(a), ops).data
    o2 = mixed_op_forward(x, Var(a + 10.0), ops).data
    assert np.allclose(o1, o2, atol=1e-12)


def test_mixed_op_alpha_gradient_flows():
    x = _const(np.random.default_rng(6).standard_normal((1, 2, 4, 4)))
    alpha = Var(np.zeros(2))
    out = mixed_op_forward(x, alpha, [Identity(1), Zero(1)])
    out.backward(np.ones_like(out.data))
    assert alpha.grad is not None
    # increasing the identity logit increases the output sum
    assert alpha.grad[0] > 0 > alpha.grad[1]
    assert alpha.grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_mixed_op_length_mismatch():
    with pytest.raises(ValueError):
        mixed_op_forward(_const(np.zeros((1, 1, 2, 2))), Var(np.zeros(3)),
                         [Identity(1), Zero(1)])


def test_cell_edges_ordering():
    assert cell_edges(4) == [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert len(cell_edges(5)) == 2 + 3 + 4


def _brute_force_genotype(alphas, op_names, num_nodes, cell_type):
    edges = cell_edges(num_nodes)
    soft = np.stack([_softmax(row) for row in alphas])
    nonzero = [k for k, n in enumerate(op_names) if n != "zero"]
    nodes = []
    for j in range(2, num_nodes):
        cands = []
        for idx, (i, jj) in enumerate(edges):
            if jj != j:
                continue
            ws = soft[idx, nonzero]
            best = min(range(len(ws)), key=lambda k: (-ws[k], k))
            cands.append((float(ws[best]), i, op_names[nonzero[best]]))
        cands.sort(key=lambda t: (-t[0], t[1]))
        nodes.append([(i, op) for _, i, op in cands[:2]])
    return CellGenotype(cell_type, nodes)


def test_discretize_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for trial in range(120):
        num_nodes = int(rng.integers(4, 7))
        alphas = rng.standard_normal((len(cell_edges(num_nodes)),
                                      len(PRIMITIVES)))
        got = discretize(alphas, PRIMITIVES, num_nodes, "normal")
        want = _brute_force_genotype(alphas, PRIMITIVES, num_nodes, "normal")
        assert got == want, f"trial {trial}"


def test_discretize_never_selects_zero():
    alphas = np.full((len(cell_edges(5)), len(PRIMITIVES)), -5.0)
    alphas[:, PRIMITIVES.index("zero")] = 10.0
    g = discretize(alphas, PRIMITIVES, 5, "normal")
    assert all(op != "zero" for node in g.nodes for _, op in node)


def test_discretize_tie_breaks_lowest_op_then_lowest_source():
    alphas = np.zeros((len(cell_edges(4)), len(PRIMITIVES)))
    g = discretize(alphas, PRIMITIVES, 4, "normal")
    # all weights equal: argmax picks op index 0, edge sort picks sources 0, 1
    assert g.nodes[0] == [(0, PRIMITIVES[0]), (1, PRIMITIVES[0])]
    assert g.nodes[1] == [(0, PRIMITIVES[0]), (1, PRIMITIVES[0])]


def test_discretize_shape_mismatch():
    with pytest.raises(ValueError):
        discretize(np.zeros((3, 10)), PRIMITIVES, 5, "normal")


def test_genotype_json_round_trip():
    g = CellGenotype("normal", [[(0, "sep_conv_3x3"), (1, "identity")],
                                [(2, "circ_sep_conv_5x5"), (0, "max_pool_3x3")]])
    assert CellGenotype.from_json(g.to_json()) == g


def test_genotype_dot_rendering():
    g = CellGenotype("reduction", [[(0, "circ_dil_conv_5x5"), (1, "identity")]])
    dot = genotype_to_dot(g)
    assert dot.startswith("digraph cell_reduction {")
    assert '"c_{k-2}" -> "n0" [label="circ_dil_conv_5x5", color=red' in dot
    assert '"c_{k-1}" -> "n0" [label="identity"];' in dot
    assert '"n0" -> "out";' in dot
    assert genotype_to_dot(g) == dot  # deterministic


def test_network_forward_shapes_and_param_split():
    cfg = SearchConfig(num_nodes=4, num_cells=2, channels=4, epochs=1)
    net = SearchNetwork(cfg, 1, 2)
    x = _const(np.random.default_rng(8).standard_normal((2, 1, 12, 12)))
    out = net(x)
    assert out.data.shape == (2, 2)
    arch = net.arch_params()
    assert len(arch) == 2 * len(cell_edges(4))
    weights = net.params()
    ids = {id(p) for p in weights}
    assert all(id(a) not in ids for a in arch)


@pytest.mark.parametrize("num_cells", [1, 2, 3, 4])
@pytest.mark.parametrize("size", [9, 8])
def test_supernet_cells_read_inputs_of_one_size(num_cells, size):
    """Only the last cell reduces, so the two inputs of every cell have one
    size and each node sums its edges as they are, at an odd and an even
    size: a forward and backward of any depth runs, and every weight and
    every alpha of a cell type that ran gets a gradient of its shape."""
    net = SearchNetwork(SearchConfig(num_nodes=4, num_cells=num_cells,
                                     channels=2, op_names=list(PRIMITIVES)),
                        1, 2)
    x = np.random.default_rng(0).random((2, 1, size, size), dtype=np.float32)
    logits = net(Var(x, requires_grad=False))
    assert logits.data.shape == (2, 2)
    layers.softmax_cross_entropy(logits, np.array([0, 1])).backward()
    alphas = net.alphas_normal + (net.alphas_reduce if num_cells > 1 else [])
    assert all(p.grad is not None and p.grad.shape == p.data.shape
               for p in net.params() + alphas)


def test_reduction_cell_halves_spatial_size():
    from orbiconv.nas import SearchCell
    cell = SearchCell(4, 4, True, PRIMITIVES, 0, 0)
    s = _const(np.random.default_rng(9).standard_normal((1, 4, 8, 8)))
    alphas = [Var(np.zeros(len(PRIMITIVES))) for _ in cell_edges(4)]
    out = cell.forward_cell(s, s, alphas)
    assert out.data.shape == (1, 4, 4, 4)


def _tiny_splits():
    tr = gen_synthetic(SynthKind.ORIENTED_BARS, 8, 12, 0)
    va = gen_synthetic(SynthKind.ORIENTED_BARS, 8, 12, 1, Split.VAL)
    return tr, va


def test_search_runs_and_is_deterministic():
    cfg = SearchConfig(num_nodes=4, num_cells=1, channels=4, epochs=2,
                       batch_size=8, seed=0)
    tr, va = _tiny_splits()
    g1, r1, _ = search(tr, va, cfg)
    g2, r2, _ = search(tr, va, cfg)
    assert g1["normal"] == g2["normal"]
    assert r1.train_loss == r2.train_loss
    assert r1.val_loss == r2.val_loss
    assert len(r1.alpha_normal_trace) == 2


def test_search_moves_alphas():
    cfg = SearchConfig(num_nodes=4, num_cells=1, channels=4, epochs=2,
                       batch_size=8, seed=1)
    tr, va = _tiny_splits()
    _, report, net = search(tr, va, cfg)
    first = report.alpha_normal_trace[0]
    last = report.alpha_normal_trace[-1]
    assert not np.allclose(first, last)


def test_search_with_circular_ops_removed():
    names = [n for n in PRIMITIVES if n not in CIRCULAR_OPS]
    cfg = SearchConfig(num_nodes=4, num_cells=1, channels=4, epochs=1,
                       batch_size=8, seed=2, op_names=names)
    tr, va = _tiny_splits()
    genotypes, _, _ = search(tr, va, cfg)
    ops = {op for g in genotypes.values() for node in g.nodes for _, op in node}
    assert ops.isdisjoint(CIRCULAR_OPS)


def test_overflowing_last_step_raises_numerical_error(monkeypatch):
    """A search ends on an alpha step, after which no loss is checked: an
    alpha step that overflows there raises NumericalError."""
    step = Adam.step

    def overflowing(self):
        step(self)
        self.params[0].data = np.full_like(self.params[0].data, np.inf)

    monkeypatch.setattr(Adam, "step", overflowing)
    tr, va = _tiny_splits()
    cfg = SearchConfig(num_nodes=3, num_cells=1, channels=4, epochs=1,
                       batch_size=len(tr), seed=0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="after the last step"):
            search(tr, va, cfg)


@pytest.mark.parametrize("where", ["train", "val"])
def test_search_sizes_its_classifier_from_both_splits(where):
    """A third class in either split gives a 3-output classifier: the
    weight phase reads the train labels and the alpha phase the val ones."""
    tr, va = _tiny_splits()
    ds = tr if where == "train" else va
    ds.labels[::3] = 2
    cfg = SearchConfig(num_nodes=3, num_cells=1, channels=4, epochs=1,
                       batch_size=8, seed=0)
    genotypes, report, net = search(tr, va, cfg)
    assert net.classifier.weights.data.shape == (3, 4)
    assert np.isfinite(report.val_loss).all() and set(genotypes) == {
        "normal", "reduction"}


def test_search_sizes_its_stem_from_the_train_split():
    tr, va = (Dataset(np.repeat(d.images, 3, axis=1), d.labels, d.split_tag)
              for d in _tiny_splits())
    cfg = SearchConfig(num_nodes=3, num_cells=1, channels=4, epochs=1,
                       batch_size=8, seed=0)
    _, report, net = search(tr, va, cfg)
    assert net.stem.weights.data.shape == (4, 3, 3, 3)
    assert np.isfinite(report.val_loss).all()


def test_search_config_is_a_validated_train_config():
    assert issubclass(SearchConfig, TrainConfig)
    redeclared = set(SearchConfig.__annotations__) & {
        f.name for f in fields(TrainConfig)}
    assert redeclared == {"epochs", "weight_decay"}
    cfg = SearchConfig()
    assert (cfg.epochs, cfg.weight_decay, cfg.momentum) == (20, 3e-4, 0.9)
    with pytest.raises(ValueError, match="lr_init must be positive"):
        SearchConfig(lr_init=0.0)
    with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
        SearchConfig(momentum=1.0)


@pytest.mark.parametrize("op_names, message", [
    (["zero"], "op_names needs an op other than zero"),
    ([], "op_names needs an op other than zero"),
    (["identity", "identity"], "op_names repeats an op"),
    (["identity", "conv_7x7"], "op_names has unknown ops"),
], ids=["only-zero", "empty", "repeated", "unknown"])
def test_search_config_rejects_a_bad_op_list(op_names, message):
    """An op list that discretize cannot pick from, that gives two alpha
    columns to one op or that names no primitive is rejected, naming
    `op_names`, before any search runs. `["zero"]` used to run the whole
    search and then fail in numpy's argmax of an empty sequence."""
    with pytest.raises(ValueError, match=f"^{message}"):
        SearchConfig(op_names=op_names)


@pytest.mark.parametrize("num_nodes, num_cells, op_names", [
    (3, 1, ["sep_conv_5x5", "circ_sep_conv_5x5", "zero"]),
    (5, 4, list(PRIMITIVES)), (4, 2, ["max_pool_3x3", "identity"])])
def test_search_config_bounds_the_supernet_weights(num_nodes, num_cells,
                                                   op_names):
    """`channels` is bounded by the supernet's C x C weights, which a
    built supernet holds: their float32 bytes at the largest accepted
    `channels`, counted in a small build, stay within the bound, and one
    channel more would pass it and is rejected, naming `channels`."""
    opts = {"num_nodes": num_nodes, "num_cells": num_cells,
            "op_names": op_names}
    c = 4
    net = SearchNetwork(SearchConfig(channels=c, **opts), 1, 2)
    squares = sum(p.data.size for p in net.params()
                  if p.data.ndim == 4 and p.data.shape[1] >= c) // c**2
    with pytest.raises(ValueError, match="^channels must be at most") as e:
        SearchConfig(channels=10**6, **opts)
    most = int(str(e.value).split()[5])
    assert SearchConfig(channels=most, **opts).channels == most
    assert (4 * squares * most**2 <= MAX_BYTES
            < 4 * squares * (most + 1)**2)
    with pytest.raises(ValueError, match=f"at most {most} "):
        SearchConfig(channels=most + 1, **opts)


def test_search_config_accepts_the_planted_and_full_op_lists():
    for names in (["sep_conv_5x5", "circ_sep_conv_5x5", "zero"],
                  list(PRIMITIVES), ["zero", "identity"]):
        assert SearchConfig(op_names=names).op_names == names


def test_each_search_phase_differentiates_only_what_it_steps():
    """Over one weight step and one alpha step, freezing the other group
    leaves the stepped group's gradients byte-identical and the frozen
    group's gradients None; `frozen` restores the flags, also on error."""
    cfg = SearchConfig(num_nodes=4, num_cells=2, channels=4, epochs=1,
                       batch_size=4, seed=3)
    tr, va = _tiny_splits()
    idx = np.arange(4)
    grads = {}
    for freeze in (False, True):
        net = SearchNetwork(cfg, 1, 2)
        weights, arch = net.params(), net.arch_params()
        w_opt = SGD(weights, cfg.momentum, cfg.weight_decay)
        opts = (w_opt, Adam(arch, cfg.alpha_lr, cfg.alpha_weight_decay))
        steps = []
        for stepped, other, ds in ((weights, arch, tr), (arch, weights, va)):
            with frozen(other if freeze else []):
                backprop(net, ds, idx, opts, "phase")
                assert all(p.grad is None for p in other) == freeze
            assert all(p.requires_grad for p in weights + arch)
            steps.append([p.grad.tobytes() for p in stepped])
            if stepped is weights:
                w_opt.step(cfg.lr_init)
        grads[freeze] = steps
    assert grads[True] == grads[False]

    bad = Dataset(np.full_like(tr.images, np.nan), tr.labels)
    with pytest.raises(NumericalError, match="alpha phase"):
        with frozen(weights):
            backprop(net, bad, idx, opts, "alpha phase")
    assert all(p.requires_grad for p in weights + arch)
