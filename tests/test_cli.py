import json
from pathlib import Path

import numpy as np
import pytest

from orbiconv import cli, experiments, layers
from orbiconv.cli import main
from orbiconv.orbt import load_tensor


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert capsys.readouterr().out.strip()


def test_geometry_csv(tmp_path):
    out = tmp_path / "geo.csv"
    assert main(["geometry", "--size", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,x,y,ring"
    assert len(lines) == 10
    # center row
    assert lines[5].startswith("4,0,0,0")


def test_geometry_bad_size(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["geometry", "--size", "4", "--out", str(tmp_path / "x.csv")])
    assert e.value.code == 2


def test_transform_csv_rows_sum_to_one(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["transform", "--size", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "row,col,value"
    sums = np.zeros(25)
    for line in lines[1:]:
        r, _, v = line.split(",")
        sums[int(r)] += float(v)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_check_grad(capsys):
    assert main(["check-grad", "--seed", "0"]) == 0
    assert "all gradient checks passed" in capsys.readouterr().out


def test_gen_data_writes_orbt(tmp_path):
    prefix = str(tmp_path / "ds")
    assert main(["gen-data", "--kind", "oriented_bars", "--n", "3",
                 "--size", "10", "--seed", "1", "--out", prefix]) == 0
    images = load_tensor(prefix + ".images.orbt")
    labels = load_tensor(prefix + ".labels.orbt")
    assert images.shape == (6, 1, 10, 10)
    assert labels.shape == (6,)


def test_train_command(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "data.kind = oriented_bars\n"
        "data.n_per_class = 6\n"
        "data.size = 12\n"
        "train.epochs = 2\n"
        "train.batch_size = 8\n"
        f"out.dir = {tmp_path}\n")
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "train_report.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "train_report.csv" in manifest["outputs"]
    assert "final test error" in capsys.readouterr().out


def test_train_missing_config_exits_2():
    assert main(["train", "--config", "/nonexistent.cfg"]) == 2


@pytest.mark.parametrize("command", ["train", "compare", "robustness",
                                     "search"])
def test_config_of_random_bytes_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "random.cfg"
    cfg.write_bytes(np.random.default_rng(0).bytes(512))
    argv = [command, "--config", str(cfg)]
    if command == "search":
        argv += ["--out", str(tmp_path / "genotype.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config")
    assert "Traceback" not in err and list(tmp_path.iterdir()) == [cfg]


def test_train_bad_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("train.lr_init = 0\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_compare_command(tmp_path):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(
        "compare.dataset = oriented_bars\n"
        "compare.n_per_class = 4\n"
        "compare.size = 12\n"
        "compare.shapes = square,circle\n"
        "compare.kernel_sizes = 3\n"
        "compare.seeds = 0\n"
        "train.epochs = 1\n"
        "train.batch_size = 8\n"
        f"out.dir = {tmp_path}\n")
    assert main(["compare", "--config", str(cfg)]) == 0
    assert (tmp_path / "compare.csv").exists()
    assert (tmp_path / "compare.svg").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == [0]


def test_robustness_command(tmp_path):
    cfg = tmp_path / "rob.cfg"
    cfg.write_text(
        "data.kind = oriented_bars\n"
        "data.n_per_class = 4\n"
        "data.size = 12\n"
        "train.epochs = 1\n"
        "train.batch_size = 8\n"
        "robustness.angles = 15,45\n"
        "robustness.trials = 1\n"
        f"out.dir = {tmp_path}\n")
    assert main(["robustness", "--config", str(cfg)]) == 0
    text = (tmp_path / "robustness.csv").read_text()
    assert text.splitlines()[0] == "mode,a,trial,err"
    assert any(line.startswith("rotate,45,") for line in text.splitlines())


def test_robustness_manifest_names_both_seeds(tmp_path):
    cfg = tmp_path / "rob.cfg"
    cfg.write_text(
        "data.kind = oriented_bars\n"
        "data.n_per_class = 4\n"
        "data.size = 12\n"
        "train.epochs = 1\n"
        "train.batch_size = 8\n"
        "train.seed = 7\n"
        "robustness.angles = 15\n"
        "robustness.trials = 1\n"
        f"out.dir = {tmp_path}\n")
    assert main(["robustness", "--config", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == {"train": 7, "sweep": 0}


def test_search_command(tmp_path):
    cfg = tmp_path / "search.cfg"
    cfg.write_text(
        "data.kind = oriented_bars\n"
        "data.n_per_class = 6\n"
        "data.size = 12\n"
        "search.num_nodes = 4\n"
        "search.num_cells = 1\n"
        "search.channels = 4\n"
        "search.epochs = 1\n"
        "search.batch_size = 8\n")
    out = tmp_path / "genotype.json"
    dot = tmp_path / "genotype.dot"
    assert main(["search", "--config", str(cfg), "--out", str(out),
                 "--dot", str(dot)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"normal", "reduction"}
    assert dot.read_text().startswith("digraph")


def test_identity_check(capsys):
    assert main(["identity-check", "--trials", "5"]) == 0
    assert "relative difference" in capsys.readouterr().out


def test_identity_check_takes_any_seed():
    """`--seed` seeds a named stream as every other command's seed does,
    so a negative seed runs."""
    assert main(["identity-check", "--seed", "-1", "--trials", "1"]) == 0


@pytest.mark.parametrize("line, named", [
    ("train.epoch = 3", "train.epoch"),
    ("model.shape = cirlce", "cirlce"),
    ("train.epochs = ten", "train.epochs"),
    ("train.epochs = 0", "train.epochs"),
    ("data.kind = foo", "data.kind"),
    ("train.seed = 1\ntrain.seed = 2", "train.seed"),
])
def test_train_rejects_unknown_key_or_shape(tmp_path, capsys, line, named):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(f"{line}\nout.dir = {tmp_path / 'out'}\n")
    assert main(["train", "--config", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("robustness", "train.epochs"),
                                          ("compare", "train.epochs"),
                                          ("search", "search.epochs")])
def test_zero_epochs_exits_2_naming_the_key(tmp_path, capsys, command, key):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text(f"{key} = 0\nout.dir = {tmp_path / 'out'}\n")
    argv = [command, "--config", str(cfg)]
    if command == "search":
        argv += ["--out", str(tmp_path / "out" / "genotype.json")]
    assert main(argv) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, line, named", [
    ("compare", "compare.kernel_sizes = 3,4", "kernel_sizes must be odd"),
    ("train", "train.batch_size = 0", "batch_size must be at least 1"),
    ("search", "search.batch_size = 0", "batch_size must be at least 1"),
    ("search", "search.channels = 0", "channels must be at least 1"),
    ("search", "search.num_nodes = 2", "num_nodes must be at least 3"),
    ("search", "search.num_nodes = 100000",
     "search.num_nodes must be at most 64, got 100000"),
    ("search", "search.num_cells = 0", "num_cells must be at least 1"),
    ("search", "search.num_cells = -2", "num_cells must be at least 1"),
    ("train", "model.kernel_size = 4", "kernel_size must be odd"),
    ("robustness", "model.kernel_size = 33",
     "model.kernel_size must be at most 31, got 33"),
    ("compare", "compare.kernel_sizes = 3,33",
     "compare.kernel_sizes must be at most 31, got 33"),
    ("robustness", "model.shape = hexagon", "unknown kernel shape"),
    ("robustness", "robustness.trials = 0", "trials must be at least 1"),
    ("train", "data.n_per_class = 0", "n_per_class must be at least 1"),
    ("robustness", "data.n_per_class = 0", "n_per_class must be at least 1"),
    ("train", "data.size = 4", "size must be at least 8"),
    ("robustness", "data.size = 4", "size must be at least 8"),
    ("train", "data.size = 100000", "data.size must be at most 256"),
    ("train", "data.n_per_class = 100000000",
     "data.n_per_class must be at most 262144 at size 16"),
    ("compare", "compare.n_per_class = 100000000",
     "compare.n_per_class must be at most 262144 at size 16"),
    ("search", "search.channels = 100000",
     "search.channels must be at most 767 with 4 cells of 5 nodes"),
    ("robustness", "robustness.angles = 95",
     "robustness.angles must be in (0, 90), got 95"),
    ("train", "train.lr_init = nan", "lr_init must be positive and finite"),
    ("search", "search.lr_init = inf", "lr_init must be positive and finite"),
    ("train", "train.warmup_epochs = -3", "warmup_epochs must be at least 0"),
    ("train", "train.weight_decay = -5", "weight_decay must be finite"),
    ("compare", "train.weight_decay = nan", "weight_decay must be finite"),
    ("search", "search.weight_decay = -1", "weight_decay must be finite"),
    ("search", "search.alpha_lr = nan", "alpha_lr must be positive and finite"),
    ("search", "search.alpha_lr = 0", "alpha_lr must be positive and finite"),
    ("search", "search.alpha_weight_decay = -5",
     "alpha_weight_decay must be finite"),
    ("train", "integrated.p_circular = 2", "p_circular must be in [0, 1]"),
    ("robustness", "integrated.p_circular = -0.5",
     "p_circular must be in [0, 1]"),
    ("compare", "integrated.p_circular = nan", "p_circular must be in [0, 1]"),
    ("compare", "compare.shapes = square,square", "shapes repeats an entry"),
    ("compare", "compare.shapes = circle,circular", "shapes repeats an entry"),
    ("compare", "compare.kernel_sizes = 3,5,3",
     "kernel_sizes repeats an entry"),
    ("compare", "compare.seeds = 1,1", "seeds repeats an entry"),
    ("compare", "compare.dataset = foo", "compare.dataset: "),
    ("train", "model.kernel_size = 31\ndata.size = 256\ndata.n_per_class = 8\n"
     "train.epochs = 1", "model.kernel_size: kernel size 31"),
    ("compare", "compare.kernel_sizes = 3,31\ncompare.size = 256\n"
     "compare.n_per_class = 8", "compare.kernel_sizes: kernel size 31"),
    ("search", "search.batch_size = 8192\nsearch.channels = 64\n"
     "data.size = 32\ndata.n_per_class = 8192",
     "search.batch_size: 8192 images of size 32 at 64 channels"),
], ids=["compare-even-kernel", "train-batch-0", "search-batch-0",
        "search-channels-0", "search-nodes-2", "search-nodes-100000",
        "search-cells-0",
        "search-cells-negative", "train-even-kernel",
        "robustness-kernel-33", "compare-kernel-33",
        "robustness-unknown-shape", "robustness-trials-0",
        "train-n-per-class-0", "robustness-n-per-class-0", "train-size-4",
        "robustness-size-4", "train-size-100000",
        "train-n-per-class-100000000", "compare-n-per-class-100000000",
        "search-channels-100000", "robustness-angle-95",
        "train-lr-nan", "search-lr-inf",
        "train-warmup-negative", "train-weight-decay-negative",
        "compare-weight-decay-nan", "search-weight-decay-negative",
        "search-alpha-lr-nan", "search-alpha-lr-0",
        "search-alpha-weight-decay-negative",
        "train-p-circular-2", "robustness-p-circular-negative",
        "compare-p-circular-nan", "compare-repeated-shape",
        "compare-aliased-shape",
        "compare-repeated-kernel-size", "compare-repeated-seed",
        "compare-unknown-dataset", "train-patches-8-gb",
        "compare-patches-8-gb", "search-activations-108-gb"])
def test_bad_value_exits_2_before_any_data(tmp_path, capsys, monkeypatch,
                                           command, line, named):
    """A value out of its field's range exits 2 naming the field, before
    any data is generated or any training or search runs."""
    def must_not_run(*args):
        raise AssertionError("ran before checking the config")

    for module, name in ((cli, "train"), (cli, "search"),
                         (cli, "compare_kernels"),
                         (experiments, "gen_synthetic")):
        monkeypatch.setattr(module, name, must_not_run)
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "out"
    cfg.write_text(f"{line}\n" + ("" if command == "search"
                                   else f"out.dir = {out}\n"))
    argv = [command, "--config", str(cfg)]
    if command == "search":
        argv += ["--out", str(tmp_path / "genotype.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "genotype.json").exists()


@pytest.mark.parametrize("command, line, key", [
    ("compare", "train.seed = 7", "train.seed"),
    ("search", "out.dir = OUT", "out.dir"),
])
def test_key_the_command_does_not_read_exits_2(tmp_path, capsys, command,
                                               line, key):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(line.replace("OUT", str(tmp_path / "out")) + "\n")
    argv = [command, "--config", str(cfg)]
    if command == "search":
        argv += ["--out", str(tmp_path / "genotype.json")]
    assert main(argv) == 2
    assert f"unknown config key(s): {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "robustness"])
def test_out_dir_is_checked_before_any_data(tmp_path, capsys, monkeypatch,
                                            command):
    """An `out.dir` that is a file exits 2 before any data is generated."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before checking out.dir")

    monkeypatch.setattr(experiments, "gen_synthetic", must_not_run)
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"data.n_per_class = 2000\nout.dir = {tmp_path / 'file'}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("cannot write output: ")


@pytest.mark.parametrize("command", ["train", "robustness"])
def test_out_dir_is_made_after_the_data(tmp_path, monkeypatch, command):
    """A data generation that fails leaves no `out.dir` behind: the
    directory is made once the data exist."""
    def fail(*args, **kwargs):
        raise ValueError("no data")

    monkeypatch.setattr(experiments, "gen_synthetic", fail)
    out = tmp_path / "out" / "nested"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"out.dir = {out}\n")
    with pytest.raises(ValueError, match="no data"):
        main([command, "--config", str(cfg)])
    assert not (tmp_path / "out").exists()


def test_internal_fault_is_not_a_config_error(tmp_path, capsys, monkeypatch):
    """A ValueError raised inside training is an internal fault: it
    propagates and is not reported as a config error."""
    def fail(*args, **kwargs):
        raise ValueError("shape mismatch")

    monkeypatch.setattr(layers, "conv2d", fail)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("data.n_per_class = 2\ndata.size = 8\ntrain.epochs = 1\n"
                   f"out.dir = {tmp_path / 'out'}\n")
    with pytest.raises(ValueError, match="shape mismatch"):
        main(["train", "--config", str(cfg)])
    assert "config error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, path", [
    (["geometry", "--size", "3", "--out", "MISSING/x.csv"], "MISSING/x.csv"),
    (["transform", "--size", "3", "--out", "MISSING/b.csv"], "MISSING/b.csv"),
    (["gen-data", "--n", "2", "--out", "MISSING/ds"], "MISSING/ds"),
    (["train", "--config", "CFG"], "FILE"),
    (["robustness", "--config", "CFG"], "FILE"),
    (["compare", "--config", "CFG"], "FILE"),
    (["search", "--config", "CFG", "--out", "MISSING/g.json"],
     "MISSING/g.json"),
    (["search", "--config", "CFG", "--out", "TMP/g.json", "--dot",
      "MISSING/g.dot"], "MISSING/g.dot"),
    (["search", "--config", "CFG", "--out", "TMP"], "TMP"),
], ids=["geometry", "transform", "gen-data", "train", "robustness",
        "compare", "search-out", "search-dot", "search-out-is-a-directory"])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys,
                                                   monkeypatch, argv, path):
    """A missing output directory, an `out.dir` that is a file or a search
    `--out` that is a directory exits 2 before any training or search runs."""
    def must_not_run(*args):
        raise AssertionError("ran before checking its output path")

    monkeypatch.setattr(cli, "train", must_not_run)
    monkeypatch.setattr(cli, "search", must_not_run)
    monkeypatch.setattr(cli, "compare_kernels", must_not_run)
    names = {"MISSING": str(tmp_path / "missing"), "TMP": str(tmp_path),
             "FILE": str(tmp_path / "file"), "CFG": str(tmp_path / "c.cfg")}
    (tmp_path / "file").write_text("")
    cfg_text = "out.dir = FILE\n" if argv[0] != "search" else ""
    for name, value in names.items():
        argv = [a.replace(name, value) for a in argv]
        path = path.replace(name, value)
        cfg_text = cfg_text.replace(name, value)
    (tmp_path / "c.cfg").write_text(cfg_text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and path in err


def _readme_keys() -> dict[str, dict[str, str]]:
    """README's config key table: {key: {command: default, or "-" when
    the command does not read the key}}."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| key |"))

    def cells(line):
        return [c.strip().strip("`") for c in line.strip().strip("|").split("|")]

    commands = cells(lines[start])[1:]
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, *row = cells(line)
        table[key] = dict(zip(commands, row, strict=True))
    return table


_README_KEYS = _readme_keys()


def _key(line: str) -> str:
    return line.split("=", 1)[0].strip()


_EVERY_KEY = {
    "data": ["data.kind = oriented_bars", "data.n_per_class = 2",
             "data.size = 8"],
    "model": ["model.kernel_size = 3", "model.shape = integrated"],
    "integrated": ["integrated.p_circular = 0.5",
                   "integrated.eval_branch = average"],
    "train": ["train.epochs = 1", "train.batch_size = 2",
              "train.lr_init = 0.01", "train.momentum = 0.5",
              "train.weight_decay = 0.001", "train.warmup_epochs = 1"],
    "compare": ["compare.dataset = oriented_bars", "compare.n_per_class = 2",
                "compare.size = 8", "compare.shapes = square,integrated",
                "compare.kernel_sizes = 3", "compare.seeds = 1"],
    "robustness": ["robustness.mode = shear", "robustness.trials = 1",
                   "robustness.seed = 1", "robustness.angles = 30"],
    "search": ["search.num_nodes = 3", "search.num_cells = 1",
               "search.channels = 2", "search.epochs = 1",
               "search.batch_size = 2", "search.lr_init = 0.01",
               "search.weight_decay = 0.001", "search.alpha_lr = 0.01",
               "search.alpha_weight_decay = 0.001", "search.seed = 1"],
    "seed": ["train.seed = 1"],
    "out": ["out.dir = OUT"],
}


@pytest.mark.parametrize("command, sections", [
    ("train", ["data", "model", "integrated", "train", "seed", "out"]),
    ("compare", ["compare", "integrated", "train", "out"]),
    ("robustness", ["data", "model", "integrated", "train", "seed", "out",
                    "robustness"]),
    ("search", ["data", "search"]),
])
def test_command_accepts_every_key_it_reads(tmp_path, command, sections):
    lines = [line for s in sections for line in _EVERY_KEY[s]]
    assert {_key(line) for line in lines} == {
        key for key, cells in _README_KEYS.items() if cells[command] != "-"}
    cfg = tmp_path / "every.cfg"
    cfg.write_text("".join(line.replace("OUT", str(tmp_path / "out")) + "\n"
                           for line in lines))
    argv = [command, "--config", str(cfg)]
    if command == "search":
        argv += ["--out", str(tmp_path / "genotype.json")]
    assert main(argv) == 0


def test_every_key_covers_exactly_the_readme_table():
    assert sorted(_key(line) for lines in _EVERY_KEY.values()
                  for line in lines) == sorted(_README_KEYS)
    assert set(next(iter(_README_KEYS.values()))) == {
        "train", "robustness", "compare", "search"}


@pytest.mark.parametrize("command, key", [
    (command, key) for key, cells in _README_KEYS.items() for command in cells
], ids=lambda v: v)
def test_readme_key_table_is_what_each_command_checks(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      key):
    """Per README's key table: a key the command reads, set to a value that
    does not convert or is an unknown choice, exits 2 naming the key or the
    value (an `out.dir` that is a file, naming the path); a key marked `-`
    exits 2 as unknown. Either way before any data or output."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before checking the config")

    for module, name in ((cli, "train"), (cli, "search"),
                         (cli, "compare_kernels"),
                         (experiments, "gen_synthetic")):
        monkeypatch.setattr(module, name, must_not_run)
    out, genotype = tmp_path / "out", tmp_path / "genotype.json"
    (tmp_path / "file").write_text("")
    if _README_KEYS[key][command] == "-":
        line = next(line for lines in _EVERY_KEY.values() for line in lines
                    if _key(line) == key).replace("OUT", str(out))
        named = [f"unknown config key(s): {key}"]
    elif key == "out.dir":
        line = f"out.dir = {tmp_path / 'file'}"
        named = [str(tmp_path / "file")]
    else:
        line = f"{key} = bogus"
        named = [key, "'bogus'"]
    reads_out_dir = _README_KEYS["out.dir"][command] != "-"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{line}\n" + (f"out.dir = {out}\n"
                                  if reads_out_dir and key != "out.dir"
                                  else ""))
    argv = [command, "--config", str(cfg)]
    if command == "search":
        argv += ["--out", str(genotype)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert any(name in err for name in named) and "Traceback" not in err
    assert not out.exists() and not genotype.exists()


@pytest.mark.parametrize("argv, flag", [
    (["search", "--config", "CFG", "--out", ""], "--out"),
    (["search", "--config", "CFG", "--out", "TMP/g.json", "--dot", ""],
     "--dot"),
    (["identity-check", "--trials", "0"], "--trials"),
    (["gen-data", "--n", "0", "--out", "TMP/ds"], "--n"),
    (["gen-data", "--size", "100000", "--out", "TMP/ds"], "--size"),
    (["gen-data", "--n", "100000000", "--out", "TMP/ds"], "--n"),
    (["gen-data", "--n", "1025", "--size", "256", "--out", "TMP/ds"], "--n"),
    (["geometry", "--size", "4", "--out", "TMP/g.csv"], "--size"),
    (["geometry", "--size", "3", "--dilation", "0", "--out", "TMP/g.csv"],
     "--dilation"),
    (["transform", "--size", "4", "--out", "TMP/b.csv"], "--size"),
    (["transform", "--size", "3", "--dilation", "0", "--out", "TMP/b.csv"],
     "--dilation"),
    (["geometry", "--size", "20001", "--out", "TMP/g.csv"], "--size"),
    (["transform", "--size", "33", "--out", "TMP/b.csv"], "--size"),
], ids=["search-empty-out", "search-empty-dot", "identity-check-0-trials",
        "gen-data-0-samples", "gen-data-size-100000",
        "gen-data-split-too-large", "gen-data-split-too-large-at-size-256",
        "geometry-even-size", "geometry-0-dilation", "transform-even-size",
        "transform-0-dilation", "geometry-size-20001", "transform-size-33"])
def test_empty_path_or_zero_count_exits_2_naming_the_flag(
        tmp_path, capsys, monkeypatch, argv, flag):
    """An empty output path, a count below 1, an image side that cannot
    fit, a split over its byte bound at its `--size`, an even kernel size
    or a dilation below 1 is a usage error: exit 2 naming the flag, not a
    config field, before any search, check, data or output."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before checking its flags")

    for name in ("load_config", "search", "gen_synthetic",
                 "verify_delta_identity"):
        monkeypatch.setattr(cli, name, must_not_run)
    argv = [a.replace("CFG", str(tmp_path / "c.cfg"))
            .replace("TMP", str(tmp_path)) for a in argv]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err
    assert "config error" not in err and "n_per_class" not in err
    assert "kernel_size" not in err
    assert list(tmp_path.iterdir()) == []
