import json

import numpy as np
import pytest

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
    rc = main(["geometry", "--size", "4", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


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
    assert (tmp_path / "manifest.json").exists()


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
