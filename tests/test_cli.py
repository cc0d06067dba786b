"""End-to-end CLI runs: exit codes, artifacts on disk, determinism, overrides."""

import contextlib
import io
import json
import os
import shutil
import struct
import threading
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uapforge import attack as A
from uapforge import cli
from uapforge import config as C
from uapforge import data as D
from uapforge import evaluate as E
from uapforge import models as M
from uapforge import tensor as T
from uapforge.errors import ConfigError


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {
        "dataset": {"source": "synth", "num_classes": 3, "n": 240, "shape": [1, 8, 8],
                     "spread": 0.08, "subset_size": 90, "seed": 1},
        "model": {"arch": "mlp", "hidden": 12, "train": {"epochs": 8, "lr": 0.3, "batch": 30, "seed": 0}},
        "attack": {"epochs": 2, "batch_size": 30, "k_model": 2, "k_data": 2,
                    "rho": 0.2, "r": 2.0, "epsilon": 0.1, "seed": 3},
        "output": {"directory": "out"},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return tmp_path


def delta_paths(workdir):
    root = workdir / "out" / "deltas"
    return sorted(p for p in root.iterdir() if p.suffix == ".uapt") if root.exists() else []


# -- config assembly ------------------------------------------------------------


def test_defaults_load_without_file():
    cfg = C.load_config(None)
    assert cfg["attack"]["epochs"] == 20
    assert cfg["attack"]["batch_size"] == 125


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"attack": {"epsilonn": 0.1}}))
    with pytest.raises(ConfigError, match="epsilonn"):
        C.load_config(path)


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="not found"):
        C.load_config("/nonexistent/run.json")


def test_null_default_keys_take_null_or_their_kind():
    nulls = {f"{section}.{key}" for section, keys in C.DEFAULTS.items() for key, value in keys.items() if value is None}
    assert nulls == set(C.NULL_KINDS)
    assert C.load_config(None, sets=[f"{dotted}=null" for dotted in sorted(nulls)]) == C.DEFAULTS
    cfg = C.load_config(None, sets=["model.checkpoint=m.uapt", "dataset.subset_size=7", 'model.ensemble=["a.uapt"]'])
    assert (cfg["model"]["checkpoint"], cfg["dataset"]["subset_size"]) == ("m.uapt", 7)
    assert cfg["model"]["ensemble"] == ["a.uapt"]
    with pytest.raises(ConfigError, match="model.checkpoint takes null or a string, got 5"):
        C.load_config(None, sets=["model.checkpoint=5"])
    with pytest.raises(ConfigError, match="dataset.subset_size takes null or an integer, got 2.5"):
        C.load_config(None, sets=["dataset.subset_size=2.5"])


def test_set_overrides_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"attack": {"epsilon": 0.2}}))
    cfg = C.load_config(path, sets=["attack.epsilon=0.3"])
    assert cfg["attack"]["epsilon"] == 0.3


def test_env_overrides(tmp_path):
    cfg = C.load_config(None, environ={"UAPFORGE_ATTACK__GAMMA": "0.5"})
    assert cfg["attack"]["gamma"] == 0.5


def test_flag_beats_env(tmp_path):
    cfg = C.load_config(None, sets=["attack.gamma=0.7"], environ={"UAPFORGE_ATTACK__GAMMA": "0.5"})
    assert cfg["attack"]["gamma"] == 0.7


def test_env_override_reaches_cli(workdir, monkeypatch):
    monkeypatch.setenv("UAPFORGE_MODEL__TRAIN__EPOCHS", "1")
    assert cli.main(["--config", "run.json", "train"]) == 0
    _, meta = M.load_checkpoint("out/checkpoints/mlp-s0.uapt")
    assert meta["train_config"]["epochs"] == 1


@pytest.mark.parametrize("how", ["file", "set", "env"])
def test_removed_adam_key_exits_2(workdir, capsys, monkeypatch, how):
    argv = ["--config", "run.json", "train"]
    if how == "file":
        cfg = json.loads((workdir / "run.json").read_text())
        cfg["attack"]["adam_beta1"] = 0.8
        (workdir / "run.json").write_text(json.dumps(cfg))
    elif how == "set":
        argv = ["--config", "run.json", "--set", "attack.adam_beta1=0.8", "train"]
    else:
        monkeypatch.setenv("UAPFORGE_ATTACK__ADAM_BETA1", "0.8")
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key: attack.adam_beta1")
    assert err.count("\n") == 1
    assert not (workdir / "out").exists()


# (where the override goes, dotted key, value, command, exit code): an object merges into
# an object, a value keeps its default's JSON kind, an array element takes its key's element
# kind, a sweep value is checked as `--set attack.<axis>` would be, and bad dataset or
# training values exit 2 without writing a file
OVERRIDES = {
    "set-train-object-merges": ("set", "model.train", {"epochs": 1}, "train", 0),
    "env-train-object-merges": ("env", "model.train", {"epochs": 1}, "train", 0),
    "file-train-scalar": ("file", "model.train", 3, "train", 2),
    "set-attack-scalar": ("set", "attack", 5, "train", 2),
    "set-n-string": ("set", "dataset.n", "abc", "train", 2),
    "env-holdout-string": ("env", "dataset.holdout_fraction", "x", "train", 2),
    "set-epochs-string": ("set", "model.train.epochs", "x", "train", 2),
    "file-epochs-bool": ("file", "model.train.epochs", True, "train", 2),
    "set-shape-scalar": ("set", "dataset.shape", 5, "train", 2),
    "set-hidden-string": ("set", "model.hidden", "a", "train", 2),
    "set-subset-string": ("set", "dataset.subset_size", "a", "craft", 2),
    "set-checkpoint-number": ("set", "model.checkpoint", 5, "train", 2),
    "set-ensemble-string": ("set", "model.ensemble", "a.uapt", "craft", 2),
    "set-spread-zero": ("set", "dataset.spread", 0, "train", 2),
    "set-dataset-seed-negative": ("set", "dataset.seed", -1, "train", 2),
    "set-subset-too-large": ("set", "dataset.subset_size", 99999, "train", 2),
    "set-subset-negative": ("set", "dataset.subset_size", -1, "train", 2),
    # 0 is a size, not null: it reaches subset's range check before craft reads a checkpoint
    "set-subset-zero-craft": ("set", "dataset.subset_size", 0, "craft", 2),
    # the removed option is an unknown key
    "set-modes-removed": ("set", "dataset.modes", 2, "train", 2),
    "set-idx-bad-magic": ("set", "dataset", {"source": "idx", "images": "bad.idx", "labels": "bad.idx"}, "train", 2),
    "set-lr-negative": ("set", "model.train.lr", -1, "train", 2),
    "set-hidden-zero": ("set", "model.hidden", 0, "train", 2),
    "set-epochs-negative": ("set", "model.train.epochs", -1, "train", 2),
    "set-shape-string-element": ("set", "dataset.shape", [1, "a", 8], "train", 2),
    "set-shape-float-element": ("set", "dataset.shape", [1, 8.5, 8], "train", 2),
    "file-shape-bool-element": ("file", "dataset.shape", [1, True, 8], "train", 2),
    "set-targets-number-element": ("set", "eval.targets", [7], "eval", 2),
    "set-deltas-number-element": ("set", "eval.deltas", [3], "eval", 2),
    "env-formats-number-element": ("env", "output.formats", [1], "eval", 2),
    "set-sweep-rho-string": ("set", "ablate", {"axis": "rho", "values": ["a"]}, "ablate", 2),
    "set-sweep-curriculum-number": ("set", "ablate", {"axis": "curriculum", "values": [1]}, "ablate", 2),
    "set-sweep-order-number": ("set", "ablate", {"axis": "order", "values": ["none", 3]}, "ablate", 2),
    # a null-default key is kind-checked where it is merged, also by a command that does not read it
    "set-ablate-axis-number-train": ("set", "ablate.axis", 5, "train", 2),
    "env-labels-number-train": ("env", "dataset.labels", 5, "train", 2),
    # Python's JSON parser reads NaN and Infinity; a number must be finite
    "set-spread-nan": ("set", "dataset.spread", float("nan"), "train", 2),
    "env-lr-infinity": ("env", "model.train.lr", float("inf"), "train", 2),
    "set-epsilon-nan-craft": ("set", "attack.epsilon", float("nan"), "craft", 2),
    "file-epsilon-infinity-craft": ("file", "attack.epsilon", float("inf"), "craft", 2),
    "set-gamma-infinity-craft": ("set", "attack.gamma", float("inf"), "craft", 2),
    "env-rho-nan-craft": ("env", "attack.rho", float("nan"), "craft", 2),
    "file-r-nan-craft": ("file", "attack.r", float("nan"), "craft", 2),
    "set-sweep-rho-nan": ("set", "ablate", {"axis": "rho", "values": [1.0, float("nan")]}, "ablate", 2),
    # numpy seeds a generator from a non-negative integer alone
    "set-attack-seed-negative-craft": ("set", "attack.seed", -1, "craft", 2),
}


@pytest.mark.parametrize("where,dotted,value,command,code", OVERRIDES.values(), ids=OVERRIDES.keys())
def test_overrides_merge_or_exit_2(workdir, capsys, monkeypatch, where, dotted, value, command, code):
    (workdir / "bad.idx").write_bytes(bytes(16))
    argv = ["--config", "run.json", command]
    if where == "set":
        argv[2:2] = ["--set", f"{dotted}={json.dumps(value)}"]
    elif where == "env":
        monkeypatch.setenv("UAPFORGE_" + dotted.upper().replace(".", "__"), json.dumps(value))
    else:
        cfg = json.loads((workdir / "run.json").read_text())
        *parents, key = dotted.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
        (workdir / "run.json").write_text(json.dumps(cfg))
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.count("error:") == 1 and err.count("\n") == 1, err
        assert not (workdir / "out").exists()
    else:
        _, meta = M.load_checkpoint("out/checkpoints/mlp-s0.uapt")
        assert meta["train_config"] == {"epochs": 1, "lr": 0.3, "batch": 30, "seed": 0}


def test_attack_config_validation_maps_to_config_error():
    cfg = C.load_config(None, sets=["attack.rho=-1"])
    with pytest.raises(ConfigError):
        C.attack_config(cfg)


# -- subcommands ------------------------------------------------------------------


def test_train_craft_eval_pipeline(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert os.path.exists("out/checkpoints/mlp-s0.uapt")
    out = capsys.readouterr().out
    assert "train accuracy" in out and "test accuracy" in out

    assert cli.main(["--config", "run.json", "craft"]) == 0
    paths = delta_paths(workdir)
    assert len(paths) == 1
    meta = json.loads(open(str(paths[0]) + ".json").read())
    assert meta["config"]["epsilon"] == 0.1
    assert os.path.exists(str(paths[0]) + ".log.csv")

    rc = cli.main(["--config", "run.json", "--set", f"eval.deltas=[\"{paths[0]}\"]", "eval"])
    assert rc == 0
    reports = list((workdir / "out" / "reports").iterdir())
    assert any(p.suffix == ".csv" for p in reports)
    report = json.loads(next(p for p in reports if p.suffix == ".json").read_text())
    # one identity per array: the report names the delta by a prefix of its content hash
    assert [r["delta_hash"] for r in report["reports"]] == [meta["content_hash"][:16]]


def test_unknown_report_format_exits_2_before_any_report(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    capsys.readouterr()
    rc = cli.main(["--config", "run.json", "--set", f'eval.deltas=["{delta}"]',
                   "--set", 'output.formats=["json", "xml"]', "eval"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "xml" in err, err
    assert not list((workdir / "out" / "reports").glob("*"))


def test_craft_variant_recorded(workdir):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft", "--variant", "spgd"]) == 0
    (path,) = delta_paths(workdir)
    meta = json.loads(open(str(path) + ".json").read())
    assert meta["config"]["variant"] == "spgd"
    assert meta["config"]["rho"] == 0.0 and meta["config"]["r"] == 0.0


def test_craft_deterministic_artifact(workdir):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (first,) = delta_paths(workdir)
    blob = first.read_bytes()
    first.unlink()
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (second,) = delta_paths(workdir)
    assert second.read_bytes() == blob
    assert first.name == second.name  # content-hashed filename


def test_train_deterministic_checkpoint(workdir):
    assert cli.main(["--config", "run.json", "train"]) == 0
    blob = open("out/checkpoints/mlp-s0.uapt", "rb").read()
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert open("out/checkpoints/mlp-s0.uapt", "rb").read() == blob


def test_missing_dataset_path_exits_2(workdir, capsys):
    rc = cli.main(["--config", "run.json", "--set", "dataset.source=idx",
                   "--set", "dataset.images=missing.idx", "--set", "dataset.labels=missing2.idx", "train"])
    assert rc == 2
    assert "dataset.images" in capsys.readouterr().err


def _idx_pair(n, labels):
    """{file name: bytes} of an IDX pair: n blank 4x4 images, and a label file whose header counts n but holds `labels`."""
    return {"img.idx": struct.pack(">IIII", D.IDX_IMAGE_MAGIC, n, 4, 4) + bytes(16 * n),
            "lbl.idx": struct.pack(">II", D.IDX_LABEL_MAGIC, n) + bytes(labels)}


IDX = ["--set", 'dataset={"source": "idx", "images": "img.idx", "labels": "lbl.idx"}']
EMPTY = "invalid dataset section: empty dataset: images of shape"

# (files to make in the work directory, argv on the default config, the start of the one error line): each
# dataset section, sweep or override here is invalid, exits 2 and writes nothing
EXIT_2_INPUTS = {
    "empty-train-split": ({}, ["--set", "dataset.holdout_fraction=0.9999", "--set", "dataset.n=40", "train"],
                          f"{EMPTY} (0, 1, 16, 16) hold no samples"),
    "no-values-per-sample": ({}, ["--set", "dataset.shape=[0,4,4]", "train"],
                             f"{EMPTY} (2000, 0, 4, 4) hold no values per sample"),
    "idx-no-images": (_idx_pair(0, []), [*IDX, "train"], f"{EMPTY} (0, 1, 4, 4) hold no samples"),
    "idx-without-images": ({}, ["--set", 'dataset={"source": "idx"}', "train"],
                           "dataset.source 'idx' requires dataset.images"),
    "unknown-source": ({}, ["--set", "dataset.source=lmdb", "train"], "unknown dataset.source 'lmdb'"),
    "one-class": ({}, ["--set", "dataset.num_classes=1", "train"], "dataset.synth needs num_classes >= 2"),
    "holdout-fraction-one": ({}, ["--set", "dataset.holdout_fraction=1.0", "train"],
                             "dataset.holdout_fraction must be in [0, 1)"),
    "idx-one-class": (_idx_pair(8, [0] * 8), [*IDX, "train"], "training dataset must carry at least two classes"),
    "idx-truncated-labels": (_idx_pair(8, [0, 1] * 3), [*IDX, "train"],
                             "invalid dataset section: truncated label data in lbl.idx"),
    "ablate-no-values": ({}, ["ablate", "--axis", "r", "--values", "[]"], "ablate.values must be a non-empty list"),
    "ablate-negative-rho": ({}, ["ablate", "--axis", "rho", "--values", "[-1]"],
                            "invalid sweep value -1 for axis rho: "),
    "set-without-value": ({}, ["--set", "attack.epochs", "train"], "--set expects key=value, got 'attack.epochs'"),
}


@pytest.mark.parametrize("inputs,argv,message", EXIT_2_INPUTS.values(), ids=EXIT_2_INPUTS.keys())
def test_invalid_input_exits_2_with_its_message(workdir, capsys, inputs, argv, message):
    for name, data in inputs.items():
        (workdir / name).write_bytes(data)
    made = sorted(workdir.rglob("*"))
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1, captured.err
    assert sorted(workdir.rglob("*")) == made


EVAL_DELTA = ["--config", "run.json", "--set", 'eval.deltas=["{path}"]', "eval"]

# (inputs to make in the work directory: name -> bytes, or None for a directory; the input path; argv
# with {path} for it; exit code): an input that cannot be read or parsed exits with its contract code,
# 2 for config and dataset files and 5 for artifacts; the eval cases train the checkpoint first
UNREADABLE_INPUTS = {
    "config-directory": ({"cfgdir": None}, "cfgdir", ["--config", "{path}", "train"], 2),
    "config-invalid-utf8": ({"bad.json": b'{"attack": "\xff"}'}, "bad.json", ["--config", "{path}", "train"], 2),
    "config-deep-nesting": ({"deep.json": b"[" * 100_000 + b"]" * 100_000}, "deep.json",
                            ["--config", "{path}", "train"], 2),
    "config-directory-verify": ({}, ".", ["--config", "{path}", "verify", "x.uapt"], 2),
    "verify-delta-directory": ({"d.uapt": None}, "d.uapt", ["verify", "{path}"], 5),
    "verify-delta-through-file": ({"plain": b"x"}, "plain/x.uapt", ["verify", "{path}"], 5),
    "eval-delta-directory": ({"d.uapt": None}, "d.uapt", EVAL_DELTA, 5),
    "eval-delta-through-file": ({"plain": b"x"}, "plain/x.uapt", EVAL_DELTA, 5),
    "idx-images-directory": ({"idxdir": None}, "idxdir",
                             ["--config", "run.json", "--set", "dataset.source=idx", "--set", "dataset.images={path}",
                              "--set", "dataset.labels=run.json", "train"], 2),
}


@pytest.mark.parametrize("inputs,path,argv,code", UNREADABLE_INPUTS.values(), ids=UNREADABLE_INPUTS.keys())
def test_unreadable_input_exits_with_contract_code(workdir, capsys, inputs, path, argv, code):
    if "eval" in argv:
        assert cli.main(["--config", "run.json", "train"]) == 0
    for name, data in inputs.items():
        if data is None:
            (workdir / name).mkdir()
        else:
            (workdir / name).write_bytes(data)
    made = sorted(workdir.rglob("*"))
    capsys.readouterr()
    assert cli.main([a.format(path=path) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert path in captured.err
    # the command made nothing: no out/ tree, no empty report directory
    assert sorted(workdir.rglob("*")) == made


def test_eval_without_deltas_exits_2_before_loading_anything(workdir, capsys):
    # no checkpoint exists: the empty eval.deltas is the problem named, not the missing checkpoint
    assert cli.main(["--config", "run.json", "eval"]) == 2
    err = capsys.readouterr().err
    assert err == "error: eval.deltas must list at least one perturbation artifact\n"
    assert not (workdir / "out").exists()


def test_train_writes_explicit_checkpoint_into_a_missing_directory(workdir, capsys):
    argv = ["--config", "run.json", "--set", 'model.checkpoint="nodir/sub/m.uapt"', "train"]
    assert cli.main(argv) == 0
    assert "checkpoint: nodir/sub/m.uapt" in capsys.readouterr().out
    assert sorted(p.name for p in (workdir / "nodir" / "sub").iterdir()) == ["m.uapt", "m.uapt.json"]
    assert cli.main(["verify", "nodir/sub/m.uapt"]) == 0
    assert not (workdir / "out").exists()


def test_output_directory_that_is_a_file_exits_6(workdir, capsys):
    (workdir / "taken.json").write_text("{}")
    made = sorted(workdir.rglob("*"))
    argv = ["--config", "run.json", "--set", 'output.directory="taken.json"', "train"]
    assert cli.main(argv) == 6
    err = capsys.readouterr().err
    path = os.path.join("taken.json", "checkpoints", "mlp-s0.uapt")
    assert err == f"error: file not writable (Not a directory): {path}\n"
    assert sorted(workdir.rglob("*")) == made


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_divergence_exits_3(workdir):
    rc = cli.main(["--config", "run.json", "--set", "model.train.lr=1e12", "train"])
    assert rc == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_whose_only_step_diverges_exits_3(workdir, capsys):
    # one epoch of one batch: the step itself leaves non-finite parameters, and no checkpoint is written
    argv = ["--config", "run.json", "--set", 'dataset={"n": 40, "subset_size": null}',
            "--set", 'model.train={"epochs": 1, "batch": 64, "lr": 1e308}', "train"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: training diverged at epoch 1: non-finite values in parameters\n"
    assert not (workdir / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_craft_numeric_failure_exits_4_with_one_error_line(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", "run.json", "--set", "attack.rho=1e308", "craft"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: epoch 1, ") and err.count("\n") == 1, err
    assert delta_paths(workdir) == []


# (epsilon, the start of the one error line): a delta whose loss goes non-finite, and one whose
# (-epsilon, epsilon) range is wider than a float64 holds, so that no initial delta can be drawn
HUGE_EPSILONS = {
    "1e200": "error: epoch 1, ",
    "1e308": "error: epsilon 1e+308 is too large to draw delta from (-epsilon, epsilon)\n",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon,start", HUGE_EPSILONS.items(), ids=HUGE_EPSILONS.keys())
def test_craft_with_a_huge_epsilon_exits_4_with_one_error_line(workdir, capsys, epsilon, start):
    assert cli.main(["--config", "run.json", "train"]) == 0
    capsys.readouterr()
    assert cli.main(["--config", "run.json", "--set", f"attack.epsilon={epsilon}", "--set", "attack.epochs=1",
                     "craft"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err
    assert delta_paths(workdir) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_craft_failing_in_both_batches_of_a_pair_names_the_first(workdir, capsys):
    # 30 crafting samples in batches of 10: the first pair's two inner minimizations both go non-finite
    sets = ['dataset={"n": 40, "subset_size": null}', "attack.batch_size=10"]
    argv = ["--config", "run.json"] + [arg for value in sets for arg in ("--set", value)]
    assert cli.main([*argv, "train"]) == 0
    capsys.readouterr()
    threads = threading.active_count()
    assert cli.main([*argv, "--set", "attack.rho=1e308", "craft"]) == 4
    assert threading.active_count() == threads
    craft_ds, _, _ = cli.load_datasets(C.load_config("run.json", sets=sets))
    first = next(D.minibatches(craft_ds, 10, epoch_seed=A._subseed(3, "shuffle") ^ 1))
    assert capsys.readouterr().err == f"error: epoch 1, batch indices {first.indices[:4]}...: non-finite loss\n"
    assert delta_paths(workdir) == []


# a path holding a NUL byte cannot be opened: it exits with the contract code of the file it names
NUL_PATHS = {
    "config": (["--config", "a\x00b.json", "train"], 2),
    "idx-images": (["--config", "run.json", "--set", "dataset.source=idx", "--set", 'dataset.images="a\\u0000b"',
                    "--set", "dataset.labels=run.json", "train"], 2),
    "verify": (["verify", "a\x00b.uapt"], 5),
    "craft-checkpoint": (["--config", "run.json", "--set", 'model.checkpoint="a\\u0000b.uapt"', "craft"], 5),
    "eval-delta": (["--config", "run.json", "--set", 'eval.deltas=["a\\u0000b.uapt"]', "eval"], 5),
    "train-output-directory": (["--config", "run.json", "--set", 'output.directory="a\\u0000b"', "train"], 6),
    "train-checkpoint": (["--config", "run.json", "--set", 'model.checkpoint="a\\u0000b.uapt"', "train"], 6),
}


@pytest.mark.parametrize("argv,code", NUL_PATHS.values(), ids=NUL_PATHS.keys())
def test_path_with_nul_byte_exits_with_contract_code(workdir, capsys, argv, code):
    assert cli.main(["--config", "run.json", "train"]) == 0
    made = sorted(workdir.rglob("*"))
    capsys.readouterr()
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "a\x00b" in captured.err
    assert sorted(workdir.rglob("*")) == made


def test_craft_without_checkpoint_exits_5(workdir):
    assert cli.main(["--config", "run.json", "craft"]) == 5


def test_eval_missing_delta_exits_5(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    rc = cli.main(["--config", "run.json", "--set", "eval.deltas=[\"ghost.uapt\"]", "eval"])
    assert rc == 5
    assert "ghost.uapt" in capsys.readouterr().err


def test_eval_truncated_delta_exits_5(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    delta.write_bytes(delta.read_bytes()[:10])
    rc = cli.main(["--config", "run.json", "--set", f"eval.deltas=[\"{delta}\"]", "eval"])
    assert rc == 5
    assert "truncated header" in capsys.readouterr().err


def test_verify_ok_and_mismatch(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (path,) = delta_paths(workdir)
    assert cli.main(["verify", str(path), "out/checkpoints/mlp-s0.uapt"]) == 0
    out = capsys.readouterr().out
    assert out.count("OK") == 2
    # corrupt the payload, keep the metadata
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert cli.main(["verify", str(path)]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_eval_corrupt_delta_payload_exits_5(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    blob = bytearray(delta.read_bytes())
    blob[-1] ^= 0xFF  # the header still parses; only the payload disagrees with the sidecar
    delta.write_bytes(bytes(blob))
    capsys.readouterr()
    rc = cli.main(["--config", "run.json", "--set", f"eval.deltas=[\"{delta}\"]", "eval"])
    assert rc == 5
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "content_hash" in err
    reports = workdir / "out" / "reports"
    assert not reports.exists() or not any(reports.iterdir())


def test_verify_truncated_delta_exits_5(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    delta.write_bytes(delta.read_bytes()[:-1])
    capsys.readouterr()
    assert cli.main(["verify", str(delta)]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 1


def _flip_last_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_verify_flipped_checkpoint_byte_is_mismatch(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    _flip_last_byte(workdir / "out/checkpoints/mlp-s0.uapt")
    capsys.readouterr()
    assert cli.main(["verify", "out/checkpoints/mlp-s0.uapt"]) == 1
    assert capsys.readouterr().out == "MISMATCH out/checkpoints/mlp-s0.uapt\n"


@pytest.mark.parametrize("command", ["craft", "eval"])
def test_checkpoint_with_flipped_payload_byte_exits_5(workdir, capsys, command):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    _flip_last_byte(workdir / "out/checkpoints/mlp-s0.uapt")
    before = sorted(p for p in (workdir / "out").rglob("*") if p.is_file())
    capsys.readouterr()
    argv = {
        "craft": ["--config", "run.json", "--set", "attack.seed=4", "craft"],
        "eval": ["--config", "run.json", "--set", f"eval.deltas=[\"{delta}\"]", "eval"],
    }[command]
    assert cli.main(argv) == 5
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "params_fingerprint" in err, err
    assert sorted(p for p in (workdir / "out").rglob("*") if p.is_file()) == before


def test_verify_missing_exits_5(workdir):
    assert cli.main(["verify", "nothing.uapt"]) == 5


def _no_spec(meta):
    del meta["spec"]


def _wrong_input_shape(meta):
    meta["input_shape"] = [1, 9, 9]  # the mlp's first dense layer takes 64 features, not 81


def _zero_std_normalize_first(meta):
    meta["spec"].insert(0, {"kind": "normalize", "mean": [0.0], "std": [0.0]})


def _float_hidden_width(meta):
    meta["spec"][1]["out_features"] = meta["spec"][3]["in_features"] = 12.0


def _string_bias(meta):
    meta["spec"][1]["bias"] = "no"


def _float_input_shape(meta):
    meta["input_shape"] = [float(n) for n in meta["input_shape"]]


def _dense_kernel(meta):
    meta["spec"][1]["kernel"] = 3  # a key the dense kind does not take


def _float_num_classes(meta):
    meta["num_classes"] = float(meta["num_classes"])


def _config_not_object(meta):
    meta["config"] = 5


def _fingerprint_only(meta):
    # a checkpoint's identity key, with the delta's true fingerprint
    meta["params_fingerprint"] = meta.pop("content_hash")[:16]


# (command, artifact whose sidecar is damaged, new sidecar text / None to delete / edit of the metadata)
BAD_SIDECARS = {
    "eval-delta-not-json": ("eval", "delta", "{not json"),
    "eval-delta-list": ("eval", "delta", "[]"),
    "eval-delta-empty-object": ("eval", "delta", "{}"),
    "eval-delta-missing": ("eval", "delta", None),
    "eval-delta-config-not-object": ("eval", "delta", '{"content_hash": "0", "config": 5}'),
    "verify-delta-not-json": ("verify", "delta", "{not json"),
    "verify-checkpoint-not-json": ("verify", "checkpoint", "{not json"),
    "craft-checkpoint-not-json": ("craft", "checkpoint", "{not json"),
    "craft-checkpoint-missing": ("craft", "checkpoint", None),
    "craft-checkpoint-no-spec": ("craft", "checkpoint", _no_spec),
    "craft-checkpoint-bad-input-shape": ("craft", "checkpoint", _wrong_input_shape),
    "craft-checkpoint-zero-std": ("craft", "checkpoint", _zero_std_normalize_first),
    "eval-checkpoint-zero-std": ("eval", "checkpoint", _zero_std_normalize_first),
    "craft-checkpoint-float-width": ("craft", "checkpoint", _float_hidden_width),
    "craft-checkpoint-string-bias": ("craft", "checkpoint", _string_bias),
    "craft-checkpoint-float-input-shape": ("craft", "checkpoint", _float_input_shape),
    "craft-checkpoint-extra-layer-key": ("craft", "checkpoint", _dense_kernel),
    "eval-checkpoint-float-num-classes": ("eval", "checkpoint", _float_num_classes),
    "eval-delta-config-not-object-hash-ok": ("eval", "delta", _config_not_object),
    "eval-delta-fingerprint-only": ("eval", "delta", _fingerprint_only),
    "verify-delta-empty-object": ("verify", "delta", "{}"),
    "verify-checkpoint-no-identity": ("verify", "checkpoint", lambda meta: meta.pop("params_fingerprint")),
}


@pytest.mark.parametrize("command,artifact,sidecar", BAD_SIDECARS.values(), ids=BAD_SIDECARS.keys())
def test_malformed_or_missing_sidecar_exits_5(workdir, capsys, command, artifact, sidecar):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    path = str(delta) if artifact == "delta" else "out/checkpoints/mlp-s0.uapt"
    side = path + ".json"
    if sidecar is None:
        os.remove(side)
    elif callable(sidecar):
        meta = json.loads(open(side).read())
        sidecar(meta)
        open(side, "w").write(json.dumps(meta))
    else:
        open(side, "w").write(sidecar)
    before = sorted((workdir / "out").rglob("*"))
    capsys.readouterr()
    argv = {
        "eval": ["--config", "run.json", "--set", f"eval.deltas=[\"{delta}\"]", "eval"],
        "verify": ["verify", path],
        "craft": ["--config", "run.json", "craft"],
    }[command]
    assert cli.main(argv) == 5
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "OK" not in captured.out
    # the failed command made no file and no directory, not even an empty out/reports
    assert sorted((workdir / "out").rglob("*")) == before


NINE = ["--set", "dataset.shape=[1,9,9]"]
ON_NINE = [*NINE, "--set", "model.checkpoint=nine.uapt"]
ENSEMBLE = ["--set", 'model.ensemble=["out/checkpoints/mlp-s0.uapt", "other.uapt"]']
# the default checkpoint and other.uapt, trained on other classes or another input shape
ON_FOUR_CLASSES = [["train"], ["--set", "dataset.num_classes=4", "--set", "model.checkpoint=other.uapt", "train"]]
ON_NINE_TOO = [["train"], [*NINE, "--set", "model.checkpoint=other.uapt", "train"]]
ABLATE_NONE = ["ablate", "--axis", "order", "--values", '["none"]']
MEMBERS = "ensemble members must share input shape and class count"

# (commands that must succeed first, the command that must exit 2, the start of its one error line after
# "error: "); {delta} is the crafted delta
SHAPE_MISMATCHES = {
    "craft": ([["train"]], [*NINE, "craft"], "dataset sample shape (1, 9, 9)"),
    "ablate": ([["train"]], [*NINE, *ABLATE_NONE], "dataset sample shape (1, 9, 9)"),
    "eval-delta": ([["train"], ["craft"]], [*NINE, "--set", 'eval.deltas=["{delta}"]', "eval"], "delta shape"),
    "eval-target": ([["train"], [*ON_NINE, "train"], [*ON_NINE, "craft"]],
                    [*NINE, "--set", 'eval.targets=["out/checkpoints/mlp-s0.uapt"]',
                     "--set", 'eval.deltas=["{delta}"]', "eval"], "model input shape"),
    "ensemble-classes-craft": (ON_FOUR_CLASSES, [*ENSEMBLE, "craft"], MEMBERS),
    "ensemble-classes-ablate": (ON_FOUR_CLASSES, [*ENSEMBLE, *ABLATE_NONE], MEMBERS),
    "ensemble-shapes-craft": (ON_NINE_TOO, [*ENSEMBLE, "craft"], MEMBERS),
    "ensemble-shapes-ablate": (ON_NINE_TOO, [*ENSEMBLE, *ABLATE_NONE], MEMBERS),
}


@pytest.mark.parametrize("setup,argv,message", SHAPE_MISMATCHES.values(), ids=SHAPE_MISMATCHES.keys())
def test_shape_mismatch_exits_2(workdir, capsys, setup, argv, message):
    for args in setup:
        assert cli.main(["--config", "run.json", *args]) == 0
    delta = next(iter(delta_paths(workdir)), "")
    made = sorted(workdir.rglob("*"))
    capsys.readouterr()
    assert cli.main(["--config", "run.json", *(a.format(delta=delta) for a in argv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1, captured.err
    # no deltas/ or reports/ directory, nor any other file, was made
    assert sorted(workdir.rglob("*")) == made


def test_craft_writes_the_payload_once(workdir, monkeypatch):
    assert cli.main(["--config", "run.json", "train"]) == 0
    written = []
    save_tensor = T.save_tensor

    def counting(path, arr):
        written.append(os.path.basename(path))
        save_tensor(path, arr)

    monkeypatch.setattr(T, "save_tensor", counting)
    assert cli.main(["--config", "run.json", "craft"]) == 0
    (delta,) = delta_paths(workdir)
    assert written == [delta.name]


def test_craft_failing_before_sidecar_is_never_verified_ok(workdir, capsys, fail_writes):
    assert cli.main(["--config", "run.json", "train"]) == 0
    fail_writes(".uapt.json")
    capsys.readouterr()
    assert cli.main(["--config", "run.json", "craft"]) == 6
    (delta,) = delta_paths(workdir)  # the payload was written before the sidecar
    assert capsys.readouterr().err == f"error: file not writable (No space left on device): out/deltas/{delta.name}.json\n"
    assert not list(delta.parent.glob("*.tmp"))
    assert cli.main(["verify", str(delta)]) == 5
    assert "OK" not in capsys.readouterr().out


def test_ablate_order_sweep(workdir, capsys):
    assert cli.main(["--config", "run.json", "train"]) == 0
    rc = cli.main(["--config", "run.json", "ablate", "--axis", "order",
                   "--values", '["model_first", "none"]'])
    assert rc == 0
    csv = open("out/reports/ablate-order.csv").read().strip().split("\n")
    assert csv[0] == "order,fooling_ratio,n,delta_hash"
    assert len(csv) == 3


def test_ablate_predicts_the_clean_holdout_once(workdir, capsys, monkeypatch):
    # every point's delta goes to one transfer matrix: one clean pass plus one pass per point, and the
    # report and stdout lines are those of a craft and a fooling_ratio per point
    assert cli.main(["--config", "run.json", "train"]) == 0
    cfg = C.load_config("run.json")
    craft_ds, _, holdout = cli.load_datasets(cfg)
    target = cli._craft_target(cfg)
    values = ["model_first", "none", "alternating"]
    want = ["order,fooling_ratio,n,delta_hash"]
    for value in values:
        delta, _ = A.craft(replace(C.attack_config(cfg), order=value), target, craft_ds)
        rep = E.fooling_ratio(target, holdout, delta)
        want.append(f"{value},{rep.fooling_ratio:.4f},{rep.n_evaluated},{rep.delta_hash}")
    capsys.readouterr()
    seen = []
    predict = M.AttackTarget.predict
    monkeypatch.setattr(M.AttackTarget, "predict", lambda self, X: seen.append(len(X)) or predict(self, X))
    assert cli.main(["--config", "run.json", "ablate", "--axis", "order", "--values", json.dumps(values)]) == 0
    assert seen.count(len(holdout)) == 1 + len(values)
    assert open("out/reports/ablate-order.csv").read() == "\n".join(want) + "\n"
    lines = [f"order={line.split(',')[0]}: fooling ratio {line.split(',')[1]}" for line in want[1:]]
    assert capsys.readouterr().out.splitlines()[:-1] == lines


def test_ablate_requires_single_known_axis(workdir):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "ablate", "--values", "[1, 2]"]) == 2
    rc = cli.main(["--config", "run.json", "--set", "ablate.axis=epsilon",
                   "ablate", "--values", "[0.1]"])
    assert rc == 2


# -- the exit-code contract over any config -----------------------------------------------


def _dotted_keys(tree, prefix=""):
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _dotted_keys(value, f"{prefix}{key}.")


_KEYS = sorted(_dotted_keys(C.DEFAULTS))
# small sizes throughout: values whose arrays cannot fit in memory are outside the contract. No drawn
# string holds a "/", so a path written by `train` lands inside the example's directory or its parent;
# only a list of paths, which no command writes, may name a checkpoint under out/.
_STRINGS = st.text("ab.-\x00", max_size=4) | st.sampled_from(["idx", "synth", "mlp", "cnn_small", "csv", "rho"])
# st.floats() seldom draws a magnitude near the float64 limit, where 2 * x overflows
_SCALARS = {bool: st.booleans(), int: st.integers(-2, 12), float: st.floats() | st.sampled_from([1e308, -1e308]),
            str: _STRINGS}
_VALUES = st.recursive(
    st.none() | st.one_of(*_SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(sorted({key.rsplit(".", 1)[-1] for key in _KEYS} | {"zz"})), inner, max_size=3),
    max_leaves=6,
)


def _of_its_kind(key):
    """Values of the kind `key` takes, so that a draw also reaches the checks after the merge. A list of
    paths may also name the valid checkpoints each example starts with."""
    if key not in _KEYS:
        return _VALUES
    node = C.DEFAULTS
    for part in key.split("."):
        node = node[part]
    kind = type(node) if node is not None else C.NULL_KINDS[key]
    if kind is list:
        element_kind, what = C.ELEMENT_KINDS.get(key, (float, None))
        element = _SCALARS[element_kind]
        return st.lists(element | st.sampled_from(_CHECKPOINTS) if what == "paths" else element, max_size=3)
    return _SCALARS.get(kind, _VALUES)


# (where the value goes, dotted key, value): a key is the schema's or an unknown one, and its value
# JSON of any kind or of the key's own kind
_WHERE = st.sampled_from(["set", "env", "file"])
_OVERRIDES = st.lists(st.tuples(
    _WHERE,
    st.sampled_from(_KEYS + ["zz", "a_b", "attack.zz", "dataset.n.zz", "model.train.zz.zz"]).flatmap(
        lambda key: st.tuples(st.just(key), _VALUES | _of_its_kind(key))),
).map(lambda o: (o[0], *o[1])), max_size=4)


@st.composite
def _steered_overrides(draw):
    """Three draws in four: one schema key with a value of its own kind, which most often merges and so
    reaches the command's own checks. Otherwise any of _OVERRIDES."""
    if draw(st.integers(0, 3)) == 0:
        return draw(_OVERRIDES)
    key = draw(st.sampled_from(_KEYS))
    return [(draw(_WHERE), key, draw(_of_its_kind(key)))]


# a tiny run whose craft takes one epoch, and whose eval reads the delta each example starts with
_TINY = ['dataset={"n": 24, "shape": [1, 4, 4], "num_classes": 2, "subset_size": null}',
         'model={"arch": "mlp", "hidden": 4, "train": {"batch": 8}}',
         'attack={"epochs": 1}', 'eval={"deltas": ["ok.uapt"]}']
# the valid checkpoints each example's directory starts with: the tiny config's, at its default path, and
# one trained on three classes, which does not fit with it in an ensemble
_CHECKPOINTS = ["out/checkpoints/mlp-s0.uapt", "c3.uapt"]
# what each example's directory starts with: those checkpoints, and a valid delta for the first
_ARTIFACTS = [name + suffix for name in _CHECKPOINTS for suffix in ("", ".json")] + [
    "ok.uapt", "ok.uapt.json", "ok.uapt.log.csv"]


@pytest.fixture(scope="module")
def contract_artifacts(tmp_path_factory):
    """The directory holding _ARTIFACTS, made once by the tiny run's `train` and `craft`."""
    root = tmp_path_factory.mktemp("contract-artifacts")
    cwd = os.getcwd()
    try:
        os.chdir(root)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main([f"--set={item}" for item in _TINY] + ["train"]) == 0
            assert cli.main([f"--set={item}" for item in _TINY] + ["craft"]) == 0
            three_classes = ["--set=dataset.num_classes=3", f"--set=model.checkpoint={_CHECKPOINTS[1]}"]
            assert cli.main([f"--set={item}" for item in _TINY] + three_classes + ["train"]) == 0
        delta = next(line.split(": ", 1)[1] for line in out.getvalue().splitlines()
                     if line.startswith("delta artifact: "))
        for suffix in ("", ".json", ".log.csv"):
            shutil.copy(delta + suffix, "ok.uapt" + suffix)
    finally:
        os.chdir(cwd)
    return root


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None)
# the tracebacks this test has found, kept as examples: an epsilon too large to draw the initial delta
# from, a seed numpy cannot take, and an ensemble of members with different class counts
@example(overrides=[("set", "attack.epsilon", 1e308)], command="craft", epochs=0, paths=["ok.uapt"])
@example(overrides=[("env", "attack.seed", -1)], command="craft", epochs=0, paths=["ok.uapt"])
@example(overrides=[("set", "model.ensemble", _CHECKPOINTS)], command="craft", epochs=0, paths=["ok.uapt"])
@given(
    overrides=_steered_overrides(),
    command=st.sampled_from(["train", "craft", "eval", "verify"]),
    epochs=st.integers(0, 1),
    paths=st.lists(st.sampled_from(["ok.uapt", "missing.uapt", "a\x00b.uapt", "."]), min_size=1, max_size=2),
)
def test_any_config_exits_with_a_contract_code(tmp_path_factory, contract_artifacts, overrides, command, epochs,
                                               paths):
    # the tiny run's settings come first, so a drawn --set overrides them and a drawn file or env value
    # is merged and checked but then overridden
    sets = [f"--set={item}" for item in _TINY] + [f"--set=model.train.epochs={epochs}"]
    env, document = {}, {}
    for where, key, value in overrides:
        if where == "set":
            sets.append(f"--set={key}={json.dumps(value)}")
        elif where == "env":
            env["UAPFORGE_" + key.upper().replace(".", "__")] = json.dumps(value)
        else:
            *parents, last = key.split(".")
            node = document
            for part in parents:
                if not isinstance(node.get(part), dict):
                    node[part] = {}
                node = node[part]
            node[last] = value
    work = tmp_path_factory.mktemp("contract") / "work"
    (work / "out" / "checkpoints").mkdir(parents=True)
    for name in _ARTIFACTS:
        shutil.copy(contract_artifacts / name, work / name)
    (work / "run.json").write_text(json.dumps(document))
    argv = ["--config", "run.json", *sets, command, *(paths if command == "verify" else [])]
    err = io.StringIO()
    cwd = os.getcwd()
    try:
        os.chdir(work)
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in {0, 1, *cli.EXIT_CODES.values()}
    assert (code >= 2) == err.getvalue().startswith("error: "), err.getvalue()
