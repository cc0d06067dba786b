"""End-to-end CLI runs: exit codes, artifacts on disk, determinism, overrides."""

import json
import os

import numpy as np
import pytest

from uapforge import cli
from uapforge import config as C
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
    _, meta = __import__("uapforge").load_checkpoint("out/checkpoints/mlp-s0.uapt")
    assert meta["train_config"]["epochs"] == 1


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_3(workdir):
    rc = cli.main(["--config", "run.json", "--set", "model.train.lr=1e12", "train"])
    assert rc == 3


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


def test_verify_missing_exits_5(workdir):
    assert cli.main(["verify", "nothing.uapt"]) == 5


def _no_spec(meta):
    del meta["spec"]


def _wrong_input_shape(meta):
    meta["input_shape"] = [1, 9, 9]  # the mlp's first dense layer takes 64 features, not 81


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


NINE = ["--set", "dataset.shape=[1,9,9]"]
ON_NINE = [*NINE, "--set", "model.checkpoint=nine.uapt"]

# (commands that must succeed first, the command that must exit 2); {delta} is the crafted delta
SHAPE_MISMATCHES = {
    "craft": ([["train"]], [*NINE, "craft"]),
    "ablate": ([["train"]], [*NINE, "ablate", "--axis", "order", "--values", '["none"]']),
    "eval-delta": ([["train"], ["craft"]], [*NINE, "--set", 'eval.deltas=["{delta}"]', "eval"]),
    "eval-target": ([["train"], [*ON_NINE, "train"], [*ON_NINE, "craft"]],
                    [*NINE, "--set", 'eval.targets=["out/checkpoints/mlp-s0.uapt"]',
                     "--set", 'eval.deltas=["{delta}"]', "eval"]),
}


@pytest.mark.parametrize("setup,argv", SHAPE_MISMATCHES.values(), ids=SHAPE_MISMATCHES.keys())
def test_shape_mismatch_exits_2(workdir, capsys, setup, argv):
    for args in setup:
        assert cli.main(["--config", "run.json", *args]) == 0
    delta = next(iter(delta_paths(workdir)), "")
    capsys.readouterr()
    assert cli.main(["--config", "run.json", *(a.format(delta=delta) for a in argv)]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "shape" in err, err


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
    with pytest.raises(OSError):
        cli.main(["--config", "run.json", "craft"])
    (delta,) = delta_paths(workdir)  # the payload was written before the sidecar
    assert not list(delta.parent.glob("*.tmp"))
    capsys.readouterr()
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


def test_ablate_requires_single_known_axis(workdir):
    assert cli.main(["--config", "run.json", "train"]) == 0
    assert cli.main(["--config", "run.json", "ablate", "--values", "[1, 2]"]) == 2
    rc = cli.main(["--config", "run.json", "--set", "ablate.axis=epsilon",
                   "ablate", "--values", "[0.1]"])
    assert rc == 2
