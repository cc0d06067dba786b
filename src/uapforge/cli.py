"""Command-line entry point: train, craft, eval, ablate, verify.

Every subcommand reads one JSON config (see config.DEFAULTS for the schema)
plus optional overrides, and writes artifacts under
<output.directory>/{checkpoints,deltas,reports}. A directory is made when the
first file is written into it, so a command that fails its checks leaves none.

Exit codes are contract values: 0 ok, 2 invalid config or dataset, 3 training
divergence, 4 numerical failure while crafting, 5 missing or corrupt artifact or
sidecar, including a payload that tensor.load_artifact finds does not match its
sidecar; `verify` prints MISMATCH and exits 1 for that case alone.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import attack as A
from . import config as C
from . import data as D
from . import evaluate as E
from . import models as M
from .errors import ArtifactMissing, ConfigError, CraftingFailed, TrainingDiverged
from .tensor import ContentMismatch, TensorFormatError, content_hash, load_artifact, write_atomic

EXIT_CODES = {ConfigError: 2, TrainingDiverged: 3, CraftingFailed: 4, ArtifactMissing: 5, TensorFormatError: 5}

ABLATE_AXES = ("rho", "r", "order", "curriculum")


def _out_path(cfg, kind, name):
    """The path of output file `name` of `kind` (checkpoints, deltas or reports)."""
    return os.path.join(cfg["output"]["directory"], kind, name)


def load_datasets(cfg):
    """Materialize (crafting dataset, holdout dataset) from the config."""
    section = C.validate_dataset_section(cfg)
    try:
        if section["source"] == "idx":
            full = D.load_idx(section["images"], section["labels"])
        else:
            full = D.synth_blobs(
                section["num_classes"], section["n"], tuple(section["shape"]),
                section["spread"], seed=section["seed"], modes=section.get("modes", 1),
            )
        n = len(full)
        n_holdout = int(round(n * section["holdout_fraction"]))
        order = np.random.default_rng(section["seed"] ^ 0x5EED).permutation(n)
        hold_idx, train_idx = np.sort(order[:n_holdout]), np.sort(order[n_holdout:])
        train = full.take(train_idx, f"{full.name}-train")
        holdout = full.take(hold_idx, f"{full.name}-holdout") if n_holdout else train
        craft_ds = train
        if section["subset_size"]:
            craft_ds = D.subset(train, section["subset_size"], seed=section["seed"])
    except ArtifactMissing as exc:
        raise ConfigError(f"dataset.images and dataset.labels must be readable IDX files: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"invalid dataset section: {exc}") from exc
    return craft_ds, train, holdout


def _checkpoint_path(cfg):
    model = cfg["model"]
    return model["checkpoint"] or _out_path(cfg, "checkpoints", f"{model['arch']}-s{model['train']['seed']}.uapt")


def cmd_train(cfg):
    path = _checkpoint_path(cfg)
    _, train_ds, holdout = load_datasets(cfg)
    section = cfg["model"]
    num_classes = int(train_ds.labels.max()) + 1 if train_ds.labels is not None else 0
    if num_classes < 2:
        raise ConfigError("training dataset must carry labels with at least two classes")
    tr = section["train"]
    try:
        spec = M.make_architecture(section["arch"], train_ds.sample_shape, num_classes, section["hidden"])
        model = M.build_model(spec, train_ds.sample_shape, seed=tr["seed"])
        model = M.train_erm(model, train_ds, epochs=tr["epochs"], lr=tr["lr"], batch=tr["batch"], seed=tr["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    M.save_checkpoint(model, path, extra={
        "train_config": tr,
        "dataset_fingerprint": train_ds.fingerprint,
        "arch": section["arch"],
    })
    train_acc = model.history[-1]["accuracy"] if model.history else float("nan")
    test_acc = float(np.mean(model.predict(holdout.images) == holdout.labels))
    print(f"checkpoint: {path}")
    print(f"train accuracy: {train_acc:.4f}")
    print(f"test accuracy: {test_acc:.4f}")
    return 0


def _craft_target(cfg):
    paths = cfg["model"]["ensemble"] or [_checkpoint_path(cfg)]
    models = [M.load_checkpoint(p)[0] for p in paths]
    return M.as_attack_target(models)


def cmd_craft(cfg):
    craft_ds, _, _ = load_datasets(cfg)
    atk = C.attack_config(cfg)
    target = _craft_target(cfg)
    delta, runlog = A.craft(atk, target, craft_ds)
    path = _out_path(cfg, "deltas", f"{atk.variant}-{content_hash(delta)[:12]}.uapt")
    meta = A.save_uap_artifact(path, delta, atk, target, craft_ds, runlog)
    print(f"delta artifact: {path}")
    print(f"content hash: {meta['content_hash']}")
    print(f"final mean loss: {meta['run_summary']['final_mean_loss']:.4f}")
    return 0


def cmd_eval(cfg):
    delta_paths = cfg["eval"]["deltas"]
    if not delta_paths:
        raise ConfigError("eval.deltas must list at least one perturbation artifact")
    _, _, holdout = load_datasets(cfg)
    target_paths = cfg["eval"]["targets"] or [_checkpoint_path(cfg)]
    models = []
    for p in target_paths:
        model, _ = M.load_checkpoint(p)
        models.append((os.path.splitext(os.path.basename(p))[0], model))
    deltas = []
    for p in delta_paths:
        delta, meta = A.load_uap_artifact(p)
        tag = meta.get("config", {}).get("variant", os.path.basename(p))
        deltas.append((f"{tag}:{meta['content_hash'][:8]}", delta))
    tm = E.transfer_matrix(models, deltas, holdout)
    stem = _out_path(cfg, "reports", f"transfer-{holdout.fingerprint[:8]}")
    written = []
    for fmt in cfg["output"]["formats"]:
        out = f"{stem}.{fmt}"
        E.report_write(tm, out, fmt)
        written.append(out)
    for i, tag in enumerate(tm.surrogates):
        print(f"{tag}: ratios {['%.4f' % v for v in tm.ratios[i]]} avg {tm.row_averages[i]:.4f}")
    for out in written:
        print(f"report: {out}")
    return 0


def cmd_ablate(cfg):
    axis = cfg["ablate"]["axis"]
    values = cfg["ablate"]["values"]
    if axis not in ABLATE_AXES:
        raise ConfigError(f"ablate.axis must be one of {ABLATE_AXES}, got {axis!r}")
    if not values:
        raise ConfigError("ablate.values must be a non-empty list")
    base = C.attack_config(cfg)
    points = []
    for value in values:
        C.check_override(f"attack.{axis}", value)
        try:
            points.append(replace(base, **{axis: value}))
        except ValueError as exc:
            raise ConfigError(f"invalid sweep value {value!r} for axis {axis}: {exc}") from exc
    craft_ds, _, holdout = load_datasets(cfg)
    target = _craft_target(cfg)
    lines = [f"{axis},fooling_ratio,n,delta_hash"]
    for value, atk in zip(values, points):
        delta, _ = A.craft(atk, target, craft_ds)
        rep = E.fooling_ratio(target, holdout, delta)
        lines.append(f"{value},{rep.fooling_ratio:.4f},{rep.n_evaluated},{rep.delta_hash}")
        print(f"{axis}={value}: fooling ratio {rep.fooling_ratio:.4f}")
    out = _out_path(cfg, "reports", f"ablate-{axis}.csv")
    write_atomic(out, ("\n".join(lines) + "\n").encode())
    print(f"sweep report: {out}")
    return 0


def cmd_verify(cfg, paths):
    failures = 0
    for path in paths:
        try:
            load_artifact(path)
            print(f"OK {path}")
        except ContentMismatch:
            print(f"MISMATCH {path}")
            failures += 1
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="uapforge", description=__doc__)
    parser.add_argument("--config", help="path to the JSON run config")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config value (dotted path), repeatable")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="train the surrogate model and write a checkpoint")
    craft = sub.add_parser("craft", help="craft a universal perturbation artifact")
    craft.add_argument("--variant", choices=sorted(A.VARIANTS), help="attack variant preset")
    sub.add_parser("eval", help="evaluate perturbation artifacts against target models")
    ablate = sub.add_parser("ablate", help="sweep one attack axis, craft + eval per point")
    ablate.add_argument("--axis", choices=ABLATE_AXES)
    ablate.add_argument("--values", help="JSON list of sweep values")
    verify = sub.add_parser("verify", help="recompute artifact hashes and compare")
    verify.add_argument("paths", nargs="+", help="artifact files to verify")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    sets = list(args.set)
    if getattr(args, "variant", None):
        sets.append(f"attack.variant={args.variant}")
    if getattr(args, "axis", None):
        sets.append(f"ablate.axis={args.axis}")
    if getattr(args, "values", None):
        sets.append(f"ablate.values={args.values}")
    try:
        cfg = C.load_config(args.config, sets=sets)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "craft":
            return cmd_craft(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.paths)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
