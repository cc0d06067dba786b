"""The three benchmark workloads.

Each workload has `setup(seed)`, which builds its inputs from the seed before
the timed region, and `op(state)`, one closed-loop operation. An operation
returns its wall times by phase, the failures of its output checks, the
holdout fooling ratio and a content hash of the perturbation it produced;
equal seeds give equal hashes.

Why these three (also recorded in BENCHMARK.json):

- craft-dm: the paper's dynamic maximin loop on a 1x16x16 surrogate. 20 of
  the 21 gradients per mini-batch are float64 inner-loop gradients w.r.t.
  parameters and input; conv2d and maxpool2 dominate.
- craft-spgd-rgb: the SPGD baseline (rho = r = 0) on a float32 3x32x32
  surrogate. The inner loops short-circuit, one float32 perturbation gradient
  per batch remains, and the im2col buffer outgrows L2, so a kernel change
  that helps one cache regime and hurts the other shows.
- cli-pipeline: what a command-line user pays per command: dataset
  synthesis and fingerprints on every command, ERM training, forward-only
  evaluation, tensor files, the two-model ensemble gradient and `verify`.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import time

import numpy as np

from uapforge import attack as A
from uapforge import cli
from uapforge import config as C
from uapforge import data as D
from uapforge import evaluate as E
from uapforge import models as M
from uapforge.tensor import array_fingerprint

NUM_CLASSES = 4
TRAIN = {"lr": 0.15, "batch": 64}


def delta_hash(delta):
    """SHA-256 of the perturbation's float64 bytes, for cross-run determinism."""
    return hashlib.sha256(np.ascontiguousarray(delta, dtype=np.float64).tobytes()).hexdigest()


def params_hash(model):
    """SHA-256 of a model's parameter bytes."""
    return hashlib.sha256(np.ascontiguousarray(model.params).tobytes()).hexdigest()


def check_delta(delta, epsilon):
    failures = []
    if not np.all(np.isfinite(delta)):
        failures.append("delta has non-finite values")
    elif float(np.abs(delta).max()) > epsilon:
        failures.append(f"delta exceeds epsilon: {float(np.abs(delta).max())} > {epsilon}")
    return failures


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


class CraftWorkload:
    """`attack.craft` against a cnn_small surrogate trained in setup.

    One operation crafts on the 500-sample subset and then measures the
    holdout fooling ratio of the result, as each point of `ablate` does.
    Repeated crafts against the same surrogate reuse the clean-model
    pseudo-labels, so the first operation of a run is the only cold one.
    Each operation also trains the surrogate's untrained initial state for
    one epoch, so that surrogate training is timed across the whole run and
    not only in the set-up.
    """

    def __init__(self, shape, n, variant, craft_epochs, train_epochs, tiny=False):
        self.shape = shape
        self.n = 80 if tiny else n
        self.subset_size = 40 if tiny else 500
        self.batch = 20 if tiny else 125
        self.variant = variant
        self.craft_epochs = craft_epochs
        self.train_epochs = 1 if tiny else train_epochs
        self.k = 2 if tiny else 10

    def setup(self, seed):
        cfg = C.load_config(None, sets=[
            f"dataset.num_classes={NUM_CLASSES}", f"dataset.n={self.n}",
            f"dataset.shape={json.dumps(list(self.shape))}", f"dataset.subset_size={self.subset_size}",
            f"dataset.seed={seed}",
        ])
        craft_ds, train, holdout = cli.load_datasets(cfg)
        initial = M.build_model(M.make_architecture("cnn_small", self.shape, NUM_CLASSES), self.shape, seed=seed)
        model = M.train_erm(initial, train, epochs=self.train_epochs, seed=seed, **TRAIN)
        attack = A.apply_variant(
            A.AttackConfig(epochs=self.craft_epochs, batch_size=self.batch, k_model=self.k, k_data=self.k, seed=seed),
            self.variant,
        )
        return {
            "model": model, "initial": initial, "train": train, "craft": craft_ds, "holdout": holdout,
            "attack": attack, "seed": seed,
        }

    def op(self, state):
        (delta, _), craft_s = _timed(A.craft, state["attack"], state["model"], state["craft"])
        report, eval_s = _timed(E.fooling_ratio, state["model"], state["holdout"], delta)
        trained, train_s = _timed(M.train_erm, state["initial"], state["train"], epochs=1, seed=state["seed"], **TRAIN)
        failures = check_delta(delta, state["attack"].epsilon)
        if not np.all(np.isfinite(trained.params)):
            failures.append("training gave non-finite parameters")
        return {
            "craft_s": craft_s, "eval_s": eval_s, "train_s": train_s, "wall_s": craft_s + eval_s + train_s,
            "craft_samples": len(state["craft"]) * self.craft_epochs,
            "eval_samples": len(state["holdout"]), "train_samples": len(state["train"]),
            "fooling_ratio": report.fooling_ratio, "delta_hash": delta_hash(delta),
            "train_hash": params_hash(trained), "failures": failures,
        }


class PipelineWorkload:
    """In-process `uapforge.cli.main` over the whole command sequence.

    Train cnn_small, train mlp, craft against the two-model ensemble with
    the alternating order at small k, eval the transfer matrix on holdout,
    then verify every artifact. Every operation gets a fresh output directory
    and an empty pseudo-label cache, as a new process per command would.
    """

    MODELS = ("cnn_small", "mlp")

    def __init__(self, workdir, tiny=False):
        self.workdir = workdir
        self.tiny = tiny

    def setup(self, seed):
        """Write the run config and materialize its datasets once, for their sizes."""
        os.makedirs(self.workdir, exist_ok=True)
        doc = {
            "dataset": {"subset_size": 40 if self.tiny else 250, "seed": seed, **({"n": 120} if self.tiny else {})},
            "model": {"train": {"epochs": 1 if self.tiny else 2, "seed": seed}},
            "attack": {"epochs": 2, "k_model": 2, "k_data": 2, "order": "alternating", "seed": seed,
                       **({"batch_size": 20} if self.tiny else {})},
        }
        path = os.path.join(self.workdir, "run.json")
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
        cfg = C.load_config(path)
        craft_ds, train, holdout = cli.load_datasets(cfg)
        return {
            "config": path, "cfg": cfg, "ops": 0,
            "train_samples": len(train) * cfg["model"]["train"]["epochs"] * len(self.MODELS),
            "craft_samples": len(craft_ds) * cfg["attack"]["epochs"],
            "eval_samples": len(holdout) * len(self.MODELS),
            "epsilon": cfg["attack"]["epsilon"],
        }

    def _main(self, argv, failures):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, wall = _timed(cli.main, argv)
        if code != 0:
            failures.append(f"exit code {code} from {argv[-1]}")
        return out.getvalue(), wall

    def op(self, state):
        state["ops"] += 1
        outdir = os.path.join(self.workdir, f"op{state['ops']}")
        shutil.rmtree(outdir, ignore_errors=True)
        clear = getattr(D, "clear_pseudo_label_cache", None)
        if clear is not None:
            clear()
        base = ["--config", state["config"], "--set", f"output.directory={json.dumps(outdir)}"]
        ckpts = [os.path.join(outdir, "checkpoints", f"{arch}-s{state['cfg']['model']['train']['seed']}.uapt")
                 for arch in self.MODELS]
        failures = []
        start = time.perf_counter()
        train_s = 0.0
        for arch in self.MODELS:
            train_s += self._main(base + ["--set", f"model.arch={arch}", "train"], failures)[1]
        text, craft_s = self._main(base + ["--set", f"model.ensemble={json.dumps(ckpts)}", "craft"], failures)
        delta_path = next((line.split(": ", 1)[1] for line in text.splitlines()
                           if line.startswith("delta artifact: ")), "")
        text, eval_s = self._main(base + ["--set", f"eval.targets={json.dumps(ckpts)}",
                                          "--set", f"eval.deltas={json.dumps([delta_path])}", "eval"], failures)
        reports = [line.split(": ", 1)[1] for line in text.splitlines() if line.startswith("report: ")]
        artifacts = ckpts + [delta_path]
        text, _ = self._main(["verify", *artifacts], failures)
        wall_s = time.perf_counter() - start

        ok = {line[3:] for line in text.splitlines() if line.startswith("OK ")}
        failures += [f"verify did not print OK for {p}" for p in artifacts if p not in ok]
        fooling, dhash = float("nan"), ""
        try:
            delta, _ = A.load_uap_artifact(delta_path)
            failures += check_delta(delta, state["epsilon"])
            dhash = delta_hash(delta)
            with open(next(r for r in reports if r.endswith(".json"))) as f:
                report = json.load(f)
            if {r["delta_hash"] for r in report["reports"]} != {array_fingerprint(delta)}:
                failures.append("eval report delta hash does not match the artifact")
            fooling = float(report["row_averages"][0])
        except (OSError, StopIteration, KeyError, IndexError, ValueError) as exc:
            failures.append(f"cannot read the pipeline's outputs: {exc!r}")
        shutil.rmtree(outdir, ignore_errors=True)
        return {
            "train_s": train_s, "craft_s": craft_s, "eval_s": eval_s, "wall_s": wall_s,
            "craft_samples": state["craft_samples"], "eval_samples": state["eval_samples"],
            "train_samples": state["train_samples"],
            "fooling_ratio": fooling, "delta_hash": dhash, "failures": failures,
        }


def make(name, workdir, tiny=False):
    if name == "craft-dm":
        return CraftWorkload((1, 16, 16), 1000, "dm-uap", craft_epochs=1, train_epochs=5, tiny=tiny)
    if name == "craft-spgd-rgb":
        return CraftWorkload((3, 32, 32), 800, "spgd", craft_epochs=2, train_epochs=2, tiny=tiny)
    if name == "cli-pipeline":
        return PipelineWorkload(workdir, tiny=tiny)
    raise KeyError(name)

