"""Every function of the package is run by some command.

The commands a user runs, at a tiny size, run in process under
`sys.setprofile`: `train` (cnn_small and mlp), `craft` (the full loop, the
spgd variant and a two-model ensemble with the alternating order), `eval`,
`ablate`, `verify`, and a `train` on an IDX pair. Every `def` in
`src/uapforge/*.py` must have been entered, apart from the allowlist below,
whose entries code outside the package calls. A function only tests reach
belongs in a test module. The sequence must also leave every module-level
`dict`, `list` and `set` of the package as it found it: a command keeps no
state for the next one.
"""

import ast
import json
import pickle
import sys
from pathlib import Path

import oracles
import uapforge
from uapforge import cli
from uapforge import data as D

SRC = Path(uapforge.__file__).parent

# (module, qualified name) of the functions no command runs, each with the caller that keeps it
ALLOWED = {
    ("evaluate", "fooling_ratio"): "bench/workloads.py measures each craft workload's delta with it",
}

CONFIG = {
    "dataset": {"num_classes": 3, "n": 60, "shape": [1, 10, 10], "spread": 0.08, "subset_size": 24, "seed": 1},
    "model": {"hidden": 6, "train": {"epochs": 1, "lr": 0.3, "batch": 20, "seed": 0}},
    "attack": {"epochs": 1, "batch_size": 12, "k_model": 1, "k_data": 1, "rho": 0.2, "r": 2.0, "epsilon": 0.1},
}


def package_defs():
    """{(file, first line): (module, qualified name)} of every def in the package.

    The first line is a decorated function's first decorator, as in its code object's co_firstlineno.
    """
    defs = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    defs[str(path), first] = (module, name)
                visit(child, path, module, name + ".")
            else:
                visit(child, path, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem, "")
    return defs


def run_commands(tmp_path, capsys):
    """Run the tiny command sequence; the (file, first line) of every code object it entered."""
    (tmp_path / "run.json").write_text(json.dumps(CONFIG))
    blobs = D.synth_blobs(3, 40, (1, 10, 10), spread=0.08, seed=2)
    oracles.save_idx(blobs, tmp_path / "images.idx", tmp_path / "labels.idx")
    cnn, mlp = "out/checkpoints/cnn_small-s0.uapt", "out/checkpoints/mlp-s0.uapt"
    ensemble = json.dumps([cnn, mlp])
    idx = json.dumps({"source": "idx", "images": "images.idx", "labels": "labels.idx"})
    deltas = []

    def run(*argv):
        assert cli.main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        deltas.extend(line.split(": ", 1)[1] for line in out.splitlines() if line.startswith("delta artifact: "))

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    base = ("--config", "run.json")
    sys.setprofile(hook)
    try:
        run(*base, "--set", "model.arch=cnn_small", "train")
        run(*base, "--set", "model.arch=mlp", "train")
        run(*base, "craft")
        run(*base, "craft", "--variant", "spgd")
        run(*base, "--set", f"model.ensemble={ensemble}", "--set", "attack.order=alternating", "craft")
        run(*base, "--set", f"eval.targets={ensemble}", "--set", f"eval.deltas={json.dumps(deltas)}", "eval")
        run(*base, "ablate", "--axis", "order", "--values", '["model_first", "none"]')
        run("verify", cnn, mlp, *deltas)
        run(*base, "--set", f"dataset={idx}", "--set", "model.arch=mlp", "--set", "model.checkpoint=idx.uapt", "train")
    finally:
        sys.setprofile(None)
    return entered


def module_containers():
    """{"module.name": pickled bytes} of every module-level dict, list and set of the package."""
    return {
        f"{module_name.removeprefix('uapforge.')}.{name}": pickle.dumps(value)
        for module_name, module in sorted(sys.modules.items())
        if module_name.startswith("uapforge.")
        for name, value in sorted(vars(module).items())
        if type(value) in (dict, list, set)
    }


def test_every_function_is_run_by_a_command(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    before = module_containers()
    entered = run_commands(tmp_path, capsys)
    after = module_containers()
    changed = sorted(name for name in before if before[name] != after.get(name))
    assert not changed, f"the commands changed module-level state {changed}: keep it on an object a call owns"
    defs = package_defs()
    assert set(ALLOWED) <= set(defs.values()), "an allowlisted function is gone; drop it from ALLOWED"
    unreached = sorted(name for key, name in defs.items() if key not in entered and name not in ALLOWED)
    assert not unreached, f"no command runs {unreached}: move test-only code to tests/, or delete it"
