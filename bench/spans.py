"""Span tracer for the benchmark's traced runs.

Spans are recorded from outside the program: `Tracer.install` replaces public
functions of the `uapforge` modules with wrappers that open a span, call the
original and close the span, and `Tracer.uninstall` puts the originals back.
A function imported by name into another module (`attack` imports
`minibatches`, `pseudo_labels`, `normalized_descent_step` and `adam_step`
that way) is replaced wherever the same object is bound, so every caller is
seen. Primitive backward passes are timed by wrapping the `vjp` of each `Var`
a wrapped `autodiff` primitive returns. A name the program no longer has is
skipped, and its metrics read 0.

Spans are kept in memory as (name, start, end, parent span, run id) and
written out when the run ends. A span's self time is its duration minus the
time its direct child spans cover; the program is single-threaded, so child
spans never overlap.

Operation counts for conv2d and matmul are computed from argument shapes, not
measured: `flops` counts 2 per multiply-add of the matrix products, `bytes`
the sizes of the arrays each pass reads or writes, once each. Both repeat
exactly for a given workload.
"""

import functools
import time
from collections import defaultdict


def _arg_len(index):
    return lambda args, result: len(args[index])


# (module, attribute, span name, optional (quantity, amount(args, result))).
FUNCTIONS = [
    ("autodiff", "backward", "autodiff.backward", None),
    ("models", "train_erm", "models.train_erm", None),
    ("attack", "craft", "attack.craft", None),
    ("attack", "inner_model_opt", "attack.inner_model_opt", None),
    ("attack", "inner_data_opt", "attack.inner_data_opt", None),
    ("attack", "_alternating_opt", "attack.alternating_opt", None),
    ("attack", "uap_update", "attack.uap_update", None),
    ("optim", "normalized_descent_step", "optim.normalized_descent_step", None),
    ("optim", "adam_step", "optim.adam_step", None),
    ("data", "minibatches", "data.minibatches", None),
    ("data", "pseudo_labels", "data.pseudo_labels", None),
    ("data", "subset", "data.subset", None),
    ("data", "synth_blobs", "data.synth_blobs", None),
    ("tensor", "fnv1a_64", "tensor.fnv1a_64", ("bytes", _arg_len(0))),
    ("tensor", "save_tensor", "tensor.save_tensor", ("bytes", lambda args, result: args[1].nbytes)),
    ("tensor", "load_tensor", "tensor.load_tensor", ("bytes", lambda args, result: result.nbytes)),
    ("evaluate", "fooling_ratio", "evaluate.fooling_ratio", None),
    ("evaluate", "transfer_matrix", "evaluate.transfer_matrix", None),
    ("evaluate", "report_write", "evaluate.report_write", None),
    ("cli", "load_datasets", "cli.load_datasets", None),
    ("cli", "cmd_train", "cli.cmd_train", None),
    ("cli", "cmd_craft", "cli.cmd_craft", None),
    ("cli", "cmd_eval", "cli.cmd_eval", None),
    ("cli", "cmd_verify", "cli.cmd_verify", None),
    ("config", "load_config", "config.load_config", None),
]

# (module, class, method, span name, optional counter) for methods. The span
# name may be a function of the call's arguments.
METHODS = [
    ("models", "ModelState", "loss_grad",
     lambda args, kwargs: "models.loss_grad." + kwargs.get("wrt", args[3] if len(args) > 3 else ""), None),
    ("models", "ModelState", "with_params", "models.with_params", None),
    ("models", "ModelState", "predict", "models.predict", ("samples", _arg_len(1))),
    ("models", "Ensemble", "predict", "models.predict", ("samples", _arg_len(1))),
    ("models", "Ensemble", "loss_grad", "models.Ensemble.loss_grad", None),
    ("data", "Dataset", "__post_init__", "data.Dataset.init", None),
]

# flatten, scale and add_scalars are not reported; wrapping them keeps their
# vjps out of autodiff.backward's self time.
PRIMITIVES = ["conv2d", "maxpool2", "relu", "matmul", "add", "normalize",
              "softmax_cross_entropy", "flatten", "scale", "add_scalars"]

MODULES = ["tensor", "autodiff", "models", "data", "optim", "attack", "evaluate", "config", "cli"]


def _conv2d_cost(args, backward):
    """Computed (flops, bytes) of one conv2d pass from its argument shapes."""
    x, w = args[0].value, args[1].value
    b, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    p = (h - kh + 1) * (wd - kw + 1)
    k = c * kh * kw
    cols, out = b * p * k, b * p * o
    item = x.dtype.itemsize
    if not backward:  # read x, write + read the im2col buffer, read w, write out
        return 2 * b * p * k * o, item * (x.size + 2 * cols + w.size + out)
    # grad_w and the patch gradient are two products of the forward's size:
    # read g, the im2col buffer and w, write + read the patch gradient,
    # write grad_w and grad_x
    return 4 * b * p * k * o, item * (out + cols + w.size + 2 * cols + w.size + x.size)


def _matmul_cost(args, backward):
    x, w = args[0].value, args[1].value
    b, n = x.shape
    m = w.shape[1]
    item = x.dtype.itemsize
    if not backward:
        return 2 * b * n * m, item * (x.size + w.size + b * m)
    # g @ w.T and x.T @ g: read g twice, x and w once, write grad_x and grad_w
    return 4 * b * n * m, item * (2 * b * m + 2 * x.size + 2 * w.size)


COSTS = {"conv2d": _conv2d_cost, "matmul": _matmul_cost}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run id]
        self.counters = defaultdict(float)  # (run id, key) -> amount
        self.run_id = ""
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.run_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, key, amount):
        self.counters[(self.run_id, key)] += amount

    def _span(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            idx = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._count(f"{span_name}.{counter[0]}", counter[1](args, result))
            return result

        return traced

    def _primitive(self, fn, name):
        cost = COSTS.get(name.rpartition(".")[2])

        def counted(args, backward):
            if cost is not None:
                flops, nbytes = cost(args, backward)
                self._count(name + ".flops", flops)
                self._count(name + ".bytes", nbytes)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            counted(args, False)
            inner = out.vjp
            if inner is not None:
                def vjp(g):
                    j = self._open(name + ".bwd")
                    try:
                        return inner(g)
                    finally:
                        self._close(j)
                        counted(args, True)

                out.vjp = vjp
            return out

        return traced

    # -- installing wrappers -----------------------------------------------

    def install(self, package):
        """Wrap every traced function of `package`; names it lacks are skipped."""
        mods = {name: getattr(package, name) for name in MODULES}
        bound = [package, *mods.values()]

        def everywhere(orig, wrapped):
            for mod in bound:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, orig))

        for prim in PRIMITIVES:
            orig = getattr(mods["autodiff"], prim, None)
            if orig is not None:
                everywhere(orig, self._primitive(orig, f"autodiff.{prim}"))
        for mod, attr, name, counter in FUNCTIONS:
            orig = getattr(mods[mod], attr, None)
            if orig is not None:
                everywhere(orig, self._span(orig, name, counter))
        for mod, cls_name, meth, name, counter in METHODS:
            cls = getattr(mods[mod], cls_name, None)
            if cls is not None and meth in vars(cls):
                orig = vars(cls)[meth]
                setattr(cls, meth, self._span(orig, name, counter))
                self._restore.append((cls, meth, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- reading the spans back ----------------------------------------------

    def stats(self):
        """Per-run-id totals: {run id: {key: value}}.

        Keys: `<span>.ms` (inclusive; a span nested in one of the same name
        is not counted again), `<span>.self_ms`, `<span>.calls`, the counters
        recorded under the run id, and `data.pseudo_labels.hit_ratio`: the
        share of calls that ran no prediction, i.e. were served by the cache.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        predicted = set()
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "models.predict":
                    predicted.add(parent)
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, rid) in enumerate(spans):
            acc = out[rid]
            dur = end - start
            acc[name + ".calls"] += 1
            acc[name + ".self_ms"] += 1e3 * (dur - child[i])
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                acc[name + ".ms"] += 1e3 * dur
            if name == "data.pseudo_labels" and i not in predicted:
                acc["data.pseudo_labels.hits"] += 1
        for (rid, key), amount in self.counters.items():
            out[rid][key] += amount
        for acc in out.values():
            calls = acc["data.pseudo_labels.calls"]
            acc["data.pseudo_labels.hit_ratio"] = acc["data.pseudo_labels.hits"] / calls if calls else 0.0
        return out

    def write(self, path):
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent,run_id\n")
            for name, start, end, parent, rid in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent},{rid}\n")


def resolve(stats, metric):
    """Value of one per-layer metric name from one run id's `Tracer.stats`.

    `<p>.fwd_ms` is the inclusive time of span `<p>`, any other `<p>.<q>_ms`
    that of span `<p>.<q>` (`bwd_ms`, `init_ms`). A `.ms`, `.self_ms` or
    `.calls` with no span of that exact name sums the spans one level below
    (`models.loss_grad.self_ms` covers the three `wrt` spans).
    """
    if metric in stats:
        return stats[metric]
    prefix, _, quantity = metric.rpartition(".")
    if quantity == "fwd_ms":
        return stats.get(prefix + ".ms", 0.0)
    if quantity.endswith("_ms") and quantity != "self_ms":
        return stats.get(f"{prefix}.{quantity[:-3]}.ms", 0.0)
    if quantity in ("ms", "self_ms", "calls"):
        dots = metric.count(".") + 1
        return float(sum(v for k, v in stats.items()
                   if k.startswith(prefix + ".") and k.endswith("." + quantity) and k.count(".") == dots))
    return 0.0
