"""Small classifier models: definition, seeded init, ERM training, checkpoints.

A model is a list of layers plus one flat parameter vector. A layer is the
JSON object a checkpoint stores: its "kind" and that kind's keys. The
forward graph is rebuilt per call on the autodiff tape; a shared
perturbation shifts the batch before it becomes the input leaf. Parameters
enter only through `with_params`:
the attack's theta-star and each ERM step are the same model at another
parameter vector.
"""

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import minibatches
from .errors import ConfigError, TrainingDiverged
from .tensor import TensorFormatError, array_fingerprint, load_artifact, require_finite, save_artifact


def dense(n_in, n_out, bias=True):
    layer = {"kind": "dense", "in_features": n_in, "out_features": n_out}
    if bias is not True:
        layer["bias"] = bias
    return layer


def conv2d(c_in, c_out, kernel):
    return {"kind": "conv2d", "in_channels": c_in, "out_channels": c_out, "kernel": kernel}


def relu():
    return {"kind": "relu"}


def maxpool2():
    return {"kind": "maxpool2"}


def flatten():
    return {"kind": "flatten"}


def normalize(mean, std):
    return {"kind": "normalize", "mean": [float(m) for m in np.atleast_1d(mean)],
            "std": [float(s) for s in np.atleast_1d(std)]}


# the keys each layer kind takes besides "kind"; a dense layer may also give a bool "bias"
_LAYER_KEYS = {
    "dense": {"in_features", "out_features"},
    "conv2d": {"in_channels", "out_channels", "kernel"},
    "relu": set(),
    "maxpool2": set(),
    "flatten": set(),
    "normalize": {"mean", "std"},
}


def walk(spec, input_shape):
    """Check a layer list against an input shape and lay out its parameters.

    Returns (per-layer output shapes, layout, parameter count); the layout
    holds (offset, shape, fan_in) of every weight and bias array in layer
    order. Raises ValueError for an empty list, an unknown kind, a key the
    kind does not take, a size that is not a positive int, a non-bool
    `bias`, layers that do not compose, or normalize constants that are not
    finite with a positive std.
    """
    if not spec:
        raise ValueError("a model needs at least one layer")
    shape = tuple(input_shape)
    shapes, layout, count = [], [], 0
    for i, layer in enumerate(spec):
        if not isinstance(layer, dict) or layer.get("kind") not in _LAYER_KEYS:
            raise ValueError(f"layer {i} is not a layer of a known kind: {layer!r}")
        kind = layer["kind"]
        keys = set(layer) - {"kind"}
        required = _LAYER_KEYS[kind]
        if not required <= keys <= required | ({"bias"} if kind == "dense" else set()):
            raise ValueError(f"layer {i} ({kind}) takes the keys {sorted(required)}, got {sorted(keys)}")
        for key in sorted(required - {"mean", "std"}):
            if type(layer[key]) is not int or layer[key] < 1:
                raise ValueError(f"layer {i} ({kind}) {key} must be a positive int, got {layer[key]!r}")
        bias = layer.get("bias", True)
        if type(bias) is not bool:
            raise ValueError(f"layer {i} ({kind}) bias must be a bool, got {bias!r}")
        weights = []  # the shapes of this layer's parameter arrays, weight first
        if kind == "dense":
            n_in, n_out = layer["in_features"], layer["out_features"]
            if shape != (n_in,):
                raise ValueError(f"layer {i} (dense) expects ({n_in},), got {shape}")
            shape = (n_out,)
            fan_in = n_in
            weights = [(n_in, n_out)] + ([(n_out,)] if bias else [])
        elif kind == "conv2d":
            c_in, c_out, k = layer["in_channels"], layer["out_channels"], layer["kernel"]
            if len(shape) != 3 or shape[0] != c_in:
                raise ValueError(f"layer {i} (conv2d) expects ({c_in}, H, W), got {shape}")
            _, h, w = shape
            if h < k or w < k:
                raise ValueError(f"layer {i} (conv2d) kernel {k} larger than input {h}x{w}")
            shape = (c_out, h - k + 1, w - k + 1)
            fan_in = c_in * k * k
            weights = [(c_out, c_in, k, k), (c_out,)]
        elif kind == "maxpool2":
            if len(shape) != 3 or shape[1] < 2 or shape[2] < 2:
                raise ValueError(f"layer {i} (maxpool2) needs a [C, H>=2, W>=2] input, got {shape}")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        elif kind == "flatten":
            shape = (math.prod(shape),)
        elif kind == "normalize":
            mean, std = layer["mean"], layer["std"]
            if len(shape) != 3 or len(mean) != shape[0] or len(std) != shape[0]:
                raise ValueError(f"layer {i} (normalize) constants do not match {shape}")
            if not (np.all(np.isfinite(mean + std)) and min(std) > 0):
                raise ValueError(f"layer {i} (normalize) needs finite constants and a positive std")
        for w_shape in weights:
            layout.append((count, w_shape, fan_in))
            count += math.prod(w_shape)
        shapes.append(shape)
    return shapes, layout, count


# Samples per forward pass in `predict`; bounds the activations held at once.
PREDICT_CHUNK = 1024


class AttackTarget:
    """Loss gradient and chunked prediction shared by models and ensembles.

    A subclass supplies `_check_input` (cast and validate a batch), `logits`
    and `_cross_entropy` (the loss Var of an input Var plus the parameter
    leaves it used, in `flat_params` order, each needing a gradient when
    asked to).
    """

    def predict(self, X):
        """Per-sample argmax of logits; ties go to the lowest class index."""
        X = self._check_input(X)
        out = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], PREDICT_CHUNK):
            stop = start + PREDICT_CHUNK
            out[start:stop] = np.argmax(self.logits(X[start:stop]), axis=1)
        return out

    def loss_grad(self, X, Y, wrt, delta=None, reduction="mean"):
        """Loss and its gradient w.r.t. one quantity.

        wrt "parameters" -> flat vector matching flat_params(); "input" ->
        same shape as X, taken at X + delta; "perturbation" -> one sample's
        shape, the input gradient summed over the batch.
        """
        if wrt not in ("parameters", "input", "perturbation"):
            raise ValueError(f"unsupported wrt target {wrt!r}")
        if wrt == "perturbation" and delta is None:
            raise ValueError("no perturbation in this graph; pass delta")
        loss_var, x_var, pvars = self._loss_graph(X, Y, delta=delta, reduction=reduction, wrt=wrt)
        loss = float(loss_var.value)
        if not np.isfinite(loss):
            raise ValueError("non-finite loss")
        ad.backward(loss_var)
        if wrt == "input":
            grad = x_var.grad
        elif wrt == "perturbation":
            grad = x_var.grad.sum(axis=0)
        elif pvars:
            # each block at its own parameters' dtype, as flat_params concatenates them
            grad = np.concatenate([p.grad.astype(p.value.dtype, copy=False).reshape(-1) for p in pvars])
        else:
            grad = np.zeros(0, dtype=self.flat_params().dtype)
        require_finite(grad, "gradient")
        return loss, grad

    def _loss_graph(self, X, Y, delta=None, reduction="mean", wrt=None):
        """(loss Var, input leaf, parameter leaves) of one batch.

        A perturbation of one sample's shape is cast to the batch's dtype and
        added to every sample before the input leaf is made, so the leaf
        holds X + delta. Only the leaves that `wrt` reads need a gradient:
        the input leaf for "input" and "perturbation", the parameter leaves
        for "parameters", none for None.
        """
        X = self._check_input(X)
        if delta is not None:
            delta = np.asarray(delta, dtype=X.dtype)
            if delta.shape != X.shape[1:]:
                raise ValueError(f"perturbation shape {delta.shape} != sample shape {X.shape[1:]}")
            X = X + delta
        x_var = ad.leaf(X, needs=wrt in ("input", "perturbation"))
        loss_var, pvars = self._cross_entropy(x_var, Y, reduction, params_need=wrt == "parameters")
        return loss_var, x_var, pvars


@dataclass
class ModelState(AttackTarget):
    """Layer list plus one flat parameter vector.

    Making one is the one check of a model: `input_shape` is positive ints,
    the layer list passes `walk`, its output is a vector of `num_classes`
    logits and `params` has the layout's length.
    """

    spec: tuple
    params: np.ndarray
    input_shape: tuple
    num_classes: int
    history: list = field(default_factory=list)
    layout: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = tuple(self.spec)
        self.input_shape = tuple(self.input_shape)
        if not self.input_shape or not all(type(n) is int and n > 0 for n in self.input_shape):
            raise ValueError(f"input_shape must be positive ints, got {self.input_shape}")
        shapes, self.layout, count = walk(self.spec, self.input_shape)
        if type(self.num_classes) is not int or shapes[-1] != (self.num_classes,):
            raise ValueError(
                f"model output must be a logit vector of num_classes {self.num_classes!r}, got shape {shapes[-1]}"
            )
        if self.params.shape != (count,):
            raise ValueError(f"params length {self.params.shape} != spec count ({count},)")

    def with_params(self, theta):
        """Same architecture, different flat parameter vector: the one way to
        evaluate a model at other parameters.

        The new model keeps this model's dtype and `theta` is cast to it, so
        the attack can hold theta-star in float64 while every gradient runs at
        the surrogate's own precision. Only the parameters change, so the new
        model shares this one's checked layer list, shapes and layout and
        only `theta`'s length is checked again.
        """
        theta = np.asarray(theta, dtype=self.params.dtype)
        if theta.shape != self.params.shape:
            raise ValueError(f"params length {theta.shape} != spec count {self.params.shape}")
        model = copy.copy(self)
        model.params, model.history = theta, []
        return model

    def fingerprint(self):
        spec_blob = json.dumps(list(self.spec), sort_keys=True).encode()
        return array_fingerprint(spec_blob, self.params)

    # -- the interface the attack and evaluation drive ------------------

    def flat_params(self):
        return self.params

    def logits(self, X):
        X = self._check_input(X)
        return self._forward(ad.leaf(X, needs=False), self._param_vars(False)).value

    # -- graph construction ---------------------------------------------

    def _check_input(self, X):
        X = np.asarray(X, dtype=self.params.dtype)
        if X.shape[1:] != self.input_shape:
            raise ValueError(f"input shape {X.shape[1:]} != model input {self.input_shape}")
        require_finite(X, "model input")
        return X

    def _param_vars(self, needs):
        return [ad.leaf(self.params[o : o + math.prod(s)].reshape(s), needs=needs) for o, s, _ in self.layout]

    def _forward(self, x_var, pvars):
        h = x_var
        it = iter(pvars)
        for layer in self.spec:
            kind = layer["kind"]
            if kind == "dense":
                h = ad.matmul(h, next(it), next(it) if layer.get("bias", True) else None)
            elif kind == "conv2d":
                h = ad.conv2d(h, next(it), next(it))
            elif kind == "relu":
                h = ad.relu(h)
            elif kind == "maxpool2":
                h = ad.maxpool2(h)
            elif kind == "flatten":
                h = ad.flatten(h)
            elif kind == "normalize":
                h = ad.normalize(h, layer["mean"], layer["std"])
        return h

    def _cross_entropy(self, inp, Y, reduction, params_need):
        pvars = self._param_vars(params_need)
        return ad.softmax_cross_entropy(self._forward(inp, pvars), Y, reduction=reduction), pvars


def build_model(spec, input_shape, seed=0, dtype=np.float32):
    """Initialize a model with seeded uniform fan-in scaling.

    Weights and biases of each layer are drawn from U(-1/sqrt(fan_in),
    1/sqrt(fan_in)); identical (spec, seed) always yields identical params.
    """
    shapes, layout, count = walk(spec, input_shape)
    rng = np.random.default_rng(seed)
    params = np.empty(count, dtype=np.float64)
    for offset, shape, fan_in in layout:  # each layer's weight, then its bias when present
        bound = 1.0 / np.sqrt(fan_in)
        n = math.prod(shape)
        params[offset : offset + n] = rng.uniform(-bound, bound, size=n)
    # the width of a logit vector; ModelState rejects any other output shape
    num_classes = math.prod(shapes[-1])
    return ModelState(spec=spec, params=params.astype(dtype), input_shape=input_shape, num_classes=num_classes)


def train_erm(model, dataset, epochs, lr, batch, seed=0):
    """Mini-batch gradient descent on the mean cross-entropy.

    Returns a new ModelState; the input model is untouched. `history` on the
    result records (epoch, mean batch loss, train accuracy) per epoch.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    X, Y = dataset.images, dataset.labels
    if Y.min() < 0 or Y.max() >= model.num_classes:
        raise ValueError("dataset labels outside the model's class range")
    trained = model
    history = []
    for epoch in range(epochs):
        losses = []
        for b in minibatches(dataset, batch, epoch_seed=seed ^ epoch):
            try:
                # a diverging step overflows; the explicit finiteness checks report it, not numpy warnings
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grad = trained.loss_grad(b.X, b.Y, "parameters")
                    params = require_finite(trained.params - lr * grad, "parameters")
            except ValueError as exc:
                raise TrainingDiverged(f"training diverged at epoch {epoch + 1}: {exc}") from exc
            trained = trained.with_params(params)
            losses.append(loss)
        acc = float(np.mean(trained.predict(X) == Y))
        history.append({"epoch": epoch + 1, "loss": float(np.mean(losses)), "accuracy": acc})
    out = model.with_params(trained.params)
    out.history = history
    return out


# -- ensembles -----------------------------------------------------------


@dataclass
class Ensemble(AttackTarget):
    """Several models attacked through their averaged cross-entropy loss."""

    models: tuple

    def __post_init__(self):
        if not self.models:
            raise ValueError("empty model list")
        first = self.models[0]
        for m in self.models[1:]:
            if m.input_shape != first.input_shape or m.num_classes != first.num_classes:
                raise ConfigError("ensemble members must share input shape and class count")
        self.models = tuple(self.models)

    @property
    def input_shape(self):
        return self.models[0].input_shape

    def fingerprint(self):
        return array_fingerprint("|".join(m.fingerprint() for m in self.models).encode())

    def flat_params(self):
        return np.concatenate([m.params for m in self.models])

    def with_params(self, theta):
        """The ensemble at a flat parameter vector; each member keeps its own dtype."""
        return Ensemble(tuple(m.with_params(th) for m, th in zip(self.models, self._split(theta))))

    def logits(self, X):
        """Averaged member logits (the ensemble's joint prediction)."""
        out = self.models[0].logits(X).astype(np.float64)
        for m in self.models[1:]:
            out += m.logits(X)
        return out / len(self.models)

    def _split(self, theta):
        """One slice of a flat ensemble parameter vector per member."""
        theta = np.asarray(theta)
        sizes = [m.params.size for m in self.models]
        if theta.size != sum(sizes):
            raise ValueError(f"theta length {theta.size} != ensemble count {sum(sizes)}")
        return np.split(theta, np.cumsum(sizes)[:-1])

    def _check_input(self, X):
        return self.models[0]._check_input(X)

    def _cross_entropy(self, inp, Y, reduction, params_need):
        terms, pvars = [], []
        for m in self.models:
            term, member_pvars = m._cross_entropy(inp, Y, reduction, params_need)
            terms.append(term)
            pvars += member_pvars
        return ad.add_scalars(terms, [1.0 / len(terms)] * len(terms)), pvars


def as_attack_target(model_or_models):
    """Normalize a single model or a list into one attackable object."""
    if isinstance(model_or_models, AttackTarget):
        return model_or_models
    models = tuple(model_or_models)
    return models[0] if len(models) == 1 else Ensemble(models)


def make_architecture(name, input_shape, num_classes, hidden=32):
    """Layer list for one of the named small architectures.

    "linear" and "mlp" flatten image inputs; "cnn_small" is two conv/pool
    stages followed by a two-layer head.
    """
    input_shape = tuple(input_shape)
    image = len(input_shape) == 3
    flat = int(np.prod(input_shape))
    if name == "linear":
        spec = ([flatten()] if image else []) + [dense(flat, num_classes)]
    elif name == "mlp":
        spec = ([flatten()] if image else []) + [dense(flat, hidden), relu(), dense(hidden, num_classes)]
    elif name == "cnn_small":
        if not image:
            raise ValueError("cnn_small needs a [C, H, W] input shape")
        c = input_shape[0]
        # centering [0,1] pixels keeps plain SGD well conditioned
        spec = [normalize([0.5] * c, [0.5] * c),
                conv2d(c, 8, 3), relu(), maxpool2(), conv2d(8, 16, 3), relu(), maxpool2(), flatten()]
        shapes, _, _ = walk(spec, input_shape)
        spec += [dense(math.prod(shapes[-1]), hidden), relu(), dense(hidden, num_classes)]
    else:
        raise ValueError(f"unknown architecture {name!r}")
    return spec


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(model, path, extra=None):
    """Write params as a tensor artifact whose sidecar describes the model."""
    meta = {
        "spec": list(model.spec),
        "input_shape": list(model.input_shape),
        "num_classes": model.num_classes,
        "dtype": str(model.params.dtype),
        "params_fingerprint": array_fingerprint(model.params),
        "history": model.history,
    }
    if extra:
        meta.update(extra)
    save_artifact(path, model.params, meta)


def load_checkpoint(path):
    """(model, metadata) of a checkpoint; metadata that cannot describe the payload raises TensorFormatError."""
    params, meta = load_artifact(path)
    try:
        model = ModelState(
            spec=meta["spec"], params=params, input_shape=meta["input_shape"], num_classes=meta["num_classes"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TensorFormatError(f"checkpoint {path}: bad metadata ({type(exc).__name__}: {exc})") from exc
    return model, meta
