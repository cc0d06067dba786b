"""Small classifier models: definition, seeded init, ERM training, checkpoints.

A model is a list of LayerSpec entries plus one flat parameter vector. The
forward graph is rebuilt per call on the autodiff tape; a shared
perturbation shifts the batch before it becomes the input leaf. Parameters
enter only through `with_params`:
the attack's theta-star and each ERM step are the same model at another
parameter vector.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Var
from .data import minibatches
from .errors import TrainingDiverged
from .tensor import TensorFormatError, array_fingerprint, load_artifact, require_finite, save_artifact


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_features: int = 0
    out_features: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    bias: bool = True
    mean: tuple = ()
    std: tuple = ()

    def to_dict(self):
        d = {"kind": self.kind}
        for key in ("in_features", "out_features", "in_channels", "out_channels", "kernel"):
            if getattr(self, key):
                d[key] = getattr(self, key)
        if not self.bias:
            d["bias"] = False
        if self.kind == "normalize":
            d["mean"] = list(self.mean)
            d["std"] = list(self.std)
        return d

    @classmethod
    def from_dict(cls, d):
        kw = dict(d)
        if "mean" in kw:
            kw["mean"] = tuple(kw["mean"])
        if "std" in kw:
            kw["std"] = tuple(kw["std"])
        return cls(**kw)


def dense(n_in, n_out, bias=True):
    return LayerSpec("dense", in_features=n_in, out_features=n_out, bias=bias)


def conv2d(c_in, c_out, kernel):
    return LayerSpec("conv2d", in_channels=c_in, out_channels=c_out, kernel=kernel)


def relu():
    return LayerSpec("relu")


def maxpool2():
    return LayerSpec("maxpool2")


def flatten():
    return LayerSpec("flatten")


def normalize(mean, std):
    mean = tuple(float(m) for m in np.atleast_1d(mean))
    std = tuple(float(s) for s in np.atleast_1d(std))
    return LayerSpec("normalize", mean=mean, std=std)


# the size fields each layer kind uses; each must be a positive int
_SIZE_FIELDS = {"dense": ("in_features", "out_features"), "conv2d": ("in_channels", "out_channels", "kernel")}


def infer_shapes(spec, input_shape):
    """Walk the layer list and return the per-layer output shapes.

    Raises ValueError if adjacent layers do not compose, a size the layer
    uses is not a positive int, `bias` is not a bool, or a normalize layer's
    constants are not finite with a positive std.
    """
    shape = tuple(input_shape)
    shapes = []
    for i, layer in enumerate(spec):
        for key in _SIZE_FIELDS.get(layer.kind, ()):
            size = getattr(layer, key)
            if type(size) is not int or size < 1:
                raise ValueError(f"layer {i} ({layer.kind}) {key} must be a positive int, got {size!r}")
        if type(layer.bias) is not bool:
            raise ValueError(f"layer {i} ({layer.kind}) bias must be a bool, got {layer.bias!r}")
        if layer.kind == "dense":
            if shape != (layer.in_features,):
                raise ValueError(f"layer {i} (dense) expects ({layer.in_features},), got {shape}")
            shape = (layer.out_features,)
        elif layer.kind == "conv2d":
            if len(shape) != 3 or shape[0] != layer.in_channels:
                raise ValueError(f"layer {i} (conv2d) expects ({layer.in_channels}, H, W), got {shape}")
            c, h, w = shape
            k = layer.kernel
            if h < k or w < k:
                raise ValueError(f"layer {i} (conv2d) kernel {k} larger than input {h}x{w}")
            shape = (layer.out_channels, h - k + 1, w - k + 1)
        elif layer.kind == "relu":
            pass
        elif layer.kind == "maxpool2":
            if len(shape) != 3 or shape[1] < 2 or shape[2] < 2:
                raise ValueError(f"layer {i} (maxpool2) needs a [C, H>=2, W>=2] input, got {shape}")
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
        elif layer.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif layer.kind == "normalize":
            if len(shape) != 3 or len(layer.mean) != shape[0] or len(layer.std) != shape[0]:
                raise ValueError(f"layer {i} (normalize) constants do not match {shape}")
            if not (np.all(np.isfinite(layer.mean + layer.std)) and min(layer.std) > 0):
                raise ValueError(f"layer {i} (normalize) needs finite constants and a positive std")
        else:
            raise ValueError(f"unknown layer kind {layer.kind!r}")
        shapes.append(shape)
    return shapes


def _param_layout(spec):
    """[(offset, shape, fan_in)] for every weight/bias array, in layer order, and the total count."""
    layout = []
    offset = 0
    for layer in spec:
        if layer.kind == "dense":
            fan_in = layer.in_features
            shapes = [(layer.in_features, layer.out_features)]
            if layer.bias:
                shapes.append((layer.out_features,))
        elif layer.kind == "conv2d":
            k = layer.kernel
            fan_in = layer.in_channels * k * k
            shapes = [(layer.out_channels, layer.in_channels, k, k), (layer.out_channels,)]
        else:
            continue
        for shape in shapes:
            layout.append((offset, shape, fan_in))
            offset += int(np.prod(shape))
    return layout, offset


def param_count(spec):
    return _param_layout(spec)[1]


# Samples per forward pass in `predict`; bounds the activations held at once.
PREDICT_CHUNK = 1024


class AttackTarget:
    """Loss, loss gradient and chunked prediction shared by models and ensembles.

    A subclass supplies `_check_input` (cast and validate a batch), `logits`
    and `_cross_entropy` (the loss Var of an input Var plus the parameter
    nodes it used, in `flat_params` order).
    """

    def predict(self, X):
        """Per-sample argmax of logits; ties go to the lowest class index."""
        X = self._check_input(X)
        out = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], PREDICT_CHUNK):
            stop = start + PREDICT_CHUNK
            out[start:stop] = np.argmax(self.logits(X[start:stop]), axis=1)
        return out

    def loss(self, X, Y, delta=None):
        loss_var, _, _ = self._loss_graph(X, Y, delta=delta)
        return float(loss_var.value)

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
        loss_var, x_var, pvars = self._loss_graph(X, Y, delta=delta, reduction=reduction)
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

    def _loss_graph(self, X, Y, delta=None, reduction="mean"):
        """(loss Var, input leaf, parameter leaves) of one batch.

        A perturbation of one sample's shape is cast to the batch's dtype and
        added to every sample before the input leaf is made, so the leaf
        holds X + delta.
        """
        X = self._check_input(X)
        Y = np.asarray(Y)
        if Y.shape != (X.shape[0],):
            raise ValueError(f"labels shape {Y.shape} != batch ({X.shape[0]},)")
        if delta is not None:
            delta = np.asarray(delta, dtype=X.dtype)
            if delta.shape != X.shape[1:]:
                raise ValueError(f"perturbation shape {delta.shape} != sample shape {X.shape[1:]}")
            X = X + delta
        x_var = ad.leaf(X)
        loss_var, pvars = self._cross_entropy(x_var, Y, reduction)
        return loss_var, x_var, pvars


@dataclass
class ModelState(AttackTarget):
    """Layer list plus one flat parameter vector."""

    spec: tuple
    params: np.ndarray
    input_shape: tuple
    num_classes: int
    history: list = field(default_factory=list)

    def __post_init__(self):
        expected = param_count(self.spec)
        if self.params.shape != (expected,):
            raise ValueError(f"params length {self.params.shape} != spec count ({expected},)")

    def with_params(self, theta):
        """Same architecture, different flat parameter vector: the one way to
        evaluate a model at other parameters.

        The new model adopts `theta`'s dtype, so a float64 vector yields a
        float64-compute model (used for exact neighborhood accounting).
        """
        return replace(self, params=np.asarray(theta), history=[])

    def fingerprint(self):
        spec_blob = json.dumps([l.to_dict() for l in self.spec], sort_keys=True).encode()
        return array_fingerprint(spec_blob, self.params)

    # -- the interface the attack and evaluation drive ------------------

    def flat_params(self):
        return self.params

    def logits(self, X):
        X = self._check_input(X)
        return self._forward(ad.leaf(X), self._param_vars()).value

    # -- graph construction ---------------------------------------------

    def _check_input(self, X):
        X = np.asarray(X, dtype=self.params.dtype)
        if X.shape[1:] != self.input_shape:
            raise ValueError(f"input shape {X.shape[1:]} != model input {self.input_shape}")
        require_finite(X, "model input")
        return X

    def _param_vars(self):
        layout, _ = _param_layout(self.spec)
        return [Var(self.params[o : o + int(np.prod(s))].reshape(s)) for o, s, _ in layout]

    def _forward(self, x_var, pvars):
        h = x_var
        it = iter(pvars)
        for layer in self.spec:
            if layer.kind == "dense":
                h = ad.matmul(h, next(it))
                if layer.bias:
                    h = ad.add(h, next(it))
            elif layer.kind == "conv2d":
                h = ad.conv2d(h, next(it), next(it))
            elif layer.kind == "relu":
                h = ad.relu(h)
            elif layer.kind == "maxpool2":
                h = ad.maxpool2(h)
            elif layer.kind == "flatten":
                h = ad.flatten(h)
            elif layer.kind == "normalize":
                h = ad.normalize(h, layer.mean, layer.std)
        return h

    def _cross_entropy(self, inp, Y, reduction):
        pvars = self._param_vars()
        return ad.softmax_cross_entropy(self._forward(inp, pvars), Y, reduction=reduction), pvars


def build_model(spec, input_shape, seed=0, dtype=np.float32):
    """Initialize a model with seeded uniform fan-in scaling.

    Weights and biases of each layer are drawn from U(-1/sqrt(fan_in),
    1/sqrt(fan_in)); identical (spec, seed) always yields identical params.
    """
    spec = tuple(spec)
    shapes = infer_shapes(spec, input_shape)
    if len(shapes[-1]) != 1:
        raise ValueError(f"model output must be a logit vector, got shape {shapes[-1]}")
    rng = np.random.default_rng(seed)
    layout, total = _param_layout(spec)
    params = np.empty(total, dtype=np.float64)
    for offset, shape, fan_in in layout:  # each layer's weight, then its bias when present
        bound = 1.0 / np.sqrt(fan_in)
        n = int(np.prod(shape))
        params[offset : offset + n] = rng.uniform(-bound, bound, size=n)
    return ModelState(
        spec=spec,
        params=params.astype(dtype),
        input_shape=tuple(input_shape),
        num_classes=shapes[-1][0],
    )


def train_erm(model, dataset, epochs, lr, batch, seed=0):
    """Mini-batch gradient descent on the mean cross-entropy.

    Returns a new ModelState; the input model is untouched. `history` on the
    result records (epoch, mean batch loss, train accuracy) per epoch.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if dataset.labels is None:
        raise ValueError("training requires ground-truth labels")
    X, Y = dataset.images, dataset.labels
    if Y.min() < 0 or Y.max() >= model.num_classes:
        raise ValueError("dataset labels outside the model's class range")
    trained = model
    history = []
    for epoch in range(epochs):
        losses = []
        for b in minibatches(dataset, batch, epoch_seed=seed ^ epoch):
            try:
                loss, grad = trained.loss_grad(b.X, b.Y, "parameters")
            except ValueError as exc:
                raise TrainingDiverged(f"training diverged at epoch {epoch + 1}: {exc}") from exc
            trained = trained.with_params(trained.params - lr * grad)
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
                raise ValueError("ensemble members must share input shape and class count")
        self.models = tuple(self.models)

    @property
    def input_shape(self):
        return self.models[0].input_shape

    def fingerprint(self):
        return array_fingerprint("|".join(m.fingerprint() for m in self.models).encode())

    def flat_params(self):
        return np.concatenate([m.params for m in self.models])

    def with_params(self, theta):
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

    def _cross_entropy(self, inp, Y, reduction):
        terms, pvars = [], []
        for m in self.models:
            term, member_pvars = m._cross_entropy(inp, Y, reduction)
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
        head_in = int(np.prod(infer_shapes(spec, input_shape)[-1]))
        spec += [dense(head_in, hidden), relu(), dense(hidden, num_classes)]
    else:
        raise ValueError(f"unknown architecture {name!r}")
    infer_shapes(spec, input_shape)
    return spec


# -- checkpoints ----------------------------------------------------------


def save_checkpoint(model, path, extra=None):
    """Write params as a tensor artifact whose sidecar describes the model."""
    meta = {
        "spec": [l.to_dict() for l in model.spec],
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
        spec = tuple(LayerSpec.from_dict(d) for d in meta["spec"])
        input_shape = tuple(meta["input_shape"])
        shapes = infer_shapes(spec, input_shape)
        if not shapes or shapes[-1] != (meta["num_classes"],):
            raise ValueError(f"num_classes {meta['num_classes']!r} is not the last layer's width")
        model = ModelState(spec=spec, params=params, input_shape=input_shape, num_classes=meta["num_classes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TensorFormatError(f"checkpoint {path}: bad metadata ({type(exc).__name__}: {exc})") from exc
    return model, meta
