"""Maximum-likelihood training for saccade and duration models.

Both model families share one trainer: parameters are packed into a flat
unconstrained vector (positivity through softplus or log), the objective is
the mean negative log-likelihood per fixation, and optimization is SGD with
Nesterov momentum over whole-scanpath batches, early stopping on validation
loss, and an optional hyperparameter grid. Both adapters evaluate batches as
given, in seconds and pixels. The saccade layout packs its length-bearing
fields in screen units, lengths over the larger screen dimension, through
its transforms; likelihoods and unpacked parameters are always in pixels.

Each adapter, a ``Model``, builds one ``ParamLayout`` from its spec: an
ordered table of blocks, one per parameter field, each with its element
labels, an elementwise transform (identity, softplus or log, times a power
of the screen size where a saccade field carries a length; with derivative
and inverse) and a weight-decay rule. The entry names, ``pack``/``unpack``,
the constrained values, the chain rule that takes ``grad_unit``'s gradient
into the packed vector and the weight-decay mask are all generated from
that table, so a field is declared in one place. The table's order is the
order of the ``raw`` vector in fit documents.

SGD does not step in the packed vector itself but in fitting coordinates z
with ``raw = basis @ z``, where ``basis`` is an invertible matrix each model
derives from its training data and the start of the fit (``fitting_basis``).
The map is exact and linear: the loss is evaluated at ``raw``, its gradient
is pulled back by ``basis.T``, and the packed vector, its names and its order
are what a fit document stores. The learning rate therefore scales steps in
z. Only saccade models with an excitation-center map have a basis other than
the identity: it lifts the amplitude/decay weights towards the curvature of
the center map, so that a learning rate small enough for the map still moves
them.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .data import Rect
from .duration import (
    DurationParams,
    DurationSpec,
    _log_density,
    _means,
    check_kernel,
    duration_loglik_grad,
)
from .errors import ScanppError, ValidationError, check_integer, check_number
from .mathutil import LOG2, sigmoid, softplus, softplus_inv
from .saccade import (
    PathData,
    SaccadeParams,
    SaccadeSpec,
    event_intensities,
    loglik_grad,
    loglik_terms,
)


class DivergenceError(ScanppError):
    """Loss or gradient became non-finite; carries the loss trace so far."""

    def __init__(self, message: str, trace: Sequence[float] = ()):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 64
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        object.__setattr__(self, "split", tuple(float(f) for f in self.split))
        check_number("learning rate", self.learning_rate, 0.0)
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError(f"momentum must lie in [0, 1), got {self.momentum}")
        check_number("weight decay", self.weight_decay, 0.0, closed=True)
        check_integer("batch size", self.batch_size, 1)
        check_integer("max_epochs", self.max_epochs, 1)
        check_integer("patience", self.patience, 0)
        if self.patience > self.max_epochs:
            raise ValidationError(
                f"patience must lie in [0, max_epochs], got {self.patience}")
        check_integer("seed", self.seed, 0)
        _check_split(self.split)

    def replace(self, **changes) -> "TrainConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class GridSpec:
    """Candidate hyperparameter values; the product is enumerated in field order."""

    batch_sizes: tuple[int, ...] = (64, 128, 256)
    learning_rates: tuple[float, ...] = (0.1, 0.01, 0.001)
    weight_decays: tuple[float, ...] = (0.0, 1e-4)
    kernel_inits: tuple[tuple[float, float, float], ...] = ((2.0, 3.0, 0.5),)

    def __post_init__(self):
        # Each entry passes the check of the run that reads it.
        for b in self.batch_sizes:
            TrainConfig(batch_size=b)
        for lr in self.learning_rates:
            TrainConfig(learning_rate=lr)
        for wd in self.weight_decays:
            TrainConfig(weight_decay=wd)
        for k in self.kernel_inits:
            if len(k) != 3:
                raise ValidationError(f"a kernel init is (shape, rate, shift), got {tuple(k)}")
            check_kernel(*k)
        object.__setattr__(self, "batch_sizes", tuple(self.batch_sizes))
        object.__setattr__(self, "learning_rates", tuple(float(v) for v in self.learning_rates))
        object.__setattr__(self, "weight_decays", tuple(float(v) for v in self.weight_decays))
        object.__setattr__(self, "kernel_inits",
                           tuple(tuple(float(x) for x in k) for k in self.kernel_inits))
        for name in ("batch_sizes", "learning_rates", "weight_decays", "kernel_inits"):
            if not getattr(self, name):
                raise ValidationError(f"grid field {name} must be non-empty")

    @property
    def size(self) -> int:
        return (len(self.batch_sizes) * len(self.learning_rates)
                * len(self.weight_decays) * len(self.kernel_inits))


@dataclass(frozen=True)
class Split:
    train: tuple
    val: tuple
    test: tuple


def _check_split(fractions: Sequence[float]) -> None:
    # written so that a NaN fraction fails
    if (len(fractions) != 3 or not all(f >= 0 for f in fractions)
            or not abs(sum(fractions) - 1.0) <= 1e-9):
        raise ValidationError(
            f"split must be three fractions >= 0 that sum to 1, got {tuple(fractions)}")


def split(data: Sequence, fractions: tuple[float, float, float], seed: int) -> Split:
    """Deterministic shuffle-and-cut split; the unit is one element of data."""
    _check_split(fractions)
    data = list(data)
    n = len(data)
    perm = np.random.default_rng(seed).permutation(n)
    c1 = int(round(fractions[0] * n))
    c2 = int(round((fractions[0] + fractions[1]) * n))
    idx_train, idx_val, idx_test = perm[:c1], perm[c1:c2], perm[c2:]
    return Split(tuple(data[i] for i in idx_train),
                 tuple(data[i] for i in idx_val),
                 tuple(data[i] for i in idx_test))


# --- Parameter layout --------------------------------------------------------

@dataclass(frozen=True)
class Transform:
    """Elementwise map from packed to constrained values.

    ``deriv`` is the derivative of ``forward`` at the packed value; ``inverse``
    maps a constrained value back, flooring it where the forward map cannot
    reach it.
    """

    forward: Callable
    deriv: Callable
    inverse: Callable


IDENTITY = Transform(lambda r: r, lambda r: 1.0, lambda v: v)
# Log scale, for scalar blocks only.
LOG = Transform(math.exp, math.exp, math.log)


def _softplus(floor: float, shift: float = 0.0) -> Transform:
    """shift + softplus(r); packing floors the value at shift + floor."""
    return Transform(lambda r: shift + softplus(r), sigmoid,
                     lambda v: softplus_inv(np.maximum(v - shift, floor)))


# A kernel shift is softplus(r) - log 2 clipped at zero, so a shift of exactly
# zero packs to raw 0 and has no gradient below it.
KERNEL_SHIFT = Transform(lambda r: np.maximum(softplus(r) - LOG2, 0.0),
                         lambda r: sigmoid(r) * (softplus(r) > LOG2),
                         lambda v: np.where(v > 0, softplus_inv(v + LOG2), 0.0))


@dataclass(frozen=True)
class Block:
    """One parameter field's entries in the packed vector.

    ``axes`` labels each axis of the field, so a scalar has none. ``decay``
    says which entries weight decay acts on: ``"none"``, ``"all"``, or
    ``"slopes"``, all but the one labelled ``intercept``.
    """

    field: str
    axes: tuple[tuple[str, ...], ...] = ()
    transform: Transform = IDENTITY
    decay: str = "none"


class ParamLayout:
    """The ordered blocks of a packed parameter vector.

    Names, packing, unpacking, constrained values, the chain rule from
    constrained to packed gradients and the weight-decay mask are all read
    off this one table. Entry names are ``field[label]``, with comma-joined
    labels for matrices, or the bare field name for a scalar. Fields no block
    packs take their values from ``fill``, a parameter set whose arrays are
    frozen because every unpacked set shares them.
    """

    def __init__(self, blocks: Sequence[Block], fill):
        self._fill = fill
        self.slices: dict[str, slice] = {}
        self._parts = []  # (field, slice, shape, transform) per block
        names: list[str] = []
        mask: list[bool] = []
        for blk in blocks:
            labels = [",".join(idx) for idx in itertools.product(*blk.axes)]
            s = self.slices[blk.field] = slice(len(names), len(names) + len(labels))
            self._parts.append((blk.field, s, tuple(map(len, blk.axes)), blk.transform))
            names += [f"{blk.field}[{lab}]" if blk.axes else blk.field for lab in labels]
            mask += [blk.decay == "all" or (blk.decay == "slopes" and lab != "intercept")
                     for lab in labels]
        self.names = tuple(names)
        self.dim = len(names)
        self.decay_mask = np.array(mask, dtype=bool)
        for value in vars(fill).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def unpack(self, raw: np.ndarray):
        """The parameter set ``raw`` packs, its other fields taken from ``fill``."""
        raw = np.asarray(raw, dtype=float)
        return dataclasses.replace(self._fill, **{
            field: transform.forward(raw[s].reshape(shape) if shape else raw[s.start])
            for field, s, shape, transform in self._parts})

    def pack(self, params) -> np.ndarray:
        return np.concatenate([np.reshape(transform.inverse(getattr(params, field)), -1)
                               for field, _, _, transform in self._parts])

    def flatten(self, params) -> np.ndarray:
        """The packed fields of ``params``, constrained, in name order."""
        return np.concatenate([np.reshape(getattr(params, field), -1)
                               for field, _, _, _ in self._parts])

    def chain(self, raw: np.ndarray, grads: dict) -> np.ndarray:
        """Gradient in the packed vector from gradients in the constrained fields."""
        out = np.empty(self.dim)
        for field, s, shape, transform in self._parts:
            g = grads[field]
            if transform is not IDENTITY:
                g = g * transform.deriv(raw[s].reshape(shape) if shape else raw[s.start])
            out[s] = g.reshape(-1) if shape else g
        return out


# --- Model adapters ----------------------------------------------------------

def _whitener(U: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    """Coefficient directions, as columns, over which U's columns are orthonormal.

    ``U @ W`` has unit second moment per column. Directions whose second
    moment is below ``rtol`` times the largest keep unit scale.
    """
    g, V = np.linalg.eigh(U.T @ U / max(U.shape[0], 1))
    live = g > rtol * g.max()
    return V / np.sqrt(np.where(live, g, 1.0))


def _total(per_event: np.ndarray) -> float:
    """A batch's log-likelihood from its terms: their sum, or -inf if one is not finite."""
    return float(np.sum(per_event)) if np.all(np.isfinite(per_event)) else float("-inf")


def _scanpaths(batch: PathData) -> str:
    if len(batch.labels) == 1:
        return f"scanpath {batch.labels[0]!r}"
    return f"a batch of {len(batch.labels)} scanpaths"


class Model:
    """A model family as the trainer reads it, over the family's ``ParamLayout``.

    This base defines what both families share: ``names`` and ``dim``,
    ``pack``, ``unpack`` and ``constrained`` from the layout, the identity
    ``fitting_basis``, and ``nonfinite_event``, the divergence report. A
    family sets ``kind``, passes its spec and layout to this constructor,
    and supplies ``per_event_loglik`` (the log-density of every event of a
    batch, in path order), ``grad_unit`` (the batch's log-likelihood and its
    gradient in the packed vector, from one pass), ``default_init`` and
    ``_event_detail`` (what the report says of event k, given the terms).
    """

    def __init__(self, spec, layout: ParamLayout):
        self.spec = spec
        self.layout = layout
        self.names: tuple[str, ...] = layout.names
        self.dim = layout.dim

    def unpack(self, raw: np.ndarray):
        return self.layout.unpack(raw)

    def pack(self, params) -> np.ndarray:
        return self.layout.pack(params)

    def constrained(self, raw: np.ndarray) -> np.ndarray:
        """Unpacked parameter values, in pixels for a saccade model, aligned with ``names``."""
        return self.layout.flatten(self.unpack(raw))

    def fitting_basis(self, units: Sequence[PathData], raw: np.ndarray) -> np.ndarray:
        """Invertible matrix taking fitting coordinates to ``raw``; the identity
        unless a family derives one from its training units and ``raw``."""
        return np.eye(self.dim)

    def nonfinite_event(self, raw: np.ndarray, unit: PathData) -> str:
        """The first event with a non-finite term: its scanpath, its index there
        and the family's detail of it."""
        per_event = self.per_event_loglik(raw, unit)
        bad = np.flatnonzero(~np.isfinite(per_event))
        if not bad.size:
            return f"{_scanpaths(unit)}: every event's term is finite"
        k = int(bad[0])
        label, i = unit.locate(k)
        return f"scanpath {label!r}: event {i} {self._event_detail(raw, unit, per_event, k)}"


class SaccadeModel(Model):
    """Flattens SaccadeParams to an unconstrained vector and evaluates batches.

    The layout, in packed order: the base rate ``nu`` (softplus); for the
    hawkes variant the excitation and decay weights ``alpha[c]`` and
    ``beta[c]``, one per design column; under an affine or full center map
    ``A`` (row-major) and ``b``; under the full map ``C[r,c]``; and, unless
    the model is poisson, the spatial variance ``sigma2`` (log scale). Weight
    decay acts on alpha and beta except their intercepts, and on all of C.

    The packed ``nu``, ``b``, ``C`` and ``sigma2`` are in screen units, with
    lengths divided by the larger screen dimension L: the layout's transforms
    give nu = softplus(r)/L^2, b = L r, C = L r and sigma2 = e^r L^2. So the
    model evaluates batches as given, in pixels and seconds, and unpacked
    parameters and likelihoods are per squared pixel.

    The trainer steps in the coordinates of ``fitting_basis``, a second exact
    change of variables on top of the packed vector. Under a center map
    (A, b, C) the stable step is set by the map: in screen units its
    per-fixation curvature is of order (screen size / kernel width)^2, 1e3 for
    a 40 px kernel on a 1024 px screen. The amplitude/decay weights have 1e-2
    to 0.3, the least along the ridge where amplitude and decay grow together,
    so a learning rate stable for the map leaves them nearly still. The basis
    whitens the pooled design for these weights and scales them by the screen
    size over the kernel width at the start of the fit: their curvature rises
    by that ratio squared, towards the map's but below it (0.1 to 0.4 of it
    in the acceptance rse fit), and the whitening keeps it so whatever the
    scale of the design columns. Base rate, center map and log-variance keep
    their packed coordinates, and models without a center map fit in the
    packed coordinates, with the learning rates that are stable for them
    unchanged.
    """

    kind = "saccade"

    def __init__(self, spec: SaccadeSpec, omega: Rect):
        self.omega = omega
        # The packed nu, b, C and sigma2 are in screen units, lengths over L.
        # Each formula's order of operations is fixed: fit documents store
        # the packed bits, and load to the same parameters through it.
        L = max(omega.width, omega.height)
        per_area = Transform(lambda r: softplus(r) / (L * L), lambda r: sigmoid(r) / (L * L),
                             lambda v: softplus_inv(np.maximum(v * L * L, 1e-300)))
        length = Transform(lambda r: r * L, lambda r: L, lambda v: v / L)
        area = Transform(lambda r: math.exp(r) * L * L, lambda r: math.exp(r) * L * L,
                         lambda v: math.log(v / (L * L)))
        cols = (spec.columns,)
        xy = ("0", "1")
        blocks = [Block("nu", transform=per_area)]
        if spec.variant == "hawkes":
            blocks += [Block("alpha", cols, decay="slopes"), Block("beta", cols, decay="slopes")]
            if spec.mean_fn in ("affine", "full"):
                blocks += [Block("A", (xy, xy)), Block("b", (xy,), length)]
            if spec.mean_fn == "full":
                blocks.append(Block("C", (xy, spec.columns), length, decay="all"))
        if spec.variant != "poisson":
            blocks.append(Block("sigma2", transform=area))
        # a poisson model's unpacked sigma2, which it never reads, is one screen unit
        super().__init__(spec, ParamLayout(blocks, SaccadeParams.initial(spec, sigma2=L * L)))

    def prepare_unit(self, pd: PathData) -> PathData:
        """The batch as given. The model evaluates pixel batches, so no caller
        needs this; it stays for the benchmark's workloads, which call it."""
        return pd

    def per_event_loglik(self, raw: np.ndarray, unit: PathData) -> np.ndarray:
        return loglik_terms(unit, self.spec, self.unpack(raw), self.omega).per_event

    def _event_detail(self, raw: np.ndarray, unit: PathData, per_event: np.ndarray,
                      k: int) -> str:
        lam, comp, invalid = event_intensities(unit, self.spec, self.unpack(raw), self.omega)
        overlap = ", and starts before the previous fixation ends" if invalid[k] else ""
        return (f"has intensity {lam[k]:.6g} per s per px^2 and compensator increment "
                f"{comp[k]:.6g}{overlap}")

    def grad_unit(self, raw: np.ndarray, unit: PathData) -> tuple[float, np.ndarray]:
        raw = np.asarray(raw, dtype=float)
        terms, grads = loglik_grad(unit, self.spec, self.unpack(raw), self.omega)
        return _total(terms.per_event), self.layout.chain(raw, grads)

    def fitting_basis(self, units: Sequence[PathData], raw: np.ndarray) -> np.ndarray:
        """The identity unless the model has a center map; of ``raw``, the start
        of the fit, only the spatial variance is read."""
        basis = np.eye(self.dim)
        slices = self.layout.slices
        if "A" not in slices or not self.spec.columns:
            return basis
        # screen size over kernel width at the start of the fit; the packed
        # variance is in screen units, where the screen size is 1
        gain = max(1.0, math.exp(-0.5 * float(raw[slices["sigma2"].start])))
        W = gain * _whitener(np.concatenate([u.design for u in units]))
        for part in ("alpha", "beta"):
            basis[slices[part], slices[part]] = W
        return basis

    def default_init(self, units: Sequence[PathData],
                     kernel: Optional[tuple[float, float, float]] = None) -> np.ndarray:
        spec = self.spec
        L = max(self.omega.width, self.omega.height)
        try:
            nu = poisson_mle_nu(units, self.omega)
        except ValidationError:  # no exposure to estimate from
            nu = 1e-3 / (L * L)
        params = SaccadeParams.initial(spec, nu=nu, sigma2=L * L)
        disp = [np.linalg.norm(np.diff(u.locations, axis=0), axis=1)
                for u in units if u.n > 1]
        if disp:
            var = float(np.var(np.concatenate(disp)))
            params = params.replace(sigma2=max(var, 1e-4 * L * L))
        if spec.variant == "hawkes":
            alpha = np.zeros(spec.p)
            alpha[spec.columns.index("intercept") if "intercept" in spec.columns
                  else slice(None)] = softplus_inv(1.0)
            params = params.replace(alpha=alpha, beta=alpha.copy())
        return self.pack(params)


class DurationModel(Model):
    """Flattens DurationParams; kernel shapes and scales stay in bounds by construction.

    The layout, in packed order: ``w``, then ``w_prime`` per spillover column
    (convolution) or per lag and column (markov), then the convolution
    kernels' shape, rate and shift, then the dispersion on log scale.
    """

    kind = "duration"

    def __init__(self, spec: DurationSpec):
        spill = (spec.spillover,)
        blocks = [Block("w", (spec.columns,), decay="slopes")]
        if spec.mean_variant == "convolution":
            blocks += [Block("w_prime", spill, decay="all"),
                       Block("kernel_alpha", spill, _softplus(1e-12, shift=1.0)),
                       Block("kernel_beta", spill, _softplus(1e-12)),
                       Block("kernel_theta", spill, KERNEL_SHIFT)]
        elif spec.mean_variant == "markov":
            lags = tuple(f"lag{j}" for j in range(1, spec.lags + 1))
            blocks.append(Block("w_prime", (lags, spec.spillover), decay="all"))
        blocks.append(Block("shape" if spec.distribution == "gamma" else "sigma2",
                            transform=LOG))
        # unpacked kernels of the other variants are (2, 1, 0), unused
        fill = DurationParams.initial(spec, kernel=(2.0, 1.0, 0.0), sigma2=1.0)
        super().__init__(spec, ParamLayout(blocks, fill))

    def per_event_loglik(self, raw: np.ndarray, unit: PathData) -> np.ndarray:
        params = self.unpack(raw)
        xi = _means(unit.onsets, unit.design, unit.starts, self.spec, params)[1]
        return _log_density(unit.durations, xi, self.spec, params, grad=False)[0]

    def _event_detail(self, raw: np.ndarray, unit: PathData, per_event: np.ndarray,
                      k: int) -> str:
        return f"has log-density {per_event[k]:.6g} at duration {unit.durations[k]:.6g} s"

    def grad_unit(self, raw: np.ndarray, unit: PathData) -> tuple[float, np.ndarray]:
        raw = np.asarray(raw, dtype=float)
        per_event, grads = duration_loglik_grad(unit, self.spec, self.unpack(raw))
        return _total(per_event), self.layout.chain(raw, grads)

    def default_init(self, units: Sequence[PathData],
                     kernel: Optional[tuple[float, float, float]] = None) -> np.ndarray:
        spec = self.spec
        logs = [np.log(u.durations) for u in units if u.n]
        all_logs = np.concatenate(logs) if logs else np.zeros(1)
        mean = float(np.mean(all_logs))
        var = max(float(np.var(all_logs)), 1e-6)
        params = DurationParams.initial(spec, kernel=kernel or (2.0, 3.0, 0.5), sigma2=var)
        w = np.zeros(spec.p)
        if "intercept" in spec.columns:
            w[spec.columns.index("intercept")] = mean
        params = params.replace(w=w)
        if spec.distribution == "gamma":
            params = params.replace(shape=float(np.clip(1.0 / var, 0.1, 1e4)))
        return self.pack(params)


# --- Objective and training --------------------------------------------------

def objective(model: Model, units: PathData | Sequence[PathData], raw: np.ndarray,
              want_grad: bool = True) -> tuple[float, Optional[np.ndarray]]:
    """Mean negative log-likelihood per fixation over the batch, with gradient.

    ``units`` is one batch, or a sequence of units to concatenate into one.
    The model evaluates the batch in one call.
    """
    batch = units if isinstance(units, PathData) else PathData.concat(units)
    if batch.n == 0:
        return 0.0, (np.zeros(model.dim) if want_grad else None)
    if want_grad:
        ll, grad = model.grad_unit(raw, batch)
    else:
        ll = _total(model.per_event_loglik(raw, batch))
    if not np.isfinite(ll):
        values = ", ".join(f"{name}={value:.6g}"
                           for name, value in zip(model.names, model.constrained(raw)))
        raise DivergenceError(f"non-finite log-likelihood on "
                              f"{model.nonfinite_event(raw, batch)}; parameters {values}")
    loss = -ll / batch.n
    if not want_grad:
        return loss, None
    grad = -grad / batch.n
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient over batch")
    return loss, grad


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of one training run (or the winning grid-search run).

    ``test_per_event`` holds the log-density of each test event at ``raw``,
    in path order, from the one pass that gives ``test_loglik``; a result
    loaded from a fit document has none.
    """

    names: tuple[str, ...]
    raw: np.ndarray
    params: object
    train_trace: tuple[float, ...]
    val_trace: tuple[float, ...]
    best_epoch: int
    selected: dict
    grid_trace: tuple = ()
    test_loglik: float = float("nan")
    test_events: int = 0
    seed: int = 0
    wall_clock: float = 0.0
    test_per_event: np.ndarray = dataclasses.field(default_factory=lambda: np.empty(0))

    @property
    def best_val_loss(self) -> float:
        return self.val_trace[self.best_epoch - 1]

    @property
    def test_loglik_per_fixation(self) -> float:
        if self.test_events == 0:
            return float("nan")
        return self.test_loglik / self.test_events


def _as_split(data, config: TrainConfig) -> Split:
    if isinstance(data, Split):
        return data
    return split(list(data), config.split, config.seed)


@dataclass(frozen=True, eq=False)
class _Prepared:
    """A split's training units, and one batch per part.

    Built once per ``train`` or ``grid_search`` call, and dropped with it.
    """

    units: tuple
    train: PathData
    val: PathData
    test: PathData


def _prepare(parts: Split) -> _Prepared:
    units = tuple(parts.train)
    if not units:
        raise ValidationError("training split is empty")
    return _Prepared(units, PathData.concat(units), PathData.concat(parts.val),
                     PathData.concat(parts.test))


def train(model: Model, data, config: TrainConfig,
          init: Optional[np.ndarray] = None,
          kernel_init: Optional[tuple[float, float, float]] = None) -> FitResult:
    """SGD with Nesterov momentum, early-stopped on validation loss.

    ``data`` is a sequence of PathData (split internally per config) or a
    Split. Returns the parameters of the best validation epoch, and the
    log-density of each test event at them. Steps are taken in the model's
    fitting coordinates (``fitting_basis``); weight decay acts on the packed
    vector.
    """
    t0 = time.perf_counter()
    prep = _prepare(_as_split(data, config))
    return _scored(model, prep, _train(model, prep, config, init, kernel_init), t0)


def _scored(model: Model, prep: _Prepared, result: FitResult, t0: float) -> FitResult:
    """``result`` with its test split scored once at its ``raw``, and the time since t0."""
    per_event = model.per_event_loglik(result.raw, prep.test)
    return dataclasses.replace(
        result, test_loglik=_total(per_event) if prep.test.labels else math.nan,
        test_events=prep.test.n, test_per_event=per_event, wall_clock=time.perf_counter() - t0)


def _train(model: Model, prep: _Prepared, config: TrainConfig,
           init: Optional[np.ndarray],
           kernel_init: Optional[tuple[float, float, float]]) -> FitResult:
    """One SGD run on the prepared split; its test split is left unscored."""
    train_units = prep.units
    raw = np.array(model.default_init(train_units, kernel=kernel_init)
                   if init is None else init, dtype=float)
    if raw.shape != (model.dim,):
        raise ValidationError(f"init vector must have {model.dim} entries, got {raw.shape}")
    basis = model.fitting_basis(train_units, raw)
    z = np.linalg.solve(basis, raw)
    velocity = np.zeros_like(z)
    mask = model.layout.decay_mask.astype(float)
    rng = np.random.default_rng(config.seed)
    full_batch = config.batch_size >= len(train_units)
    # In full-batch mode each epoch's loss pass also yields the gradient at
    # the same raw, which the next epoch's single step uses.
    ahead: Optional[np.ndarray] = None

    train_trace: list[float] = []
    val_trace: list[float] = []
    best_val = float("inf")
    best_epoch = 0
    best_raw = raw.copy()

    for epoch in range(1, config.max_epochs + 1):
        if full_batch:
            batches = [prep.train]
        else:
            order = rng.permutation(len(train_units))
            batches = ([train_units[i] for i in order[start:start + config.batch_size]]
                       for start in range(0, len(order), config.batch_size))
        for batch in batches:
            try:
                if ahead is None:
                    _, grad = objective(model, batch, raw)
                else:
                    grad, ahead = ahead, None
            except DivergenceError as exc:
                raise DivergenceError(str(exc), trace=train_trace) from None
            grad = basis.T @ (grad + config.weight_decay * mask * raw)
            velocity = config.momentum * velocity + grad
            z = z - config.learning_rate * (grad + config.momentum * velocity)
            raw = basis @ z
        try:
            epoch_train, ahead = objective(model, prep.train, raw,
                                           want_grad=full_batch and epoch < config.max_epochs)
            if prep.val.labels:
                epoch_val, _ = objective(model, prep.val, raw, want_grad=False)
            else:
                epoch_val = epoch_train
        except DivergenceError as exc:
            raise DivergenceError(str(exc), trace=train_trace) from None
        if not (np.isfinite(epoch_train) and np.isfinite(epoch_val)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}", trace=train_trace)
        train_trace.append(epoch_train)
        val_trace.append(epoch_val)
        if epoch_val < best_val:
            best_val = epoch_val
            best_epoch = epoch
            best_raw = raw.copy()
        if epoch - best_epoch >= config.patience:
            break

    return FitResult(
        names=model.names, raw=best_raw, params=model.unpack(best_raw),
        train_trace=tuple(train_trace), val_trace=tuple(val_trace),
        best_epoch=best_epoch, selected={}, seed=config.seed)


def grid_search(model: Model, data, grid: GridSpec, config: TrainConfig,
                init: Optional[np.ndarray] = None) -> FitResult:
    """Train every grid configuration; select by best validation loss.

    Enumeration and tie-breaking follow the declared field order (batch size,
    learning rate, weight decay, kernel init), so the first strict improvement
    wins and results are reproducible. The split's batches are built once and
    shared by every configuration, and only the selected run scores the test
    split.

    Only the default start of a model with convolution kernels reads the
    kernel init. Trained from ``init``, or for any other model, the kernel
    axis collapses to its first entry, and the grid trace lists only the runs
    trained.
    """
    t0 = time.perf_counter()
    prep = _prepare(_as_split(data, config))
    kernels = grid.kernel_inits
    if init is not None or "kernel_alpha" not in model.layout.slices:
        kernels = kernels[:1]
    runs: list[tuple[dict, float]] = []
    best: Optional[FitResult] = None
    best_loss = float("inf")
    best_hp: dict = {}
    for bs, lr, wd, kern in itertools.product(grid.batch_sizes, grid.learning_rates,
                                              grid.weight_decays, kernels):
        hp = {"batch_size": bs, "learning_rate": lr, "weight_decay": wd,
              "kernel_init": tuple(kern)}
        cfg = config.replace(batch_size=bs, learning_rate=lr, weight_decay=wd)
        try:
            result = _train(model, prep, cfg, init, tuple(kern))
            loss = result.best_val_loss
        except DivergenceError:
            result = None
            loss = float("inf")
        runs.append((hp, loss))
        if result is not None and loss < best_loss:
            best, best_loss, best_hp = result, loss, hp
    if best is None:
        raise DivergenceError(f"all {len(runs)} grid configurations diverged")
    return _scored(model, prep,
                   dataclasses.replace(best, selected=dict(best_hp),
                                       grid_trace=tuple((dict(hp), loss) for hp, loss in runs)),
                   t0)


def warm_start(source_names: Sequence[str], source_raw: np.ndarray, target_model: Model,
               units: Sequence[PathData] = (),
               kernel_init: Optional[tuple[float, float, float]] = None) -> np.ndarray:
    """Initial vector for a larger model: copy shared entries, default the rest.

    Every source entry must exist in the target by name; parameters absent
    from the source keep the target's documented defaults.
    """
    target_names = list(target_model.names)
    missing = [n for n in source_names if n not in target_names]
    if missing:
        raise ValidationError(
            f"source parameters {missing} do not exist in the target model")
    raw = np.array(target_model.default_init(units, kernel=kernel_init), dtype=float)
    source_raw = np.asarray(source_raw, dtype=float)
    for name, value in zip(source_names, source_raw):
        raw[target_names.index(name)] = value
    return raw


def poisson_mle_nu(paths: Sequence[PathData], omega: Rect) -> float:
    """Closed-form base-rate estimate: events per unit exposure and area."""
    n_events = sum(p.n for p in paths)
    exposure = sum(float(p.clock[-1]) for p in paths if p.n)
    if exposure <= 0:
        raise ValidationError("total exposure is zero; cannot estimate a base rate")
    return n_events / (omega.area * exposure)

