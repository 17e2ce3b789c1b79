"""Conditional denoising policy over power allocations.

A small tanh MLP learns to predict the noise injected by a forward
variance schedule on expert allocation vectors, conditioned on the
propagation environment (Rician factor and angular spread). Once trained,
running the reverse chain from Gaussian noise emits an allocation for an
unseen environment in milliseconds, amortizing the genetic search that
produced the experts. Everything is plain float64 numpy with hand-derived
gradients.

The network's forward and backward passes run in preallocated buffers, one
workspace per batch size, and the step embedding is a lookup in a table
built on first use; the reverse chain updates its sample in place with
gains computed once per chain. The buffers change where results are
stored, not which floating-point operations run or in what order, so
trained weights and sampled allocations are the bits the same expressions
give on fresh arrays.
"""

import csv
import io
import json
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np

KAPPA_RANGE_DB = (-10.0, 20.0)
ASD_RANGE_DEG = (5.0, 90.0)
T_EMBED = 16

# Linear variance schedule. The floor of 0.02 keeps the terminal alpha_bar
# near 0.3 while leaving the last denoising step wide enough that the
# sampler's own injected noise stays inside the region the network was trained
# on. A much smaller floor makes the final step a near-singular inversion
# (gain 1/sqrt(1 - alpha_bar_1)) that a smooth network cannot track.
SCHEDULE_STEPS = 10
SCHEDULE_V_MIN = 0.02
SCHEDULE_V_MAX = 0.2

# Records per training step; the jitter on the expert targets, clamped to the
# box; Adam's decay rates and guard (Kingma & Ba's); the steps a reported loss
# averages.
BATCH_SIZE = 64
EXPLORE_NOISE = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOSS_WINDOW = 200

CHECKPOINT_VERSION = 1


class TrainingError(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class Environment:
    kappa_db: float
    asd_deg: float

    def __post_init__(self):
        if not (np.isfinite(self.kappa_db) and np.isfinite(self.asd_deg) and self.asd_deg > 0):
            raise ValueError("kappa_db and asd_deg must be finite, and asd_deg positive")

    def in_training_range(self):
        return (KAPPA_RANGE_DB[0] <= self.kappa_db <= KAPPA_RANGE_DB[1]
                and ASD_RANGE_DEG[0] <= self.asd_deg <= ASD_RANGE_DEG[1])

    def features(self):
        """Conditioning features: Rician factor mapped to [-1, 1], angular
        spread mapped to [0, 1] over the training ranges."""
        k_lo, k_hi = KAPPA_RANGE_DB
        a_lo, a_hi = ASD_RANGE_DEG
        return np.array([
            2.0 * (self.kappa_db - k_lo) / (k_hi - k_lo) - 1.0,
            (self.asd_deg - a_lo) / (a_hi - a_lo),
        ])


# ---------------------------------------------------------------------------
# Variance schedule and the forward/reverse processes.
# ---------------------------------------------------------------------------

class Schedule:
    """Variance schedule built from v, the (T,) variance injected per step;
    alpha = 1 - v and alpha_bar, the cumulative signal retention, follow."""

    def __init__(self, v):
        v = np.asarray(v, dtype=float)
        if v.ndim != 1 or len(v) == 0:
            raise ValueError(f"schedule variances must be a non-empty vector, not {v.shape}")
        if not np.all((v > 0.0) & (v < 1.0)):
            raise ValueError("schedule variances must lie in (0, 1)")
        self.v = v
        self.alpha = 1.0 - v
        self.alpha_bar = np.cumprod(self.alpha)

    @property
    def T(self):
        return len(self.v)


def make_schedule() -> Schedule:
    """The linear variance schedule every policy is trained with."""
    return Schedule(np.linspace(SCHEDULE_V_MIN, SCHEDULE_V_MAX, SCHEDULE_STEPS))


def forward_diffuse(x0, t, eps, schedule: Schedule):
    """Noised sample x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps.

    t is 1-based and may be an integer or an array matching x0's batch axis.
    """
    ab = schedule.alpha_bar[np.asarray(t) - 1]
    ab = np.reshape(ab, np.shape(ab) + (1,) * (np.ndim(x0) - np.ndim(ab)))
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def reverse_sample(model, schedule: Schedule, env: Environment, dim, rng):
    """Run the reverse chain from Gaussian noise down to an allocation vector.

    model(x, t, env_features) predicts the injected noise for a batch x of
    shape (B, dim) with integer steps t of shape (B,). Fresh noise is added
    at every step except the last, and the result is clamped to [0, 1].
    Raises ValueError if the chain ends non-finite (a diverged or corrupted
    model), since clamping would pass NaN through as an allocation.

    Step t maps x to x / sqrt(alpha_t) - v_t / sqrt(alpha_t (1 - abar_t)) eps
    + sqrt(v_t) z. The three gains are computed once per chain, and x and
    the noise z are updated in one buffer each.
    """
    feats = env.features()[None, :]
    x_gain = np.sqrt(schedule.alpha)
    eps_gain = schedule.v / np.sqrt(schedule.alpha * (1.0 - schedule.alpha_bar))
    noise_gain = np.sqrt(schedule.v)
    x = rng.standard_normal((1, dim))
    z = np.empty_like(x)
    for t in range(schedule.T, 0, -1):
        eps = model(x, np.array([t]), feats)
        x /= x_gain[t - 1]
        x -= np.multiply(eps_gain[t - 1], eps, out=z)
        if t > 1:
            rng.standard_normal(out=z)
            z *= noise_gain[t - 1]
            x += z
    if not np.all(np.isfinite(x)):
        raise ValueError("reverse chain produced a non-finite allocation; "
                         "the model or checkpoint is corrupt")
    return np.clip(x, 0.0, 1.0)[0]


# ---------------------------------------------------------------------------
# Noise-prediction network: two tanh hidden layers, manual backprop.
# ---------------------------------------------------------------------------

# The step-embedding rows of steps 0..n, for the largest step n embedded so
# far: built on first use and rebuilt only for a larger step. A row's bits do
# not depend on the table's size, so every network and caller can share it.
_step_rows = np.empty((0, T_EMBED))


def _time_embedding(t):
    """Sinusoidal features of the (1-based) integer steps t, shape
    (B, T_EMBED), looked up in the table of steps 0..max(t)."""
    global _step_rows
    try:
        return _step_rows[t]
    except IndexError:
        half = T_EMBED // 2
        freqs = 10000.0 ** (-np.arange(half) / half)
        ang = np.arange(np.max(t) + 1, dtype=float)[:, None] * freqs[None, :]
        _step_rows = np.concatenate([np.sin(ang), np.cos(ang)], axis=1)
        return _step_rows[t]


class _Workspace:
    """The buffers of one batch size B: the input rows, with views of their
    noised-vector, step-embedding and environment columns; both hidden
    activations and the output of the forward pass; and the backward's
    output gradient and hidden-layer gradients."""

    def __init__(self, B, dim, hidden):
        self.inp = np.empty((B, dim + T_EMBED + 2))
        self.x, self.emb, self.env = np.split(self.inp, [dim, dim + T_EMBED], axis=1)
        self.a1 = np.empty((B, hidden))
        self.a2 = np.empty((B, hidden))
        self.out = np.empty((B, dim))
        self.dout = np.empty((B, dim))
        self.dz1 = np.empty((B, hidden))
        self.dz2 = np.empty((B, hidden))


class EpsNetwork:
    """MLP eps_theta(x_t, t, env) with parameters exposed for plain numpy
    training. Input is the noised vector, a sinusoidal step embedding, and
    the two environment features.

    The forward and backward passes run in a workspace per batch size,
    allocated on first use and reused by every later call at that size, so
    one network must not be called from two threads at once."""

    def __init__(self, dim, hidden=128, params=None, rng=None):
        self.dim = dim
        self.hidden = hidden
        self.in_dim = dim + T_EMBED + 2
        self._workspaces = {}
        if params is not None:
            self.params = params
        else:
            if rng is None:
                raise ValueError("need either params or an rng to initialize")
            def glorot(n_out, n_in):
                return rng.normal(0.0, np.sqrt(2.0 / (n_in + n_out)), (n_out, n_in))
            self.params = {
                "W1": glorot(hidden, self.in_dim), "b1": np.zeros(hidden),
                "W2": glorot(hidden, hidden), "b2": np.zeros(hidden),
                "W3": glorot(dim, hidden), "b3": np.zeros(dim),
            }

    def _forward(self, x, t, env):
        """Run the batch through the network in the workspace of its size,
        and return that workspace."""
        B = len(x)
        ws = self._workspaces.get(B)
        if ws is None:
            ws = self._workspaces[B] = _Workspace(B, self.dim, self.hidden)
        ws.x[...] = x
        ws.emb[...] = _time_embedding(t)
        ws.env[...] = env
        p = self.params
        np.matmul(ws.inp, p["W1"].T, out=ws.a1)
        ws.a1 += p["b1"]
        np.tanh(ws.a1, out=ws.a1)
        np.matmul(ws.a1, p["W2"].T, out=ws.a2)
        ws.a2 += p["b2"]
        np.tanh(ws.a2, out=ws.a2)
        np.matmul(ws.a2, p["W3"].T, out=ws.out)
        ws.out += p["b3"]
        return ws

    def __call__(self, x, t, env):
        return self._forward(x, t, env).out.copy()

    def loss_and_grads(self, x, t, env, target, out=None):
        """Mean squared noise-prediction error over the batch and its exact
        gradient for every parameter.

        The gradients are written into out, a dict of arrays shaped like the
        parameters, and out is returned; without it they are fresh arrays.
        The backward pass overwrites the workspace's activations with the
        tanh derivatives 1 - a^2 once it has used them."""
        p = self.params
        ws = self._forward(x, t, env)
        B = len(ws.out)
        diff = ws.out
        diff -= target
        dout = np.square(diff, out=ws.dout)
        loss = float(dout.sum() / B)
        np.multiply(2.0, diff, out=dout)
        dout /= B
        grads = out if out is not None else {k: np.empty_like(v) for k, v in p.items()}
        np.matmul(dout.T, ws.a2, out=grads["W3"])
        np.sum(dout, axis=0, out=grads["b3"])
        dz2 = np.matmul(dout, p["W3"], out=ws.dz2)
        dz2 *= _tanh_derivative(ws.a2)
        np.matmul(dz2.T, ws.a1, out=grads["W2"])
        np.sum(dz2, axis=0, out=grads["b2"])
        dz1 = np.matmul(dz2, p["W2"], out=ws.dz1)
        dz1 *= _tanh_derivative(ws.a1)
        np.matmul(dz1.T, ws.inp, out=grads["W1"])
        np.sum(dz1, axis=0, out=grads["b1"])
        return loss, grads


def _tanh_derivative(a):
    """Overwrite the activations a = tanh(z) with 1 - a^2 and return them."""
    np.square(a, out=a)
    return np.subtract(1.0, a, out=a)


class Adam:
    """Adam on one flat parameter vector, updated in place with the moment
    estimates m and v and two scratch vectors of the same size."""

    def __init__(self, params, lr=1e-4):
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._tmp = np.empty_like(params)
        self._den = np.empty_like(params)
        self.t = 0

    def step(self, params, grads):
        """params -= lr * (m / b1c) / (sqrt(v / b2c) + eps) after the moment
        updates m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g^2."""
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        m, v, tmp, den = self.m, self.v, self._tmp, self._den
        m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, grads, out=tmp)
        m += tmp
        v *= ADAM_BETA2
        np.square(grads, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        np.divide(v, b2c, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m, b1c, out=tmp)
        tmp *= self.lr
        tmp /= den
        params -= tmp


# ---------------------------------------------------------------------------
# Expert dataset and training loop.
# ---------------------------------------------------------------------------

@dataclass
class ExpertDataset:
    kappa_db: np.ndarray  # (M,)
    asd_deg: np.ndarray   # (M,)
    x0: np.ndarray        # (M, D) allocation vectors inside [0, 1]
    sum_se: np.ndarray    # (M,) closed-form value of each expert

    def __post_init__(self):
        """Name the field of data that would otherwise fail later, unnamed,
        or pair vectors with the wrong environments."""
        arrays = {name: np.asarray(getattr(self, name))
                  for name in ("kappa_db", "asd_deg", "x0", "sum_se")}
        for name, value in arrays.items():
            ndim = 2 if name == "x0" else 1
            if value.ndim != ndim:
                raise ValueError(f"expert dataset: {name} must be {ndim}-D, not {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"expert dataset: {name} is not finite")
        lengths = ", ".join(f"{name} {len(value)}" for name, value in arrays.items())
        if len({len(value) for value in arrays.values()}) > 1:
            raise ValueError(f"expert dataset: lengths differ: {lengths}")
        if len(self.x0) == 0:
            raise ValueError("expert dataset: x0 is empty")
        if np.any(self.x0 < 0.0) or np.any(self.x0 > 1.0):
            raise ValueError("expert vectors must lie in [0, 1]")

    def __len__(self):
        return len(self.sum_se)

    @property
    def dim(self):
        return self.x0.shape[1]

    def features(self):
        envs = [Environment(k, a) for k, a in zip(self.kappa_db, self.asd_deg)]
        return np.stack([e.features() for e in envs])

    def save_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["env_kappa_db", "env_asd_deg"]
                            + [f"x0_{i}" for i in range(self.dim)] + ["sum_se"])
            for m in range(len(self)):
                writer.writerow([repr(float(self.kappa_db[m])),
                                 repr(float(self.asd_deg[m]))]
                                + [repr(float(v)) for v in self.x0[m]]
                                + [repr(float(self.sum_se[m]))])


def _flat_views(flat, like):
    """Views into the flat vector, shaped and keyed like the dict `like`."""
    views, start = {}, 0
    for key, arr in like.items():
        views[key] = flat[start:start + arr.size].reshape(arr.shape)
        start += arr.size
    return views


class DiffusionTrainer:
    """Plain SGD loop: sample records, steps, and noise; regress the noise.

    The network's parameters are packed once into one flat vector, and
    net.params is rebound to views into it; the gradient is written into
    views of a second one, so Adam updates the whole network with a few
    in-place vector operations.
    """

    def __init__(self, net: EpsNetwork, schedule: Schedule,
                 dataset: ExpertDataset, lr, rng):
        self.net = net
        self.schedule = schedule
        self.rng = rng
        self.x0 = dataset.x0
        self.feats = dataset.features()
        self.flat_params = np.concatenate([p.ravel() for p in net.params.values()])
        self.flat_grad = np.empty_like(self.flat_params)
        net.params = _flat_views(self.flat_params, net.params)
        self.grads = _flat_views(self.flat_grad, net.params)
        self.opt = Adam(self.flat_params, lr=lr)
        self.loss_history = []

    def step(self):
        rng = self.rng
        idx = rng.integers(0, len(self.x0), size=BATCH_SIZE)
        t = rng.integers(1, self.schedule.T + 1, size=BATCH_SIZE)
        eps = rng.standard_normal((BATCH_SIZE, self.x0.shape[1]))
        x0 = self.x0[idx]
        if EXPLORE_NOISE > 0.0:
            x0 = np.clip(x0 + EXPLORE_NOISE * rng.standard_normal(x0.shape), 0.0, 1.0)
        x_t = forward_diffuse(x0, t, eps, self.schedule)
        loss, _ = self.net.loss_and_grads(x_t, t, self.feats[idx], eps, out=self.grads)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged at step {len(self.loss_history)}")
        self.opt.step(self.flat_params, self.flat_grad)
        self.loss_history.append(loss)
        return loss

    def run(self, n_steps):
        for _ in range(n_steps):
            self.step()
        return np.asarray(self.loss_history)

    def window_loss(self):
        """Mean loss of the last LOSS_WINDOW steps, or of every step if fewer."""
        return float(np.mean(self.loss_history[-LOSS_WINDOW:]))


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------

def save_checkpoint(path, net: EpsNetwork, schedule: Schedule):
    meta = {
        "version": CHECKPOINT_VERSION,
        "dim": net.dim,
        "hidden": net.hidden,
        "t_embed": T_EMBED,
        "kappa_range_db": list(KAPPA_RANGE_DB),
        "asd_range_deg": list(ASD_RANGE_DEG),
    }
    np.savez(path, meta=json.dumps(meta), v=schedule.v, **net.params)


def _checkpoint_array(arrays, path, key, shape=None):
    """The real array key of a checkpoint's arrays, of the given shape if any."""
    if key not in arrays:
        raise ValueError(f"{path}: missing array {key!r}")
    value = arrays[key]
    if value.dtype.kind not in "fiu" or shape is not None and value.shape != shape:
        raise ValueError(f"{path}: array {key!r} is {value.dtype} {value.shape}, "
                         f"expected a real array of shape {shape or 'any'}")
    return value


# The bytes of the last checkpoint load_checkpoint parsed and validated, and
# the (net, schedule) it read from them.
_last_checkpoint = (None, None, None)


def load_checkpoint(path):
    """Load (net, schedule). Raises ValueError, naming the file, when it is
    not a readable policy checkpoint, an entry is missing or does not match
    the header, or a weight is not finite.

    The file is read once per call and parsed only when its bytes differ
    from the last ones parsed, so a process that loads one checkpoint
    repeatedly pays for reading and comparing it. Every call returns its
    own copies of the arrays."""
    global _last_checkpoint
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob != _last_checkpoint[0]:
        _last_checkpoint = (blob, *_parse_checkpoint(blob, path))
    _, net, schedule = _last_checkpoint
    return (EpsNetwork(net.dim, hidden=net.hidden,
                       params={key: value.copy() for key, value in net.params.items()}),
            Schedule(schedule.v.copy()))


def _parse_checkpoint(blob, path):
    """The (net, schedule) held in a checkpoint file's bytes, validated."""
    try:
        data = np.load(io.BytesIO(blob), allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an .npz archive")
        with data:
            arrays = {key: data[key] for key in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"{path}: not a policy checkpoint ({exc})") from exc
    if "meta" not in arrays:
        raise ValueError(f"{path}: not a policy checkpoint")
    try:
        meta = json.loads(str(arrays["meta"]))
    except ValueError:
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint meta is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version "
                         f"{meta.get('version')!r}")
    if meta.get("t_embed") != T_EMBED:
        raise ValueError(f"{path}: incompatible step-embedding width")
    for key in ("dim", "hidden"):
        value = meta.get(key)
        if type(value) is not int or value < 1:
            raise ValueError(f"{path}: checkpoint meta {key!r} is {value!r}, "
                             "not a positive integer")
    dim, hidden = meta["dim"], meta["hidden"]
    shapes = {"W1": (hidden, dim + T_EMBED + 2), "b1": (hidden,),
              "W2": (hidden, hidden), "b2": (hidden,), "W3": (dim, hidden), "b3": (dim,)}
    params = {key: _checkpoint_array(arrays, path, key, shape)
              for key, shape in shapes.items()}
    # A saturating tanh can turn an infinite weight into a finite allocation.
    for key, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{path}: array {key!r} has non-finite entries")
    v = _checkpoint_array(arrays, path, "v")
    try:
        schedule = Schedule(v)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return EpsNetwork(dim, hidden=hidden, params=params), schedule
