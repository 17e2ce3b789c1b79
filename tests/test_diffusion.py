"""Denoising-diffusion policy: schedule, network, training, sampling."""

import csv
import re

import numpy as np
import pytest

from cfrs import diffusion
from cfrs.closed_form import PowerAllocation
from cfrs.diffusion import (Adam, DiffusionTrainer, Environment, EpsNetwork,
                            ExpertDataset, Schedule, TrainingError,
                            forward_diffuse, load_checkpoint, make_schedule,
                            reverse_sample, save_checkpoint)
from cfrs.rng import substream
from conftest import dict_train


def test_environment_features_and_range():
    assert Environment(-10.0, 5.0).features() == pytest.approx([-1.0, 0.0])
    assert Environment(20.0, 90.0).features() == pytest.approx([1.0, 1.0])
    assert Environment(5.0, 47.5).features() == pytest.approx([0.0, 0.5])
    assert Environment(0.0, 30.0).in_training_range()
    assert not Environment(25.0, 30.0).in_training_range()
    assert not Environment(0.0, 2.0).in_training_range()
    for kappa_db, asd_deg in ((np.inf, 30.0), (np.nan, 30.0), (0.0, np.inf),
                              (0.0, np.nan), (0.0, 0.0), (0.0, -5.0)):
        with pytest.raises(ValueError, match="kappa_db and asd_deg"):
            Environment(kappa_db, asd_deg)


def test_make_schedule_structure():
    s = Schedule(np.linspace(0.1, 0.3, 5))
    assert s.T == 5
    np.testing.assert_allclose(s.v, np.linspace(0.1, 0.3, 5))
    np.testing.assert_allclose(s.alpha, 1.0 - s.v)
    np.testing.assert_allclose(s.alpha_bar, np.cumprod(1.0 - s.v))
    assert np.all(np.diff(s.alpha_bar) < 0)
    # The trained schedule: mild early steps, terminal retention far from
    # both 0 and 1.
    d = make_schedule()
    np.testing.assert_array_equal(d.v, np.linspace(0.02, 0.2, 10))
    assert 0.2 < d.alpha_bar[-1] < 0.5
    for v in (np.linspace(0.1, 0.3, 0), np.linspace(0.0, 0.3, 5),
              np.linspace(0.1, 1.0, 5)):
        with pytest.raises(ValueError):
            Schedule(v)


def test_forward_diffuse_hand_case():
    s = Schedule(np.array([0.75]))
    x0 = np.array([[1.0, -2.0]])
    eps = np.array([[0.5, 1.0]])
    out = forward_diffuse(x0, 1, eps, s)
    np.testing.assert_allclose(out, 0.5 * x0 + np.sqrt(0.75) * eps, rtol=1e-14)


def test_forward_diffuse_marginals():
    """At step t the noised sample is N(sqrt(abar_t) x0, (1 - abar_t) I)."""
    s = make_schedule()
    rng = substream(3, "fwd")
    x0 = np.array([0.2, 0.8, 0.5])
    n = 200000
    for t in (1, s.T):
        eps = rng.standard_normal((n, 3))
        xt = forward_diffuse(np.broadcast_to(x0, (n, 3)), t, eps, s)
        ab = s.alpha_bar[t - 1]
        np.testing.assert_allclose(xt.mean(axis=0), np.sqrt(ab) * x0,
                                   atol=5 / np.sqrt(n))
        np.testing.assert_allclose(xt.var(axis=0), 1.0 - ab,
                                   atol=8 / np.sqrt(n))


def test_forward_diffuse_vector_steps():
    s = make_schedule()
    rng = substream(5, "fwd")
    x0 = rng.random((4, 2))
    eps = rng.standard_normal((4, 2))
    t = np.array([1, 3, 7, 10])
    batch = forward_diffuse(x0, t, eps, s)
    for b in range(4):
        single = forward_diffuse(x0[b:b + 1], int(t[b]), eps[b:b + 1], s)
        np.testing.assert_allclose(batch[b], single[0], rtol=1e-14)


class _OracleEps:
    """Noise predictor that knows the clean vector, making the reverse
    update exact: the final step reconstructs x0 regardless of the input."""

    def __init__(self, x0, schedule):
        self.x0 = np.asarray(x0, dtype=float)
        self.schedule = schedule

    def __call__(self, x, t, env):
        ab = self.schedule.alpha_bar[np.asarray(t) - 1][:, None]
        return (x - np.sqrt(ab) * self.x0[None]) / np.sqrt(1.0 - ab)


def test_reverse_sample_inverts_oracle():
    x0 = np.array([0.15, 0.4, 0.8, 0.65])
    env = Environment(5.0, 15.0)
    for T in (1, 10):
        s = Schedule(np.linspace(0.02, 0.2, T))
        out = reverse_sample(_OracleEps(x0, s), s, env, 4, substream(7, "rev", T))
        np.testing.assert_allclose(out, x0, atol=1e-12)


def test_reverse_sample_clipping_and_determinism():
    s = make_schedule()
    net = EpsNetwork(3, hidden=16, rng=substream(11, "init"))
    env = Environment(0.0, 30.0)
    a = reverse_sample(net, s, env, 3, substream(11, "rev"))
    b = reverse_sample(net, s, env, 3, substream(11, "rev"))
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    # An exact chain towards a target outside the box ends on its clamp.
    target = np.array([-0.3, 0.4, 1.7])
    out = reverse_sample(_OracleEps(target, s), s, env, 3, substream(11, "rev"))
    np.testing.assert_allclose(out, np.clip(target, 0.0, 1.0), rtol=1e-12)


class _NaNEps:
    """Noise predictor of a corrupted model: NaN in the last coordinate,
    optionally clamped to clip_bounds by the model itself."""

    def __init__(self, clip_bounds):
        self.clip_bounds = clip_bounds

    def __call__(self, x, t, env):
        out = np.zeros_like(x)
        out[:, -1] = np.nan
        if self.clip_bounds is not None:
            out = np.clip(out, *self.clip_bounds)
        return out


@pytest.mark.parametrize("clip_bounds", [(0.0, 1.0), None])
def test_reverse_sample_rejects_nonfinite_chain(clip_bounds):
    """Clamping, in the model or in the sampler, must not turn a NaN chain
    into an allocation."""
    s = make_schedule()
    with pytest.raises(ValueError, match="non-finite"):
        reverse_sample(_NaNEps(clip_bounds), s, Environment(0.0, 30.0), 3,
                       substream(13, "rev"))


def test_split_allocation_layout():
    # A sampled policy vector holds the L splitting factors first, then eta
    # row by row.
    vec = np.arange(6) / 10.0
    alloc = PowerAllocation.from_vector(vec, K=2, L=2)
    np.testing.assert_allclose(alloc.rho, [0.0, 0.1])
    np.testing.assert_allclose(alloc.eta, [[0.2, 0.3], [0.4, 0.5]])
    with pytest.raises(ValueError):
        PowerAllocation.from_vector(vec, K=3, L=2)


def test_network_shapes_and_gradients():
    rng = substream(13, "net")
    net = EpsNetwork(5, hidden=8, rng=rng)
    x = rng.standard_normal((6, 5))
    t = rng.integers(1, 11, size=6)
    env = rng.uniform(-1, 1, size=(6, 2))
    target = rng.standard_normal((6, 5))
    out = net(x, t, env)
    assert out.shape == (6, 5)
    loss, grads = net.loss_and_grads(x, t, env, target)
    assert set(grads) == set(net.params)
    h = 1e-6
    worst = 0.0
    for key in net.params:
        flat = net.params[key].reshape(-1)
        for idx in substream(13, "pick", key).choice(flat.size,
                                                     min(10, flat.size),
                                                     replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = net.loss_and_grads(x, t, env, target)
            flat[idx] = orig - h
            dn, _ = net.loss_and_grads(x, t, env, target)
            flat[idx] = orig
            numeric = (up - dn) / (2 * h)
            analytic = grads[key].reshape(-1)[idx]
            worst = max(worst, abs(numeric - analytic)
                        / max(1e-8, abs(numeric), abs(analytic)))
    assert worst <= 1e-4


def test_network_requires_params_or_rng():
    with pytest.raises(ValueError):
        EpsNetwork(4)


def test_loss_and_grads_writes_into_out():
    """out= fills the given arrays with the bits of the fresh-array path
    and returns them; a trainer's gradient dict views its flat buffer."""
    rng = substream(13, "out")
    ds = _toy_dataset(dim=5)
    net = EpsNetwork(5, hidden=8, rng=rng)
    trainer = DiffusionTrainer(net, make_schedule(), ds, 1e-4, rng)
    x = rng.standard_normal((6, 5))
    t = rng.integers(1, 11, size=6)
    env = rng.uniform(-1, 1, size=(6, 2))
    target = rng.standard_normal((6, 5))
    loss, fresh = net.loss_and_grads(x, t, env, target)
    loss_out, grads = net.loss_and_grads(x, t, env, target, out=trainer.grads,
                                         emb=trainer.step_table[t - 1])
    assert grads is trainer.grads and loss_out == loss
    for key, arr in grads.items():
        assert np.shares_memory(arr, trainer.flat_grad)
        assert not np.shares_memory(fresh[key], trainer.flat_grad)
        assert np.shares_memory(net.params[key], trainer.flat_params)
        np.testing.assert_array_equal(arr, fresh[key])


def test_trainer_matches_dict_oracle():
    """The flat-buffer trainer takes the per-parameter loop's steps bit for
    bit: every loss and every weight after 50 steps."""
    ds = _toy_dataset()
    s = make_schedule()
    lr = 1e-3
    net = EpsNetwork(ds.dim, rng=substream(53, "init"))
    params = {k: v.copy() for k, v in net.params.items()}
    losses = DiffusionTrainer(net, s, ds, lr, substream(53, "train")).run(50)
    oracle = dict_train(params, s, ds, lr, substream(53, "train"), 50)
    assert np.array_equal(losses, oracle)
    for key, arr in params.items():
        assert np.array_equal(net.params[key], arr), key


def test_adam_minimizes_quadratic():
    target = np.array([1.5, -2.0, 0.25])
    params = np.zeros(3)
    opt = Adam(params, lr=0.05)
    for _ in range(2000):
        opt.step(params, 2.0 * (params - target))
    np.testing.assert_allclose(params, target, atol=1e-4)


def _toy_dataset(m=6, dim=4, seed=17):
    rng = substream(seed, "toy")
    return ExpertDataset(
        kappa_db=rng.uniform(-10, 20, size=m),
        asd_deg=rng.uniform(5, 90, size=m),
        x0=rng.uniform(0.05, 0.95, size=(m, dim)),
        sum_se=rng.uniform(5, 10, size=m),
    )


def test_expert_dataset_roundtrip(tmp_path):
    ds = _toy_dataset()
    path = tmp_path / "experts.csv"
    ds.save_csv(path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == (["env_kappa_db", "env_asd_deg"]
                      + [f"x0_{i}" for i in range(ds.dim)] + ["sum_se"])
    back = np.array(rows, dtype=float)
    np.testing.assert_array_equal(back[:, 0], ds.kappa_db)
    np.testing.assert_array_equal(back[:, 1], ds.asd_deg)
    np.testing.assert_array_equal(back[:, 2:-1], ds.x0)
    np.testing.assert_array_equal(back[:, -1], ds.sum_se)
    feats = ds.features()
    assert feats.shape == (6, 2)
    assert np.all(feats[:, 0] >= -1) and np.all(feats[:, 0] <= 1)


def test_expert_dataset_validation():
    with pytest.raises(ValueError):
        ExpertDataset(kappa_db=np.zeros(1), asd_deg=np.ones(1),
                      x0=np.array([[1.4]]), sum_se=np.ones(1))


def _poison(name, index, value):
    """Set one entry of a copy of the field name to value."""
    def corrupt(fields):
        fields[name] = fields[name].copy()
        fields[name][index] = value
    return corrupt


_BAD_DATASETS = {
    "empty": ("x0 is empty", lambda f: f.update(kappa_db=np.zeros(0), asd_deg=np.zeros(0),
                                                x0=np.zeros((0, 4)), sum_se=np.zeros(0))),
    "fewer_envs": ("lengths differ: kappa_db 5, asd_deg 5, x0 6, sum_se 6",
                   lambda f: f.update(kappa_db=f["kappa_db"][:5], asd_deg=f["asd_deg"][:5])),
    "more_envs": ("lengths differ: kappa_db 7, asd_deg 7, x0 6, sum_se 6",
                  lambda f: f.update(kappa_db=np.append(f["kappa_db"], 0.0),
                                     asd_deg=np.append(f["asd_deg"], 30.0))),
    "x0_1d": ("x0 must be 2-D", lambda f: f.update(x0=f["x0"][:, 0])),
    "nan_x0": ("x0 is not finite", _poison("x0", (2, 1), np.nan)),
    "inf_kappa": ("kappa_db is not finite", _poison("kappa_db", 3, np.inf)),
    "nan_asd": ("asd_deg is not finite", _poison("asd_deg", 0, np.nan)),
    "nan_sum_se": ("sum_se is not finite", _poison("sum_se", 5, -np.inf)),
}


@pytest.mark.parametrize("case", _BAD_DATASETS)
def test_expert_dataset_rejects_bad_data(case):
    """An empty, mismatched, misshapen or non-finite dataset raises a
    ValueError naming the field, instead of failing later in training (a
    NaN diverges at step 0), in np.stack or with an IndexError, or pairing
    vectors with the wrong environments."""
    message, corrupt = _BAD_DATASETS[case]
    fields = vars(_toy_dataset()).copy()
    corrupt(fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExpertDataset(**fields)


def test_training_reduces_loss_and_is_deterministic():
    ds = _toy_dataset()
    s = make_schedule()
    def run():
        rng = substream(19, "train")
        net = EpsNetwork(ds.dim, rng=rng)
        return net, DiffusionTrainer(net, s, ds, 1e-3, rng).run(1500)

    net1, hist1 = run()
    net2, hist2 = run()
    np.testing.assert_array_equal(hist1, hist2)
    for key in net1.params:
        np.testing.assert_array_equal(net1.params[key], net2.params[key])
    assert hist1[-300:].mean() < 0.5 * hist1[:300].mean()


def test_training_guard_catches_nonfinite_state():
    ds = _toy_dataset()
    ds.x0[0, 0] = np.nan  # poisoned record propagates to a non-finite loss
    rng = substream(23, "t")
    trainer = DiffusionTrainer(EpsNetwork(ds.dim, rng=rng), make_schedule(), ds,
                               1e-4, rng)
    with pytest.raises(TrainingError):
        trainer.run(50)


def test_degenerate_target_reconstruction(monkeypatch):
    """A dataset with a single expert vector has no residual uncertainty, so
    sampling must collapse onto that vector. The targets are not jittered."""
    monkeypatch.setattr(diffusion, "EXPLORE_NOISE", 0.0)
    x0 = np.array([0.15, 0.35, 0.55, 0.75, 0.9, 0.5])
    ds = ExpertDataset(kappa_db=np.array([5.0]), asd_deg=np.array([15.0]),
                       x0=x0[None], sum_se=np.array([1.0]))
    s = make_schedule()
    net = EpsNetwork(6, hidden=64, rng=substream(29, "init"))
    hist = DiffusionTrainer(net, s, ds, 1e-3, substream(29, "train")).run(20000)
    env = Environment(5.0, 15.0)
    worst = 0.0
    for trial in range(8):
        out = reverse_sample(net, s, env, 6, substream(29, "rev", trial))
        worst = max(worst, np.abs(out - x0).max())
    assert worst <= 0.05
    # Early training is strongly contractive: consecutive disjoint 200-step
    # loss windows over the first 5000 steps almost never move up.
    means = hist[:5000].reshape(25, 200).mean(axis=1)
    frac = np.mean(np.diff(means) <= 0)
    assert frac >= 0.9


def test_checkpoint_roundtrip(tmp_path):
    rng = substream(31, "ck")
    net = EpsNetwork(4, hidden=12, rng=rng)
    s = Schedule(np.linspace(0.05, 0.25, 8))
    path = tmp_path / "policy.npz"
    save_checkpoint(path, net, s)
    net2, s2 = load_checkpoint(path)
    assert net2.dim == 4 and net2.hidden == 12
    np.testing.assert_array_equal(s2.v, s.v)
    np.testing.assert_allclose(s2.alpha_bar, s.alpha_bar, rtol=1e-15)
    for key in net.params:
        np.testing.assert_array_equal(net2.params[key], net.params[key])
    env = Environment(2.0, 40.0)
    a = reverse_sample(net, s, env, 4, substream(31, "r"))
    b = reverse_sample(net2, s2, env, 4, substream(31, "r"))
    np.testing.assert_array_equal(a, b)


def _flip_bytes(path, start, n):
    """The bytes of the file at path with n of them inverted from start."""
    data = bytearray(path.read_bytes())
    data[start:start + n] = bytes(b ^ 0xFF for b in data[start:start + n])
    return bytes(data)


def test_checkpoint_rejects_foreign_files(tmp_path):
    other = tmp_path / "other.npz"
    np.savez(other, stuff=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(other)

    rng = substream(37, "ck")
    net = EpsNetwork(3, hidden=6, rng=rng)
    s = make_schedule()
    good = tmp_path / "good.npz"
    save_checkpoint(good, net, s)
    import json

    with np.load(good) as data:
        blobs = {k: data[k] for k in data.files}
    meta = json.loads(str(blobs["meta"]))
    meta["version"] = 99
    blobs["meta"] = json.dumps(meta)
    stale = tmp_path / "stale.npz"
    np.savez(stale, **blobs)
    with pytest.raises(ValueError):
        load_checkpoint(stale)

    blobs["meta"] = json.dumps({**meta, "version": 1})
    blobs["W3"] = np.zeros((2, 2))
    torn = tmp_path / "torn.npz"
    np.savez(torn, **blobs)
    with pytest.raises(ValueError):
        load_checkpoint(torn)

    # Each malformed file names itself and the missing or mismatched entry.
    meta["version"] = 1
    blobs["W3"] = net.params["W3"]
    broken = {
        "no_v": ({k: b for k, b in blobs.items() if k != "v"}, "'v'"),
        "no_b2": ({k: b for k, b in blobs.items() if k != "b2"}, "'b2'"),
        "no_dim": ({**blobs, "meta": json.dumps({k: m for k, m in meta.items()
                                                 if k != "dim"})}, "'dim'"),
        "float_hidden": ({**blobs, "meta": json.dumps({**meta, "hidden": 6.0})}, "'hidden'"),
        "list_meta": ({**blobs, "meta": json.dumps([meta])}, "JSON object"),
        "text_meta": ({**blobs, "meta": "not json"}, "JSON object"),
        "W2_shape": ({**blobs, "W2": np.zeros((6, 5))}, "'W2'"),
        "b1_shape": ({**blobs, "b1": np.zeros(5)}, "'b1'"),
        "b3_shape": ({**blobs, "b3": np.zeros((3, 1))}, "'b3'"),
        "W1_text": ({**blobs, "W1": np.full(blobs["W1"].shape, "x")}, "'W1'"),
        "v_matrix": ({**blobs, "v": np.full((2, 5), 0.1)}, "non-empty vector"),
    }
    for name, (contents, entry) in broken.items():
        path = tmp_path / f"{name}.npz"
        np.savez(path, **contents)
        with pytest.raises(ValueError, match=entry) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value), name
    for name, write in [("array.npy", lambda p: np.save(p, np.zeros(3))),
                        ("empty.npz", lambda p: p.write_bytes(b"")),
                        ("truncated.npz", lambda p: p.write_bytes(good.read_bytes()[:40])),
                        ("corrupt.npz", lambda p: p.write_bytes(_flip_bytes(good, 2000, 100)))]:
        path = tmp_path / name
        write(path)
        with pytest.raises(ValueError, match="not a policy checkpoint"):
            load_checkpoint(path)


def test_checkpoint_rejects_bad_schedule(tmp_path):
    """A variance outside (0, 1) once loaded and only failed later, in the
    reverse chain, as a non-finite allocation."""
    path = tmp_path / "policy.npz"
    save_checkpoint(path, EpsNetwork(3, hidden=6, rng=substream(39, "ck")),
                    make_schedule())
    with np.load(path) as data:
        blobs = {k: data[k] for k in data.files}
    blobs["v"][0] = -0.5
    np.savez(path, **blobs)
    with pytest.raises(ValueError, match="schedule variances"):
        load_checkpoint(path)
