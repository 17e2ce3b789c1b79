"""Configuration parsing, experiment plumbing, and the command-line surface."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import golden
from cfrs import cli, scenario
from cfrs.closed_form import DegenerateStatisticsError
from cfrs.config import SystemConfig, db_to_linear, dbm_to_mw
from cfrs.diffusion import (DiffusionTrainer, EpsNetwork, TrainingError,
                            make_schedule, save_checkpoint)
from cfrs.estimation import EstimationError
from cfrs.experiments import (EXPERIMENT_IDS, FIGURE_PRESETS, ConfigError,
                              ExperimentSpec, parse_config_text,
                              run_experiment)
from cfrs.monte_carlo import ChannelSampler
from cfrs.rng import substream

TINY_CONFIG = """\
# smallest useful sweep
experiment = rician_sweep
n_geometries = 1
kappa_grid_db = -5, 5
ue_grid = 2, 3
seed = 11

L = 6
K = 2
N = 2
tau_p = 2
"""


def _strict_json(text):
    """Parse CLI output as strict JSON: a NaN or Infinity token fails."""
    def reject(token):
        raise ValueError(f"CLI output holds the non-JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_unit_conversions():
    assert dbm_to_mw(0.0) == pytest.approx(1.0)
    assert dbm_to_mw(30.0) == pytest.approx(1000.0)
    assert db_to_linear(3.0) == pytest.approx(1.9952623)
    assert db_to_linear(float("-inf")) == 0.0


def test_system_config_validation_names_fields():
    with pytest.raises(ValueError, match="tau_p"):
        SystemConfig(tau_p=300)
    with pytest.raises(ValueError, match="d_H"):
        SystemConfig(d_H=0.7)
    with pytest.raises(ValueError, match="asd_deg"):
        SystemConfig(asd_deg=-3.0)
    cfg = SystemConfig()
    assert cfg.prelog == pytest.approx((200 - 2) / 200)


@pytest.mark.parametrize("name, value", [
    ("p_pilot_dbm", float("nan")), ("p_dl_dbm", float("nan")), ("p_dl_dbm", float("inf")),
    ("noise_dbm", float("-inf")), ("area_side", float("nan")), ("area_side", float("inf")),
    ("asd_deg", float("inf")), ("rician_db", float("nan")), ("rician_db", float("inf")),
    ("p_pilot_dbm", -4000.0), ("p_pilot_dbm", 4000.0), ("p_dl_dbm", 4000.0),
    ("noise_dbm", 4000.0), ("rician_db", 4000.0), ("noise_dbm", -4000.0),
])
def test_system_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        SystemConfig(**{name: value})


def test_experiment_spec_validation():
    spec = ExperimentSpec()
    assert spec.experiment == "cdf"
    assert spec.ga_config.pop_size == spec.ga_pop
    with pytest.raises(ConfigError, match="experiment id"):
        ExperimentSpec(experiment="nope")
    with pytest.raises(ConfigError, match="n_blocks"):
        ExperimentSpec(n_blocks=0)
    with pytest.raises(ConfigError, match="rho_grid"):
        ExperimentSpec(rho_grid=())
    with pytest.raises(ConfigError, match="train_lr"):
        ExperimentSpec(train_lr=0.0)


@pytest.mark.parametrize("name, value, problem", [
    ("rho_grid", (0.0, float("nan")), "finite"),
    ("power_grid_dbm", (23.0, float("inf")), "finite"),
    ("kappa_grid_db", (float("-inf"), 5.0), "finite"),
    ("rho_grid", (0.0, 0.5, 0.0), "repeat"),
    ("ap_grid", (4, 8, 4), "repeat"),
    ("ue_grid", (4, 4), "repeat"),
    ("train_lr", float("nan"), "finite"),
    ("n_blocks", 1, "at least 2"),
    ("ap_grid", (0, 4), "at least 1"),
    ("ue_grid", (0,), "at least 1"),
    ("rho_grid", (0.5, 1.5), r"in \[0, 1\]"),
    ("ga_pop", 2, "population too small"),
])
def test_experiment_spec_rejects_bad_values(name, value, problem):
    with pytest.raises(ConfigError, match=f"{name} must .*{problem}"):
        ExperimentSpec(**{name: value})


def test_config_text_parses_to_spec():
    text = """\
experiment = ap_sweep
seed = 5
n_geometries = 3
ap_grid = 2, 4
rho_grid = 0.0, 0.25, 0.5
L = 8
K = 3
N = 2
tau_p = 3
rician_db = -inf
shadowing = true
"""
    # Rayleigh fading is spelled -inf.
    assert parse_config_text(text) == ExperimentSpec(
        experiment="ap_sweep", seed=5, n_geometries=3, ap_grid=(2, 4),
        rho_grid=(0.0, 0.25, 0.5),
        system=SystemConfig(L=8, K=3, N=2, tau_p=3, rician_db=float("-inf"),
                            shadowing=True))


def test_every_field_is_a_config_key():
    """Every SystemConfig field but seed and every ExperimentSpec field but
    system is a key, parsed by the field's type."""
    system = {"L": 7, "K": 3, "N": 2, "tau_c": 150, "tau_p": 3, "area_side": 400.0,
              "d_H": 0.25, "N_c": 4, "asd_deg": 20.0, "rician_db": float("-inf"),
              "p_pilot_dbm": 10.0, "p_dl_dbm": 30.0, "noise_dbm": -90.0,
              "shadowing": True, "balanced_pilots": False}
    spec = {"experiment": "ap_sweep", "seed": 9, "out_dir": "elsewhere",
            "n_geometries": 3, "n_blocks": 50, "rho_grid": (0.0, 0.5),
            "power_grid_dbm": (10.0,), "ap_grid": (2, 3), "kappa_grid_db": (0.0, 1.5),
            "ue_grid": (2,), "ga_pop": 10, "ga_generations": 4, "train_steps": 7,
            "train_lr": 0.01}
    assert set(system) == {f.name for f in fields(SystemConfig)} - {"seed"}
    assert set(spec) == {f.name for f in fields(ExperimentSpec)} - {"system"}

    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)

    lines = "".join(f"{key} = {text(value)}\n" for key, value in {**system, **spec}.items())
    parsed = parse_config_text(lines)
    for owner, values, default in ((parsed.system, system, SystemConfig()),
                                   (parsed, spec, ExperimentSpec())):
        for key, value in values.items():
            assert getattr(default, key) != value, key
            # repr tells 3 from 3.0 and True from 1.
            assert repr(getattr(owner, key)) == repr(value), key
    assert parsed.system.seed == SystemConfig().seed


def test_parse_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        parse_config_text("seed = 3\nbogus = 1\n")
    with pytest.raises(ConfigError, match="line 1.*expected 'key = value'"):
        parse_config_text("just words\n")
    with pytest.raises(ConfigError, match="line 1.*as int"):
        parse_config_text("seed = soon\n")
    with pytest.raises(ConfigError, match="line 1.*empty value"):
        parse_config_text("seed =\n")
    with pytest.raises(ConfigError, match="line 1.*as bool"):
        parse_config_text("shadowing = yep\n")
    with pytest.raises(ConfigError, match="tau_p"):
        parse_config_text("tau_p = 500\n")


def test_parse_config_defaults_and_comments():
    assert parse_config_text("") == ExperimentSpec()
    spec = parse_config_text("# a comment\n\nseed = 9  # trailing\n")
    assert spec.seed == 9
    spec = parse_config_text(TINY_CONFIG)
    assert spec.experiment == "rician_sweep"
    assert spec.kappa_grid_db == (-5.0, 5.0)
    assert spec.ue_grid == (2, 3)
    assert spec.system.L == 6


def test_figure_presets_are_valid_specs():
    assert set(p.experiment for p in FIGURE_PRESETS.values()) <= set(EXPERIMENT_IDS)
    for name, preset in FIGURE_PRESETS.items():
        assert isinstance(preset, ExperimentSpec), name


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    spec = parse_config_text(TINY_CONFIG)
    spec = ExperimentSpec(**{**spec.__dict__, "out_dir": str(out)})
    files = run_experiment(spec)
    return spec, files


def test_run_experiment_outputs(tiny_run):
    spec, files = tiny_run
    csv_path, sidecar = files
    assert csv_path.endswith(".csv") and sidecar.endswith(".json")
    with open(csv_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "kappa_db,n_ues,variant,sum_se"
    # 2 kappa values x 2 user counts x 2 variants
    assert len(lines) == 1 + 2 * 2 * 2
    meta = json.load(open(sidecar))
    assert meta["experiment"] == "rician_sweep"
    assert meta["seed"] == 11


def test_run_experiment_deterministic(tiny_run, tmp_path, monkeypatch):
    spec, files = tiny_run
    rerun = ExperimentSpec(**{**spec.__dict__, "out_dir": str(tmp_path / "a")})
    a = run_experiment(rerun)
    assert open(a[0]).read() == open(files[0]).read()
    # A process pool must not change a single byte.
    monkeypatch.setenv("CFRS_WORKERS", "2")
    pooled = ExperimentSpec(**{**spec.__dict__, "out_dir": str(tmp_path / "b")})
    b = run_experiment(pooled)
    assert open(b[0]).read() == open(files[0]).read()


# Header and row count of every runner at the tiny size below, with the
# default grids: 21 splitting factors, 5 powers, 5 AP counts, 7 Rician
# factors x 2 user counts, 12 held-out environments, and 600 training steps
# evaluated every 500.
_RUNNER_SHAPES = {
    "cdf": ("geometry_id,variant,sum_se,stderr", 2 * 4),
    "power_sweep": ("p_dl_dbm,csi,variant,sum_se_uatf,sum_se_achievable,"
                    "achievable_stderr", 5 * 2 * 2),
    "rho_sweep_split": ("channel,rho0,variant,sum_se", 2 * 21 * 3),
    "rho_sweep_control": ("rho0,variant,sum_se", 21 * 3),
    "ap_sweep": ("n_aps,variant,sum_se", 5 * 3),
    "rician_sweep": ("kappa_db,n_ues,variant,sum_se", 7 * 2 * 2),
    "train_diffusion": ("step,loss_window_mean,held_out_mean_sum_se", 2),
    "eval_dynamic": ("env_kappa_db,env_asd_deg,variant,sum_se", 12 * 4),
}


@pytest.mark.parametrize("experiment", EXPERIMENT_IDS)
def test_every_runner_writes_reproducible_outputs(experiment, tmp_path, monkeypatch):
    tiny = golden.tiny_spec(experiment, tmp_path / "a")
    first = run_experiment(tiny)
    # Each output matches its golden copy, recorded by tests/record_golden.py.
    for path in first:
        with open(path, encoding="utf-8") as fh:
            golden.assert_matches(fh.read(), os.path.basename(path))
    header, n_rows = _RUNNER_SHAPES[experiment]
    with open(first[0]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + n_rows
    for line in lines[1:]:
        cells = line.split(",")
        assert np.isfinite(float(cells[-1])), line
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert np.isfinite(value), line
        # A Monte Carlo standard error is positive on simulated rows and
        # exactly 0 on closed-form rows.
        for name, cell in zip(header.split(","), cells):
            if name.endswith("stderr"):
                simulated = experiment != "cdf" or cells[1].startswith("achievable")
                assert (float(cell) > 0.0) if simulated else float(cell) == 0.0, line
    # The rerun maps the drops on a process pool; not a byte may change.
    monkeypatch.setenv("CFRS_WORKERS", "2")
    second = run_experiment(ExperimentSpec(**{**tiny.__dict__,
                                              "out_dir": str(tmp_path / "b")}))
    for a, b in zip(first, second):
        assert open(a, "rb").read() == open(b, "rb").read(), a


def test_sweep_rows_are_means_over_drops(tmp_path):
    """A sweep row is its key, in first-seen order, followed by the mean over
    the drops of each drop's value; every drop has its own substreams."""
    spec = ExperimentSpec(experiment="ap_sweep", seed=4, n_geometries=2, ap_grid=(6, 4),
                          system=SystemConfig(K=2, N=2), out_dir=str(tmp_path))
    with open(run_experiment(spec)[0]) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    expected = []
    for n_aps in spec.ap_grid:
        values = {"no_rs": [], "rs": [], "rs_heuristic": []}
        for g in range(spec.n_geometries):
            drop = scenario.EnvScenario(
                replace(spec.system, L=n_aps),
                rngs=(substream(4, f"ap-{n_aps}", "geometry", str(g)),
                      substream(4, f"ap-{n_aps}", "pilots", str(g))))
            cache = drop.cache()
            values["no_rs"].append(drop.no_rs_value(cache))
            values["rs"].append(drop.best_equal_split(cache, spec.rho_grid)[1])
            values["rs_heuristic"].append(drop.best_heuristic(cache, spec.rho_grid)[1])
        expected += [[str(n_aps), variant, repr(float(np.mean(v)))]
                     for variant, v in values.items()]
    assert rows == expected


def test_cli_run_and_errors(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    rc = cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    written = _strict_json(capsys.readouterr().out)["written"]
    assert len(written) == 2

    assert cli.main(["run", str(tmp_path / "missing.cfg")]) == 2
    err = _strict_json(capsys.readouterr().err)
    assert "not found" in err["error"]

    bad = tmp_path / "bad.cfg"
    bad.write_text("tau_p = 500\n")
    assert cli.main(["run", str(bad)]) == 2
    err = _strict_json(capsys.readouterr().err)
    assert "tau_p" in err["error"]

    assert cli.main(["reproduce", "fig99"]) == 2
    err = _strict_json(capsys.readouterr().err)
    assert "figure" in err["error"]


def test_cli_reproduce_runs_a_preset(tmp_path, capsys):
    """reproduce runs the figure's packaged spec: the sidecar's parameters
    are the preset's, and only --out-dir is overridden."""
    out = tmp_path / "fig6"
    assert cli.main(["reproduce", "fig6", "--out-dir", str(out)]) == 0
    csv_path, sidecar = _strict_json(capsys.readouterr().out)["written"]
    assert (csv_path, sidecar) == (str(out / "ap_sweep.csv"), str(out / "ap_sweep.csv.json"))
    with open(csv_path, encoding="utf-8") as fh:
        assert fh.readline() == "n_aps,variant,sum_se\n"
    with open(sidecar, encoding="utf-8") as fh:
        meta = _strict_json(fh.read())
    preset = FIGURE_PRESETS["fig6"]
    parameters = {f.name: getattr(preset, f.name) for f in fields(preset)
                  if f.name not in ("experiment", "seed", "system", "out_dir")}
    assert meta["parameters"] == json.loads(json.dumps(parameters))
    assert (meta["experiment"], meta["seed"]) == (preset.experiment, preset.seed)


def test_cli_run_names_malformed_workers(tmp_path, capsys, monkeypatch):
    """A malformed CFRS_WORKERS once failed with int()'s bare message, which
    named neither the variable nor its role; a count of at most 1 is serial."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TINY_CONFIG)
    monkeypatch.setenv("CFRS_WORKERS", "two")
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "bad")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _strict_json(captured.err) == {"error": "CFRS_WORKERS must be an integer, "
                                                   "got 'two'"}
    monkeypatch.setenv("CFRS_WORKERS", "0")
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "serial")]) == 0
    assert len(_strict_json(capsys.readouterr().out)["written"]) == 2


def test_cli_run_rayleigh_sidecar_is_strict_json(tmp_path, capsys):
    """A Rayleigh config's sidecar once held the non-JSON token -Infinity."""
    cfg = tmp_path / "rayleigh.cfg"
    cfg.write_text(TINY_CONFIG.replace("kappa_grid_db = -5, 5\n", "")
                   .replace("experiment = rician_sweep", "experiment = cdf")
                   + "rician_db = -inf\nn_blocks = 20\n")
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    _, sidecar = _strict_json(capsys.readouterr().out)["written"]
    with open(sidecar, encoding="utf-8") as fh:
        meta = _strict_json(fh.read())
    assert meta["system"]["rician_db"] == "-inf"
    assert parse_config_text(f"rician_db = {meta['system']['rician_db']}\n") \
        .system.rician_db == float("-inf")


@pytest.mark.parametrize("line", ["p_dl_dbm = nan", "area_side = nan",
                                  "power_grid_dbm = 3, inf", "ue_grid = 2, 2",
                                  "n_blocks = 1", "ap_grid = 0, 4", "ue_grid = 0",
                                  "rho_grid = 0.5, 1.5", "ga_pop = 2",
                                  "p_pilot_dbm = 4000", "p_dl_dbm = 4000",
                                  "noise_dbm = 4000", "rician_db = 4000"])
def test_cli_run_rejects_non_finite_and_repeated_values(line, tmp_path, capsys):
    """Such a config once ran to NaN rows, duplicate rows, a traceback (an
    OverflowError for a dB setting past the float range), or a failure
    partway through the run."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CONFIG + line + "\n")
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and line.split()[0] in err["error"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, grid", [("power_sweep", "power_grid_dbm = 3, 4000"),
                                              ("rician_sweep", "kappa_grid_db = 0, 4000")])
def test_cli_run_rejects_a_grid_entry_that_gives_no_system(experiment, grid, tmp_path,
                                                            capsys):
    """A sweep entry past the float range once passed parsing and failed
    inside the sweep with exit 1, naming the system setting it was copied
    into: exit 2 before anything runs, naming the grid."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = {experiment}\nn_geometries = 1\nn_blocks = 20\n"
                   f"K = 2\nL = 2\nN = 2\ntau_p = 1\n{grid}\n")
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and f"{grid.split()[0]} entry 4000.0" in err["error"]
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_a_noise_power_that_underflows(tmp_path, capsys):
    """A noise power that underflowed to 0 mW once ran the smallest cdf sweep
    to NaN achievable rates (exit 0): exit 2 with one JSON object naming the
    setting."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = cdf\nn_geometries = 1\nn_blocks = 20\n"
                   "K = 1\nL = 2\nN = 2\ntau_p = 1\nnoise_dbm = -4000\n")
    assert cli.main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and "noise_dbm" in err["error"]
    assert not (tmp_path / "out").exists()


def test_cli_infer_rejects_a_rician_factor_past_the_float_range(tmp_path, capsys):
    """--kappa-db 4000 with --evaluate once ended in an OverflowError
    traceback: exit 1 with one JSON object on stderr."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    rc = cli.main(["infer", "--kappa-db", "4000", "--asd-deg", "10", "--checkpoint",
                   str(ckpt), "--evaluate"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and "rician_db" in err["error"]


def test_cli_validate(capsys):
    rc = cli.main(["validate", "--draws", "40000", "--seed", "7"])
    out = _strict_json(capsys.readouterr().out)
    assert rc == 0
    assert out["ok"] is True
    assert out["draws"] == 40000
    assert all(check["rel_err"] <= check["tol"] for check in out["checks"])
    assert all(np.isfinite(check["stderr"]) and check["stderr"] > 0
               for check in out["checks"])


def _inner(x, y):
    return np.sum(x.conj() * y, axis=-1)


# Check kind -> its per-block sample at the indices its name gives, from
# the draws g and ghat (n, K, L, N) and the error covariances C.
_VALIDATE_SAMPLES = {
    "first_moment": lambda g, h, C, k, i, l: _inner(g[:, k, l], h[:, i, l]),
    "second_moment": lambda g, h, C, k, i, l: np.abs(_inner(g[:, k, l], h[:, i, l])) ** 2,
    "upsilon4": lambda g, h, C, k, i, j, l: (_inner(h[:, k, l], h[:, i, l]).conj()
                                             * _inner(h[:, k, l], h[:, j, l])),
    "upsilon5": lambda g, h, C, k, i, j, l: _inner(h[:, i, l], h[:, j, l] @ C[k, l].T),
    "common_normalizer": lambda g, h, C, l: _inner(h[:, :, l].sum(axis=1),
                                                   h[:, :, l].sum(axis=1)).real,
    "private_normalizer": lambda g, h, C, i, l: _inner(h[:, i, l], h[:, i, l]).real,
}


def test_cli_validate_reports_the_named_tuples(capsys):
    """Each check's monte_carlo and stderr are the sample mean and ddof=1
    standard error (var(re) + var(im)) of the tuple its name gives, over one
    draw of every block on validate's stream."""
    seed, n = 61, 3000
    assert cli.main(["validate", "--draws", str(n), "--seed", str(seed)]) in (0, 3)
    checks = _strict_json(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [
        "first_moment[0,1,0]", "second_moment[0,1,0]", "upsilon4[0,1,2,0]",
        "upsilon5[0,1,2,0]", "common_normalizer[0]", "private_normalizer[0,0]"]
    cfg = SystemConfig(K=3, L=2, N=2, tau_p=2, seed=seed)
    drop = scenario.EnvScenario(cfg)
    est = drop.drop_statistics()
    g, ghat = ChannelSampler(est).draw(n, substream(seed, "mc"))
    for check in checks:
        kind, index = check["name"].rstrip("]").split("[")
        x = _VALIDATE_SAMPLES[kind](g, ghat, est.C, *map(int, index.split(",")))
        value = check["monte_carlo"]
        mean = complex(value["re"], value["im"]) if isinstance(value, dict) else value
        assert abs(mean - x.mean()) <= 1e-12 * abs(x.mean()), check["name"]
        stderr = np.sqrt((x.real.var(ddof=1) + x.imag.var(ddof=1)) / n)
        assert abs(check["stderr"] - stderr) <= 1e-12 * stderr, check["name"]


def test_cli_train_and_infer(tmp_path, capsys):
    rc = cli.main(["train", "--steps", "150", "--out-dir", str(tmp_path)])
    assert rc == 0
    summary = _strict_json(capsys.readouterr().out)
    ckpt = tmp_path / "diffusion.npz"
    assert ckpt.exists() and (tmp_path / "expert_dataset.csv").exists()
    assert summary["steps"] == 150

    rc = cli.main(["infer", "--kappa-db", "7.5", "--asd-deg", "30",
                   "--checkpoint", str(ckpt), "--evaluate"])
    assert rc == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["in_training_range"] is True
    assert len(out["rho"]) == 8
    assert len(out["eta"]) == 4 and len(out["eta"][0]) == 8
    assert np.isfinite(out["sum_se"])

    rc = cli.main(["infer", "--kappa-db", "25.0", "--asd-deg", "30",
                   "--checkpoint", str(ckpt)])
    assert rc == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["in_training_range"] is False

    assert cli.main(["infer", "--kappa-db", "0", "--asd-deg", "30",
                     "--checkpoint", str(tmp_path / "nope.npz")]) == 2


def _policy_net():
    """An untrained network of the packaged system's dimension."""
    K, L = 4, 8
    return EpsNetwork(L + K * L, hidden=16, rng=np.random.default_rng(3))


def test_cli_infer_rejects_nan_checkpoint(tmp_path, capsys):
    """One NaN weight makes the reverse chain non-finite: exit 1 with one
    JSON object on stderr, not a NaN allocation on stdout."""
    net = _policy_net()
    net.params["W3"][0, 0] = np.nan
    ckpt = tmp_path / "nan.npz"
    save_checkpoint(str(ckpt), net, make_schedule())
    rc = cli.main(["infer", "--kappa-db", "5", "--asd-deg", "30",
                   "--checkpoint", str(ckpt)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and "non-finite" in err["error"]


@pytest.mark.parametrize("key", ["W1", "W2"])
def test_cli_infer_rejects_infinite_weight(key, tmp_path, capsys):
    """One infinite weight feeding a tanh once loaded and printed a finite
    allocation (exit 0): exit 1 with one JSON object on stderr naming the
    file and the array."""
    net = _policy_net()
    net.params[key][0, 0] = np.inf
    ckpt = tmp_path / "inf.npz"
    save_checkpoint(str(ckpt), net, make_schedule())
    rc = cli.main(["infer", "--kappa-db", "5", "--asd-deg", "30",
                   "--checkpoint", str(ckpt)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"]
    assert str(ckpt) in err["error"] and f"{key!r}" in err["error"]
    assert "non-finite" in err["error"]


_INFER = ["infer", "--kappa-db", "5", "--asd-deg", "30", "--checkpoint"]


def _infer_stdout(path, capsys):
    assert cli.main(_INFER + [str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


def test_cli_infer_reads_a_checkpoint_rewritten_in_place(tmp_path, capsys):
    """A checkpoint rewritten with other weights of the same shapes, at the
    same path, size and modification time, is read anew by the next infer."""
    ckpt, other = tmp_path / "policy.npz", tmp_path / "other.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    retrained = EpsNetwork(_policy_net().dim, hidden=16, rng=np.random.default_rng(4))
    save_checkpoint(str(other), retrained, make_schedule())
    first, expected = _infer_stdout(ckpt, capsys), _infer_stdout(other, capsys)
    assert first != expected
    assert _infer_stdout(ckpt, capsys) == first

    before = ckpt.stat()
    save_checkpoint(str(ckpt), retrained, make_schedule())
    os.utime(ckpt, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = ckpt.stat()
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert _infer_stdout(ckpt, capsys) == expected


def test_cli_infer_fails_on_a_checkpoint_truncated_after_a_good_load(tmp_path, capsys):
    """A load that succeeded does not excuse the next one: a truncated file
    exits 1 naming itself, and the restored file loads again."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    good = ckpt.read_bytes()
    first = _infer_stdout(ckpt, capsys)
    ckpt.write_bytes(good[:-100])
    assert cli.main(_INFER + [str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and str(ckpt) in err["error"]
    assert "not a policy checkpoint" in err["error"]
    ckpt.write_bytes(good)
    assert _infer_stdout(ckpt, capsys) == first


def test_cli_infer_in_a_fresh_process_matches_warm_calls(tmp_path, capsys):
    """A one-shot `python -m cfrs.cli infer` prints byte for byte what the
    third of three in-process calls prints, so the shared parser and the
    parsed checkpoint change nothing a one-shot command line sees."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    argv = ["infer", "--kappa-db", "-2.5", "--asd-deg", "60", "--seed", "61",
            "--checkpoint", str(ckpt)]
    for _ in range(3):
        assert cli.main(argv) == 0
        warm = capsys.readouterr()
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fresh = subprocess.run([sys.executable, "-m", "cfrs.cli"] + argv, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
                           check=False)
    assert fresh.returncode == 0, fresh.stderr
    assert warm.err == ""
    assert fresh.stdout == warm.out


def test_cli_infer_rejects_malformed_checkpoint(tmp_path, capsys):
    """A checkpoint without b2 once raised KeyError out of main as a
    traceback: exit 1 with one JSON object on stderr naming the file and
    the array."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    with np.load(ckpt) as data:
        blobs = {k: data[k] for k in data.files if k != "b2"}
    np.savez(ckpt, **blobs)
    rc = cli.main(["infer", "--kappa-db", "5", "--asd-deg", "30", "--checkpoint", str(ckpt)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and str(ckpt) in err["error"] and "'b2'" in err["error"]


@pytest.mark.parametrize("argv, code, field", [
    (["train", "--steps", "0"], 2, "train_steps"),
    (["train", "--lr", "nan"], 2, "train_lr"),
    (["infer", "--kappa-db", "inf", "--asd-deg", "30", "--evaluate"], 1, "kappa_db"),
    (["infer", "--kappa-db", "nan", "--asd-deg", "30"], 1, "kappa_db"),
], ids=["train_steps_0", "train_lr_nan", "infer_kappa_inf", "infer_kappa_nan"])
def test_cli_rejects_bad_train_and_infer_values(argv, code, field, tmp_path, capsys):
    """These once got past the CLI: --steps 0 wrote an untrained checkpoint
    and printed a NaN loss, --lr nan failed as diverged training (exit 6), an
    infinite Rician factor printed Infinity and a NaN sum SE, and a NaN one
    was blamed on the checkpoint."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    out_dir = tmp_path / "out"
    where = ["--out-dir", str(out_dir)] if argv[0] == "train" else ["--checkpoint", str(ckpt)]
    assert cli.main(argv + where) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and field in err["error"]
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, words", [
    (["bogus"], ["invalid choice", "'bogus'"]),
    ([], ["required", "command"]),
    (["infer", "--kappa-db", "x", "--asd-deg", "30"], ["cfrs infer", "--kappa-db", "'x'"]),
    (["infer", "--asd-deg", "30"], ["cfrs infer", "required", "--kappa-db"]),
    (["validate", "--draws", "1", "--frobnicate"], ["unrecognized", "--frobnicate"]),
], ids=["unknown_command", "no_command", "malformed_value", "missing_option",
        "unknown_option"])
def test_cli_usage_errors_keep_contract(argv, words, capsys):
    """A command line argparse rejects exits 2 with one JSON object on stderr
    naming the problem, not with argparse's usage text."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"]
    for word in words:
        assert word in err["error"]


@pytest.mark.parametrize("argv", [["--help"], ["infer", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cfrs") and captured.err == ""


def test_cli_builds_one_parser():
    assert cli.build_parser() is cli.build_parser()


def test_cli_shared_parser_keeps_every_contract(tmp_path, capsys):
    """In one process, a usage error, --help, a valid infer and another usage
    error each report as they do in a fresh process: one JSON object on
    stderr and exit 2, usage text and exit 0, the allocation and exit 0."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    malformed = ["infer", "--kappa-db", "x", "--asd-deg", "30"]
    assert cli.main(malformed) == 2
    first = capsys.readouterr()
    assert first.out == ""
    assert list(_strict_json(first.err)) == ["error"] and "'x'" in first.err

    with pytest.raises(SystemExit) as exit_info:
        cli.main(["infer", "--help"])
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: cfrs infer") and captured.err == ""

    out = _strict_json(_infer_stdout(ckpt, capsys))
    assert out["in_training_range"] is True and len(out["rho"]) == 8

    assert cli.main(["validate", "--draws", "1", "--frobnicate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and "--frobnicate" in err["error"]
    assert cli.main(malformed) == 2
    assert capsys.readouterr() == first


def test_cli_non_finite_report_keeps_contract(tmp_path, capsys, monkeypatch):
    """A NaN in a report exits 1 with one JSON object on stderr instead of
    printing a NaN token on stdout."""
    ckpt = tmp_path / "policy.npz"
    save_checkpoint(str(ckpt), _policy_net(), make_schedule())
    monkeypatch.setattr(cli, "sum_se_batch", lambda *args: np.array([np.nan]))
    assert cli.main(["infer", "--kappa-db", "5", "--asd-deg", "30",
                     "--checkpoint", str(ckpt), "--evaluate"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert list(_strict_json(captured.err)) == ["error"]


def test_cli_validate_fails_fast_on_degenerate_drop(capsys, monkeypatch):
    """A drop whose first AP no user reaches has a zero common-precoder
    norm: validate exits 4 from the closed form, before any block is drawn."""
    link_statistics = scenario.link_statistics

    def unreachable_ap(cfg, geometry):
        stats = link_statistics(cfg, geometry)
        hbar, R = stats.hbar.copy(), stats.R.copy()
        hbar[:, 0] = 0.0
        R[:, 0] = 0.0
        return replace(stats, hbar=hbar, R=R)

    sampled = []
    monkeypatch.setattr(scenario, "link_statistics", unreachable_ap)
    monkeypatch.setattr(cli, "sample_moments", lambda *args: sampled.append(args))
    assert cli.main(["validate", "--draws", "100"]) == 4
    assert sampled == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and "normalizer" in err["error"]


# Stage name -> (owner, attribute) that the CLI reaches at that stage.
_STAGES = {"estimation_statistics": (scenario, "estimation_statistics"),
           "train": (DiffusionTrainer, "step")}


@pytest.mark.parametrize("stage, argv, exc, code", [
    ("estimation_statistics", ["validate", "--draws", "100"],
     DegenerateStatisticsError("mu_c is not positive"), 4),
    ("estimation_statistics", ["validate", "--draws", "100"],
     EstimationError("pilot 0: observation covariance is singular"), 5),
    ("train", ["train", "--steps", "5"], TrainingError("loss diverged at step 3"), 6),
])
def test_cli_numerical_errors_keep_contract(stage, argv, exc, code, tmp_path, capsys,
                                            monkeypatch):
    """Numerical failures end in one JSON object on stderr and a documented
    exit code, not a traceback."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(*_STAGES[stage], fail)
    if argv[0] == "train":
        argv = argv + ["--out-dir", str(tmp_path)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    err = _strict_json(captured.err)
    assert list(err) == ["error"] and str(exc) in err["error"]
