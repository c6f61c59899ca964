import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import conetip as ct
from conetip.cli import main, run_command
from conetip.errors import ConfigError
from conetip.io import (SUBCOMMANDS, _SWEEP_DEFAULTS, parse_config,
                        serialize_config, write_results)

MINIMAL = json.dumps({
    "subcommand": "spectrum",
    "geometry": {"kind": "internal", "alpha": 0.7853981633974483},
    "material": {"kappa": -0.5},
})


def test_parse_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mesh == {"elements": 64, "order": 2}
    assert cfg.modes == (0, 1, 2, 3, 4)
    assert cfg.material.sigma_minus == -2.0


def test_parse_rejects_kappa_minus_one():
    bad = json.loads(MINIMAL)
    bad["material"] = {"kappa": -1.0}
    with pytest.raises(ConfigError, match="kappa=-1 excluded"):
        parse_config(json.dumps(bad))


def test_parse_rejects_double_contrast():
    bad = json.loads(MINIMAL)
    bad["material"] = {"kappa": -0.5, "sigma_minus": -2.0}
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(json.dumps(bad))


def test_parse_rejects_unknown_keys():
    bad = json.loads(MINIMAL)
    bad["sweep"] = {"line_tolerance": 1e-8}
    with pytest.raises(ConfigError, match="line_tolerance"):
        parse_config(json.dumps(bad))
    bad2 = json.loads(MINIMAL)
    bad2["grids"] = {}
    with pytest.raises(ConfigError, match="grids"):
        parse_config(json.dumps(bad2))
    # sweep.omega was accepted and hashed, but no subcommand read it
    bad["sweep"] = {"omega": 1.0}
    with pytest.raises(ConfigError, match="omega"):
        parse_config(json.dumps(bad))
    # the line criterion is the constant LINE_TOL, not a config key
    bad["sweep"] = {"line_tol": 1e-6}
    with pytest.raises(ConfigError, match="line_tol"):
        parse_config(json.dumps(bad))


@pytest.mark.parametrize("block, value, where", [
    ("geometry", {"kind": "internal", "alpha": "pi"}, "geometry.alpha"),
    ("mesh", {"elements": "many"}, "mesh.elements"),
    ("mesh", {"order": 2.5}, "mesh.order"),
    ("modes", [True], "modes"),
    ("modes", 3, "modes"),
    ("material", {"kappa": True}, "material.kappa"),
    ("material", {"kappa": float("nan")}, "material.kappa"),
    ("material", {"kappa": -0.5, "delta": float("inf")}, "material.delta"),
    ("sweep", {"kappa_range": -0.5}, "sweep.kappa_range"),
    ("sweep", {"n_list": [20, "40"]}, "sweep.n_list"),
    ("sweep", {"rho": None}, "sweep.rho"),
    ("sweep", {"kappa_range": [-0.5]}, "sweep.kappa_range"),
    ("mesh", {"elements": 3}, "mesh.elements"),
    ("mesh", {"order": 3}, "mesh.order"),
])
def test_parse_rejects_malformed_values(block, value, where):
    bad = json.loads(MINIMAL)
    bad[block] = value
    with pytest.raises(ConfigError, match=where):
        parse_config(json.dumps(bad))


def test_config_round_trip():
    cfg = parse_config(MINIMAL)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.config_hash == parse_config(serialize_config(cfg)).config_hash


def test_aleph_bundle():
    cfg = parse_config(json.dumps({
        "subcommand": "aleph",
        "geometry": {"kind": "internal", "alpha": np.pi / 4}}))
    bundle = run_command(cfg)
    assert round(bundle.documents["aleph"]["aleph"], 3) == 0.218


def test_spectrum_csv_contract(tmp_path):
    cfg = parse_config(json.dumps({
        "subcommand": "spectrum",
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": 1.0},
        "modes": [0],
        "mesh": {"elements": 48, "order": 2}}))
    bundle = run_command(cfg)
    paths = write_results(bundle, tmp_path, ["csv"])
    csv = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert csv[0] == "mode,re_Lambda,im_Lambda,re_lambda,im_lambda,classification,residual"
    first = [float(line.split(",")[1]) for line in csv[1:5]]
    np.testing.assert_allclose(first, [0.0, 2.0, 6.0, 12.0], atol=1e-3)
    assert (tmp_path / "meta.json").exists()
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert set(meta) == {"config_hash", "version"}


def test_determinism_across_reruns(tmp_path):
    raw = json.dumps({
        "subcommand": "spectrum",
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": -0.5},
        "modes": [0, 1, 2],
        "mesh": {"elements": 32, "order": 2}})
    cfg = parse_config(raw)
    outs = []
    for name in ("a", "b", "c"):
        d = tmp_path / name
        write_results(run_command(cfg), d)
        outs.append((d / "spectrum.csv").read_bytes()
                    + (d / "meta.json").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_interval_json_contract(tmp_path):
    cfg = parse_config(json.dumps({
        "subcommand": "interval",
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": -0.5},
        "modes": [0],
        "mesh": {"elements": 32, "order": 2},
        "sweep": {"kappa_range": [-0.6, -0.08], "grid": 7, "bisect_tol": 0.02}}))
    bundle = run_command(cfg)
    write_results(bundle, tmp_path, ["json"])
    doc = json.loads((tmp_path / "interval.json").read_text())
    for key in ("alpha", "endpoint_detected", "endpoint_closed_form", "per_mode"):
        assert key in doc
    assert abs(doc["endpoint_detected"] - doc["endpoint_closed_form"]) < 0.05


def test_interval_byte_identical_across_reruns(tmp_path):
    cfg = parse_config(json.dumps({
        "subcommand": "interval",
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": -0.5},
        "modes": [0, 1, 2],
        "mesh": {"elements": 32, "order": 2}}))
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        write_results(run_command(cfg), d)
        outs.append((d / "interval.json").read_bytes() + (d / "meta.json").read_bytes())
    assert outs[0] == outs[1]


def test_trajectory_csv_contract(tmp_path):
    cfg = parse_config(json.dumps({
        "subcommand": "trajectory",
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": -0.5},
        "modes": [0],
        "mesh": {"elements": 32, "order": 2},
        "sweep": {"delta_grid": [1e-3, 1e-4, 1e-5]}}))
    outputs = []
    for run in ("a", "b"):
        paths = write_results(run_command(cfg), tmp_path / run)
        outputs.append({p.name: p.read_bytes() for p in paths})
    assert outputs[0] == outputs[1]
    lines = outputs[0]["trajectory.csv"].decode().splitlines()
    assert lines[0] == "delta,re_lambda,im_lambda,overlap"
    assert len(lines) == 1 + 4  # undamped point + grid
    # one choice per line eigenvalue, keyed by its mode and eta
    selection = json.loads(outputs[0]["selection.json"])
    assert list(selection["choices"]) == [f"m=0,eta={selection['eta']:.12g}"]
    assert selection["choices"][f"m=0,eta={selection['eta']:.12g}"] in ("plus", "minus")


def test_module_entry_point_is_quiet():
    src = pathlib.Path(ct.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "conetip.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: conetip")
    assert proc.stderr == ""


def test_version_single_source():
    # pyproject.toml declares the version dynamic, read from conetip.__version__
    from setuptools.config.pyprojecttoml import read_configuration
    root = pathlib.Path(ct.__file__).resolve().parents[2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # setuptools flags [tool.setuptools] as beta
        project = read_configuration(root / "pyproject.toml", expand=True)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == ct.__version__


def test_cli_resolved_lazily():
    from conetip import run_command as lazy
    assert lazy is ct.cli.run_command is run_command
    with pytest.raises(AttributeError):
        ct.no_such_name


def test_basis_weights_blowup_bundles(tmp_path):
    base = {
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": -0.5},
        "modes": [0, 1],
        "mesh": {"elements": 48, "order": 2}}
    bundle = run_command(parse_config(json.dumps({**base, "subcommand": "basis"})))
    doc = bundle.documents["basis"]
    assert doc["dim"] == 2 * doc["n_outgoing"]
    assert doc["residual"] < 1e-10

    bundle = run_command(parse_config(json.dumps(
        {**base, "subcommand": "weights", "material": {"kappa": 1.0}})))
    w = bundle.documents["weights"]
    assert abs(w["beta_dirichlet"] - 0.5) < 1e-2
    # documented rule: a beta within its certified bound of 1/2 counts as 1/2,
    # otherwise the star is the plain min
    inputs = w["inputs"]
    counted = [0.5 if abs(inputs[k] - 0.5) <= inputs[k + "_err"] else inputs[k]
               for k in ("beta_D", "beta_N")]
    assert (inputs["beta_D"], inputs["beta_N"]) == (w["beta_dirichlet"], w["beta_neumann"])
    assert w["beta_star"] == min(*counted, 0.5)

    bundle = run_command(parse_config(json.dumps({**base, "subcommand": "blowup"})))
    write_results(bundle, tmp_path)
    assert bundle.documents["blowup"]["slope"] > 0
    assert bundle.documents["blowup"]["r_squared"] > 0.999
    lines = (tmp_path / "blowup.csv").read_text().splitlines()
    assert lines[0] == "n,grad_norm_sq"


def test_weights_of_definite_pencils_fall_back_to_full_spectra(monkeypatch):
    # kappa = 1 on a rim: each mode's weight reads its certified lowest pair;
    # with every pair refused it reads the full spectrum, and both take the
    # same decisions, with betas within the full path's bounds
    cfg = parse_config(json.dumps({
        "subcommand": "weights", "material": {"kappa": 1.0}, "modes": [0, 1, 2],
        "geometry": {"kind": "boundary", "alpha": np.pi / 4, "alpha_outer": np.pi / 2,
                     "outer_bc": "neumann"},
        "mesh": {"elements": 32, "order": 2}}))
    lowest = run_command(cfg).documents["weights"]
    monkeypatch.setattr(ct.spectrum, "_lowest_pair", lambda P: None)
    full = run_command(cfg).documents["weights"]
    rim = dataclasses.replace(cfg.geometry, outer_bc="dirichlet")
    specs = [ct.solve_pencil(ct.pencil_for(rim, cfg.material, m, 32, 2)) for m in cfg.modes]
    assert full["beta_dirichlet"] == ct.spectral_weights(specs, "dirichlet").beta
    assert lowest["beta_star"] == full["beta_star"] == 0.5
    for key in ("beta_D", "beta_N"):
        a, b = lowest["inputs"], full["inputs"]
        assert abs(a[key] - b[key]) <= b[key + "_err"] and a[key + "_err"] <= b[key + "_err"]


def test_interval_needs_no_material():
    # the interval is a range of contrasts: its config may leave the material
    # out, and one that gives it keeps the config_hash it had when the block
    # was required
    doc = {"subcommand": "interval", "geometry": {"kind": "internal", "alpha": np.pi / 4},
           "modes": [0], "mesh": {"elements": 16, "order": 2}}
    bare = parse_config(json.dumps(doc))
    given = parse_config(json.dumps({**doc, "material": {"kappa": -0.5}}))
    assert bare.material is None and given.material.kappa == -0.5
    assert parse_config(serialize_config(bare)) == bare
    assert run_command(bare).documents == run_command(given).documents
    assert given.config_hash == \
        "37e41b3c5f75ce84631d94efd98bf7d4f5037351c991b5732d1f9d049b4b7196"
    for sub in ("spectrum", "weights", "basis", "trajectory", "blowup"):
        with pytest.raises(ConfigError, match="requires a material block"):
            parse_config(json.dumps({**doc, "subcommand": sub}))


class _ReadRecorder(dict):
    """A dict that records which keys are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_sweep_key_is_read():
    # a key that no subcommand reads is accepted, validated and hashed for
    # nothing (sweep.omega was such a key); sweep.grid and sweep.bisect_tol
    # are the two kept on purpose, because perfbench's configs carry them
    ignored = {"grid", "bisect_tol"}
    read = set()
    for sub in SUBCOMMANDS:
        cfg = parse_config(json.dumps({
            "subcommand": sub,
            "geometry": {"kind": "internal", "alpha": np.pi / 4},
            "material": {"kappa": -0.5}, "modes": [0],
            "mesh": {"elements": 16, "order": 2}}))
        sweep = _ReadRecorder(cfg.sweep)
        run_command(dataclasses.replace(cfg, sweep=sweep))
        read |= sweep.read
    assert read == set(_SWEEP_DEFAULTS) - ignored and ignored <= set(_SWEEP_DEFAULTS)


def test_cli_main_errors(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(MINIMAL)
    assert main(["aleph", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "does not match" in err
    for block, value in (("geometry", {"alpha": "pi"}), ("mesh", {"elements": "many"}),
                         ("modes", [True])):
        cfg_path.write_text(json.dumps({**json.loads(MINIMAL), block: value}))
        assert main(["spectrum", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: [config-error] ")
    cfg_path.write_text(json.dumps({**json.loads(MINIMAL), "subcommand": "interval",
                                    "sweep": {"kappa_range": [-0.5]}}))
    assert main(["interval", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [config-error] sweep.kappa_range")


def test_basis_next_to_a_fold(tmp_path, capsys):
    # at this contrast the spectrum of mode 1 holds a conjugate pair 4e-6 off
    # the real axis, next to the fold of kappa_1(eta): two line eigenvalues,
    # not one whose flux matrix has the wrong structure
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "subcommand": "basis",
        "geometry": {"kind": "internal", "alpha": np.pi / 4},
        "material": {"kappa": -0.7806797994809195}, "modes": [1],
        "mesh": {"elements": 96, "order": 2}}))
    code = main(["basis", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code in (0, 2)
    assert "not anti-Hermitian" not in capsys.readouterr().err


def test_cli_main_runs(tmp_path):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "subcommand": "aleph",
        "geometry": {"kind": "internal", "alpha": np.pi / 3},
        "output": {"directory": str(tmp_path / "out")}}))
    assert main(["aleph", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "aleph.json").exists()


_RUN_DECISION_COMMANDS = """
import json, pathlib, sys
from conetip.cli import main
cfg_dir, out = map(pathlib.Path, sys.argv[1:])
for cfg in sorted(cfg_dir.glob("*.json")):
    sub = json.loads(cfg.read_text())["subcommand"]
    assert main([sub, "--config", str(cfg), "--out", str(out / cfg.stem)]) == 0
"""


def _read_decision_outputs(out):
    def table(sub):
        return [line.split(",") for line in
                (out / sub / f"{sub}.csv").read_text().splitlines()[1:]]

    def document(sub, name=None):
        return json.loads((out / sub / f"{name or sub}.json").read_text())

    rows = table("spectrum")
    Lams = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    basis, ci, sel = document("basis"), document("interval"), document("trajectory", "selection")
    # a choice's key holds eta to 12 digits: the decision is its mode and value
    choices = [(key.split(",")[0], value) for key, value in sel["choices"].items()]
    return {
        "rows": [(int(r[0]), r[5]) for r in rows],
        "im_sign": np.sign(Lams.imag).tolist(),
        "beta_star": document("weights")["beta_star"],
        "basis": (basis["n_outgoing"], basis["dim"],
                  [(m["mode"], m["chain_level"], m["conjugated"]) for m in basis["members"]]),
        "witness_counts": {m: len(etas) for m, etas in ci["per_mode"].items()},
        "interval": (ci["attaining_mode"], ci["flags"]),
        "selection": (choices, sel["mode"]),
    }, Lams, {
        "basis_eta": [m["eta"] for m in basis["members"]],
        "endpoints": [ci["endpoint_detected"], ci["endpoint_inner"]],
        "witness_eta": [eta for m in sorted(ci["per_mode"]) for eta in ci["per_mode"][m]],
        "choice_eta": [float(key.split("eta=")[1]) for key in sel["choices"]] + [sel["eta"]],
        "lambda": [complex(float(r[1]), float(r[2])) for r in table("trajectory")],
    }


def test_decisions_do_not_depend_on_blas_threads(tmp_path):
    # every decision of spectrum, weights, basis, interval and trajectory is
    # the same with one and two OpenBLAS threads (set in the child's
    # environment only): row modes, order and classes, the sign of Im Lambda,
    # beta_star, the outgoing count and the members, the witness count per
    # mode, the attaining mode and flags, and the selected branches and mode;
    # the values agree to rounding level; the kappa = 1 weights, read from
    # each mode's lowest pair, are byte-identical
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for sub in ("spectrum", "weights", "basis", "interval", "trajectory"):
        (cfg_dir / f"{sub}.json").write_text(json.dumps({
            "subcommand": sub,
            "geometry": {"kind": "internal", "alpha": np.pi / 4},
            "material": {"kappa": -0.5}, "modes": [0, 1, 2],
            "mesh": {"elements": 64, "order": 2}}))
    definite = {"weights_k1_internal": {"kind": "internal", "alpha": np.pi / 4},
                "weights_k1_rim": {"kind": "boundary", "alpha": np.pi / 4,
                                   "alpha_outer": np.pi / 2, "outer_bc": "dirichlet"}}
    for name, geometry in definite.items():
        (cfg_dir / f"{name}.json").write_text(json.dumps({
            "subcommand": "weights", "geometry": geometry, "material": {"kappa": 1.0},
            "modes": [0, 1, 2], "mesh": {"elements": 128, "order": 2}}))
    src = pathlib.Path(ct.__file__).resolve().parents[1]
    runs, weights = [], []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", _RUN_DECISION_COMMANDS, str(cfg_dir), str(out)],
                       check=True, capture_output=True, env=env, timeout=300)
        runs.append(_read_decision_outputs(out))
        weights.append([(out / name / "weights.json").read_bytes() for name in definite])
    assert weights[0] == weights[1]
    (one, Lams_1, values_1), (two, Lams_2, values_2) = runs
    assert one == two
    assert np.all(np.abs(Lams_1 - Lams_2) <= 1e-9 * np.maximum(1.0, np.abs(Lams_1)))
    for name, value in values_1.items():
        assert_allclose(values_2[name], value, rtol=1e-9, err_msg=name)
