"""Run configuration parsing and deterministic result serialization.

Configs are JSON documents validated strictly: unknown keys are rejected so a
typo in a tolerance name cannot silently invalidate a run.  Results are
written with a fixed field order and 17-significant-digit floats, so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from .errors import ConfigError

SUBCOMMANDS = ("spectrum", "interval", "aleph", "basis", "trajectory",
               "blowup", "weights")

_GEOMETRY_KEYS = {"kind", "alpha", "alpha_outer", "outer_bc"}
_MATERIAL_KEYS = {"sigma_plus", "sigma_minus", "kappa", "delta"}
_MESH_KEYS = {"elements", "order"}
_SWEEP_KEYS = {"kappa_range", "grid", "bisect_tol", "delta_grid", "n_list",
               "line_tol", "rho", "omega"}
_OUTPUT_KEYS = {"directory", "formats"}
_TOP_KEYS = {"subcommand", "geometry", "material", "modes", "mesh", "sweep",
             "output"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with defaults filled in."""

    subcommand: str
    geometry: dict
    material: dict | None
    modes: tuple
    mesh: dict
    sweep: dict
    output: dict

    def canonical(self) -> str:
        """Canonical JSON text (stable key order); hashing and round-trip key."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where} "
                          "(strict mode rejects unrecognized keys)")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config.

    Guards of the numerical modules are re-validated here so a bad run fails
    before any work: the contrast -1 is excluded, exactly one of
    ``sigma_minus`` / ``kappa`` may be given, apertures must be proper.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "top level")

    sub = raw.get("subcommand")
    if sub not in SUBCOMMANDS:
        raise ConfigError(f"subcommand must be one of {SUBCOMMANDS}, got {sub!r}")

    geo = dict(raw.get("geometry") or {})
    _check_keys(geo, _GEOMETRY_KEYS, "geometry")
    geo.setdefault("kind", "internal")
    if "alpha" not in geo:
        raise ConfigError("geometry.alpha is required")
    alpha = float(geo["alpha"])
    if not 0.0 < alpha < np.pi:
        raise ConfigError(f"geometry.alpha={alpha} outside (0, pi)")
    if geo["kind"] == "internal":
        geometry = {"kind": "internal", "alpha": alpha,
                    "alpha_outer": None, "outer_bc": None}
    elif geo["kind"] == "boundary":
        if "alpha_outer" not in geo or "outer_bc" not in geo:
            raise ConfigError("boundary geometry needs alpha_outer and outer_bc")
        ao = float(geo["alpha_outer"])
        if not alpha < ao <= np.pi:
            raise ConfigError("need alpha < alpha_outer <= pi")
        if geo["outer_bc"] not in ("dirichlet", "neumann"):
            raise ConfigError("outer_bc must be dirichlet or neumann")
        geometry = {"kind": "boundary", "alpha": alpha, "alpha_outer": ao,
                    "outer_bc": geo["outer_bc"]}
    else:
        raise ConfigError(f"unknown geometry kind {geo['kind']!r}")

    material = None
    if "material" in raw and raw["material"] is not None:
        mat = dict(raw["material"])
        _check_keys(mat, _MATERIAL_KEYS, "material")
        has_sm = "sigma_minus" in mat
        has_k = "kappa" in mat
        if has_sm == has_k:
            raise ConfigError("give exactly one of material.sigma_minus and "
                              "material.kappa")
        sigma_plus = float(mat.get("sigma_plus", 1.0))
        if sigma_plus <= 0:
            raise ConfigError("sigma_plus must be positive")
        delta = float(mat.get("delta", 0.0))
        if delta < 0:
            raise ConfigError("delta must be nonnegative")
        if has_k:
            kappa = float(mat["kappa"])
            if kappa == 0:
                raise ConfigError("kappa must be nonzero")
            sigma_minus = sigma_plus / kappa
        else:
            sigma_minus = float(mat["sigma_minus"])
            if sigma_minus == 0:
                raise ConfigError("sigma_minus must be nonzero")
            kappa = sigma_plus / sigma_minus
        if abs(kappa + 1.0) < 1e-10:
            raise ConfigError("kappa=-1 excluded: the pencil spectrum "
                              "degenerates at contrast -1")
        material = {"sigma_plus": sigma_plus, "sigma_minus": sigma_minus,
                    "delta": delta}
    elif sub != "aleph":
        raise ConfigError(f"subcommand {sub!r} requires a material block")

    modes = raw.get("modes", [0, 1, 2, 3, 4])
    if not isinstance(modes, list) or not modes or \
            any((not isinstance(m, int)) or m < 0 for m in modes):
        raise ConfigError("modes must be a nonempty list of integers >= 0")

    mesh = dict(raw.get("mesh") or {})
    _check_keys(mesh, _MESH_KEYS, "mesh")
    mesh = {"elements": int(mesh.get("elements", 64)),
            "order": int(mesh.get("order", 2))}
    if mesh["elements"] < 4:
        raise ConfigError("mesh.elements must be >= 4")
    if mesh["order"] not in (1, 2):
        raise ConfigError("mesh.order must be 1 or 2")

    sweep = dict(raw.get("sweep") or {})
    _check_keys(sweep, _SWEEP_KEYS, "sweep")
    sweep = {
        "kappa_range": [float(x) for x in sweep.get("kappa_range", [-0.9, -0.05])],
        "grid": int(sweep.get("grid", 24)),
        "bisect_tol": float(sweep.get("bisect_tol", 1e-3)),
        "delta_grid": [float(x) for x in sweep.get(
            "delta_grid", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])],
        "n_list": [int(x) for x in sweep.get("n_list", [20, 40, 60, 80])],
        "line_tol": float(sweep.get("line_tol", 1e-6)),
        "rho": float(sweep.get("rho", 1.0)),
        "omega": float(sweep.get("omega", 1.0)),
    }

    out = dict(raw.get("output") or {})
    _check_keys(out, _OUTPUT_KEYS, "output")
    formats = list(out.get("formats", ["csv", "json"]))
    if any(f not in ("csv", "json") for f in formats):
        raise ConfigError("output.formats entries must be csv or json")
    out = {"directory": out.get("directory", "conetip-out"), "formats": formats}

    return RunConfig(subcommand=sub, geometry=geometry, material=material,
                     modes=tuple(int(m) for m in modes), mesh=mesh,
                     sweep=sweep, output=out)


def serialize_config(config: RunConfig) -> str:
    """Round-trip inverse of :func:`parse_config` (sigma_minus form)."""
    doc = {
        "subcommand": config.subcommand,
        "geometry": {k: v for k, v in config.geometry.items() if v is not None},
        "modes": list(config.modes),
        "mesh": dict(config.mesh),
        "sweep": dict(config.sweep),
        "output": dict(config.output),
    }
    if config.material is not None:
        doc["material"] = dict(config.material)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@dataclass
class ResultBundle:
    """Structured records of one run, ready for deterministic serialization.

    ``tables``: name -> (ordered column names, list of row tuples).
    ``documents``: name -> JSON-serializable dict.
    """

    config: RunConfig
    tables: dict = field(default_factory=dict)
    documents: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def meta(self) -> dict:
        return {"config_hash": self.config.config_hash, "version": self.version}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_results(bundle: ResultBundle, out_dir, formats=("csv", "json")):
    """Write the bundle under ``out_dir``; returns the written paths.

    Tables go to ``<name>.csv``, documents to ``<name>.json``, run metadata
    to ``meta.json``.  Field order is fixed and floats carry 17 significant
    digits, so repeated runs are byte-identical.
    """
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "csv" in formats:
        for name in sorted(bundle.tables):
            columns, rows = bundle.tables[name]
            path = out / f"{name}.csv"
            path.write_text(_csv_text(columns, rows))
            written.append(path)
    if "json" in formats:
        for name in sorted(bundle.documents):
            path = out / f"{name}.json"
            path.write_text(_json_text(bundle.documents[name]))
            written.append(path)
    meta_path = out / "meta.json"
    meta_path.write_text(_json_text(bundle.meta))
    written.append(meta_path)
    return written
