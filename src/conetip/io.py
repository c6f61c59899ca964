"""Run configuration parsing and deterministic result serialization.

Configs are JSON documents validated strictly: unknown keys are rejected so a
typo in a tolerance name cannot silently invalidate a run.  Results are
written with a fixed field order and 17-significant-digit floats, so
identical configs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, asdict

from . import __version__
from .cap import CapGeometry, MaterialSpec
from .errors import ConetipError, ConfigError

SUBCOMMANDS = ("spectrum", "interval", "aleph", "basis", "trajectory",
               "blowup", "weights")

_GEOMETRY_KEYS = {"kind", "alpha", "alpha_outer", "outer_bc"}
_MATERIAL_KEYS = {"sigma_plus", "sigma_minus", "kappa", "delta"}
# numeric blocks: key -> default, whose type the value must have; no
# subcommand reads sweep.grid or sweep.bisect_tol, which are parsed (and
# hashed) only because perfbench's interval configs still carry them
_MESH_DEFAULTS = {"elements": 64, "order": 2}
_SWEEP_DEFAULTS = {"kappa_range": [-0.9, -0.05], "grid": 24, "bisect_tol": 1e-3,
                   "delta_grid": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
                   "n_list": [20, 40, 60, 80], "rho": 1.0}
_OUTPUT_KEYS = {"directory", "formats"}
_TOP_KEYS = {"subcommand", "geometry", "material", "modes", "mesh", "sweep",
             "output"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run description with defaults filled in; the geometry and
    material are the objects their guards accepted."""

    subcommand: str
    geometry: CapGeometry
    material: MaterialSpec | None
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


def _number(value, like, where: str):
    """``value`` as the type of ``like`` (int, float or a list of one); a bool,
    a string, a non-finite number or a fraction for an int is a config error."""
    if isinstance(like, list):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        return [_number(v, like[0], where) for v in value]
    kind = type(like)
    if isinstance(value, bool) or not isinstance(value, (int, kind)) \
            or not -math.inf < value < math.inf:
        raise ConfigError(f"{where} must be a finite {kind.__name__}, got {value!r}")
    return kind(value)


def _build(factory, *args):
    """Construct a domain object; its guard failures become config errors."""
    try:
        return factory(*args)
    except ConetipError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config.

    Geometry and material are validated by the guards of
    :class:`~conetip.cap.CapGeometry` / :class:`~conetip.cap.MaterialSpec`
    (contrast -1 excluded, proper apertures), so a bad run fails before any
    work; exactly one of ``sigma_minus`` / ``kappa`` may be given.  The
    ``aleph`` and ``interval`` subcommands need no material block; one that is
    given is validated and hashed all the same.
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
    if "alpha" not in geo:
        raise ConfigError("geometry.alpha is required")
    kind = geo.get("kind", "internal")
    rim = {} if kind == "internal" else geo   # an internal tip ignores rim data
    ao = rim.get("alpha_outer")
    geometry = _build(CapGeometry, kind, _number(geo["alpha"], 0.0, "geometry.alpha"),
                      None if ao is None else _number(ao, 0.0, "geometry.alpha_outer"),
                      rim.get("outer_bc"))

    material = None
    if "material" in raw and raw["material"] is not None:
        mat = dict(raw["material"])
        _check_keys(mat, _MATERIAL_KEYS, "material")
        if ("sigma_minus" in mat) == ("kappa" in mat):
            raise ConfigError("give exactly one of material.sigma_minus and "
                              "material.kappa")
        num = {k: _number(v, 0.0, f"material.{k}") for k, v in mat.items()}
        sigma_plus, delta = num.get("sigma_plus", 1.0), num.get("delta", 0.0)
        material = (_build(MaterialSpec.from_contrast, num["kappa"], sigma_plus, delta)
                    if "kappa" in num else
                    _build(MaterialSpec, sigma_plus, num["sigma_minus"], delta))
    elif sub not in ("aleph", "interval"):
        # the critical interval is a range of contrasts, so it takes none
        raise ConfigError(f"subcommand {sub!r} requires a material block")

    modes = _number(raw.get("modes", [0, 1, 2, 3, 4]), [0], "modes")
    if not modes or min(modes) < 0:
        raise ConfigError("modes must be a nonempty list of integers >= 0")

    mesh = dict(raw.get("mesh") or {})
    _check_keys(mesh, set(_MESH_DEFAULTS), "mesh")
    mesh = {k: _number(mesh.get(k, d), d, f"mesh.{k}") for k, d in _MESH_DEFAULTS.items()}
    if mesh["elements"] < 4:
        raise ConfigError("mesh.elements must be >= 4")
    if mesh["order"] not in (1, 2):
        raise ConfigError("mesh.order must be 1 or 2")

    sweep = dict(raw.get("sweep") or {})
    _check_keys(sweep, set(_SWEEP_DEFAULTS), "sweep")
    sweep = {k: _number(sweep.get(k, d), d, f"sweep.{k}")
             for k, d in _SWEEP_DEFAULTS.items()}
    if len(sweep["kappa_range"]) != 2:
        raise ConfigError("sweep.kappa_range must be a list of 2 numbers")

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
        "geometry": {k: v for k, v in asdict(config.geometry).items()
                     if v is not None},
        "modes": list(config.modes),
        "mesh": dict(config.mesh),
        "sweep": dict(config.sweep),
        "output": dict(config.output),
    }
    if config.material is not None:
        doc["material"] = asdict(config.material)
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
