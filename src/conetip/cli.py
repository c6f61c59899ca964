"""Command-line driver: dispatches a validated config to the numerical
modules and serializes the results.  Every subcommand runs its modes one
after another, in the order of the config.

    conetip <subcommand> --config cfg.json [--out DIR] [--format csv|json]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import absorption, flux, interval
from .cap import assemble_pencil, build_cap
from .errors import ConfigError, ConetipError
from .io import ResultBundle, RunConfig, SUBCOMMANDS, parse_config, write_results
from .spectrum import (_weight_spectrum, classify_eigenvalue, line_eigenvalues,
                       solve_pencil, spectral_weights, weight_star)


def _pencils(config: RunConfig, geometry=None):
    geometry = geometry or config.geometry
    elements, order = config.mesh["elements"], config.mesh["order"]
    return [assemble_pencil(build_cap(geometry, config.material, m, elements, order))
            for m in config.modes]


def _mode_spectra(config: RunConfig):
    return [solve_pencil(P) for P in _pencils(config)]


def _line_evs(config: RunConfig):
    evs = []
    for spec in _mode_spectra(config):
        evs.extend(line_eigenvalues(spec))
    evs.sort(key=lambda le: (le.mode, le.eta))
    return evs


def _first_simple(evs):
    for le in evs:
        if not le.near_quarter:
            return le
    raise ConfigError("no usable line eigenvalue at this configuration")


def _run_spectrum(config: RunConfig) -> ResultBundle:
    rows = []
    for spec in _mode_spectra(config):
        for p, (lp, _) in zip(spec.pairs, spec.lambda_view):
            rows.append((spec.mode, p.Lambda.real, p.Lambda.imag,
                         lp.real, lp.imag,
                         classify_eigenvalue(p.Lambda), p.residual))
    bundle = ResultBundle(config=config)
    bundle.tables["spectrum"] = (
        ["mode", "re_Lambda", "im_Lambda", "re_lambda", "im_lambda",
         "classification", "residual"], rows)
    return bundle


def _run_interval(config: RunConfig) -> ResultBundle:
    ci = interval.scan_interval(
        config.geometry, kappa_range=tuple(config.sweep["kappa_range"]),
        modes=config.modes, elements=config.mesh["elements"],
        order=config.mesh["order"])
    bundle = ResultBundle(config=config)
    bundle.documents["interval"] = {
        "alpha": ci.alpha,
        "endpoint_detected": ci.endpoint_outer,
        "endpoint_closed_form": ci.closed_form,
        "per_mode": {str(m): list(v) for m, v in ci.per_mode.items()},
        "endpoint_inner": ci.endpoint_inner,
        "attaining_mode": ci.attaining_mode,
        "flags": list(ci.flags),
    }
    return bundle


def _run_aleph(config: RunConfig) -> ResultBundle:
    alpha = config.geometry.alpha
    value = interval.aleph(alpha)
    bundle = ResultBundle(config=config)
    bundle.documents["aleph"] = {"alpha": alpha, "aleph": value,
                                 "endpoint": -value}
    return bundle


def _run_weights(config: RunConfig) -> ResultBundle:
    # a definite pencil's weight reads its lowest pair alone (_weight_spectrum)
    geometry = config.geometry
    if geometry.kind == "boundary":
        # the rim condition is part of the geometry: solve both variants
        wd, wn = (spectral_weights([_weight_spectrum(P) for P in _pencils(
            config, replace(geometry, outer_bc=bc))], bc)
            for bc in ("dirichlet", "neumann"))
    else:
        specs = [_weight_spectrum(P) for P in _pencils(config)]
        wd = spectral_weights(specs, "dirichlet")
        wn = spectral_weights(specs, "neumann")
    star, record = weight_star(wd, wn)
    bundle = ResultBundle(config=config)
    bundle.documents["weights"] = {
        "beta_dirichlet": wd.beta, "beta_neumann": wn.beta,
        "beta_star": star, "inputs": record}
    return bundle


def _run_basis(config: RunConfig) -> ResultBundle:
    evs = _line_evs(config)
    if not evs:
        raise ConfigError("no line eigenvalues: nothing to build a basis from")
    space = flux.singular_space(evs, rho=config.sweep["rho"])
    fm = flux.flux_matrix(space)
    basis = flux.mandelstam_basis(fm)
    bundle = ResultBundle(config=config)
    bundle.documents["basis"] = {
        "dim": space.dim,
        "n_outgoing": basis.n,
        "residual": basis.residual,
        "h_eigenvalues": list(basis.h_eigenvalues),
        "members": [{"mode": m.mode, "eta": m.eta,
                     "chain_level": m.chain_level, "conjugated": m.conjugated}
                    for m in space.members],
        "flux_matrix": [[[fm.Q[i, j].real, fm.Q[i, j].imag]
                         for j in range(space.dim)] for i in range(space.dim)],
    }
    return bundle


def _run_trajectory(config: RunConfig) -> ResultBundle:
    evs = _line_evs(config)
    le = _first_simple(evs)
    points = absorption.trajectory(le.pencil.cap, le, config.sweep["delta_grid"])
    rows = [(p.delta, p.lam.real, p.lam.imag, p.overlap) for p in points]
    sel = absorption.select_outgoing_by_absorption(evs)
    bundle = ResultBundle(config=config)
    bundle.tables["trajectory"] = (
        ["delta", "re_lambda", "im_lambda", "overlap"], rows)
    bundle.documents["selection"] = {
        "choices": {f"m={m},eta={eta:.12g}": v
                    for (m, eta), v in sorted(sel.choices.items())},
        "mode": le.mode, "eta": le.eta}
    return bundle


def _run_blowup(config: RunConfig) -> ResultBundle:
    le = _first_simple(_line_evs(config))
    s = flux.build_singularity(le, rho=config.sweep["rho"])
    n_list = config.sweep["n_list"]
    norms = [flux.singular_sequence_norm(s, n) for n in n_list]
    slope, r2 = flux.blowup_rate(s, n_list)
    bundle = ResultBundle(config=config)
    bundle.tables["blowup"] = (["n", "grad_norm_sq"], list(zip(n_list, norms)))
    bundle.documents["blowup"] = {"mode": le.mode, "eta": le.eta,
                                  "slope": slope, "r_squared": r2}
    return bundle


_RUNNERS = {
    "spectrum": _run_spectrum,
    "interval": _run_interval,
    "aleph": _run_aleph,
    "weights": _run_weights,
    "basis": _run_basis,
    "trajectory": _run_trajectory,
    "blowup": _run_blowup,
}


def run_command(config: RunConfig, threads: int = 1) -> ResultBundle:
    """Execute one subcommand, its modes in config order.  ``threads`` is
    ignored: ``perfbench`` still passes it, and it goes when perfbench is
    refreshed."""
    return _RUNNERS[config.subcommand](config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conetip",
        description="Singularity machinery of sign-changing transmission "
                    "problems at a conical tip")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="restrict output formats")
    args = parser.parse_args(argv)

    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        config = parse_config(text)
        if config.subcommand != args.subcommand:
            raise ConfigError(
                f"config subcommand {config.subcommand!r} does not match "
                f"CLI subcommand {args.subcommand!r}")
        bundle = run_command(config)
        out_dir = args.out or config.output["directory"]
        formats = [args.format] if args.format else config.output["formats"]
        paths = write_results(bundle, out_dir, formats)
    except ConetipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
