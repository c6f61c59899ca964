"""Which library functions are traced, what is observed on their return
values, and how spans and observations become per-layer metrics.

Layers are the package modules: ``cap``, ``spectrum``, ``flux``,
``interval``, ``absorption``, ``cli`` and ``io``.  Tolerance margins are in
decades from the threshold, read from public return values; a margin of a
decision that was never taken, like every metric of a layer a workload
bypasses, reads 0.
"""

from __future__ import annotations

import math

import numpy as np

from spans import SpanIndex

MARGIN_CAP_DEC = 12.0
MANDELSTAM_GATE = 1e-10

LAYERS = ("cap", "spectrum", "flux", "interval", "absorption", "cli", "io", "bench")


def _decades(ratio):
    """Signed decades of ``ratio`` from 1, clamped at MARGIN_CAP_DEC."""
    if ratio <= 0:
        return MARGIN_CAP_DEC
    return max(-MARGIN_CAP_DEC, min(MARGIN_CAP_DEC, math.log10(ratio)))


def targets(ct):
    """Map each traced function to ``(span name, observe hook)``."""
    sp = ct.spectrum
    jordan_indicator = sp.jordan_indicator

    def obs_assemble(tr, P, args, kwargs):
        nbytes = P.A.nbytes + P.B.nbytes + P.stiffness_one.nbytes + P.mass_one.nbytes
        tr.record("assemble.bytes", nbytes)
        tr.record("assemble.nnz_frac", np.count_nonzero(P.A) / P.A.size)

    def obs_solve(tr, spec, args, kwargs):
        tr.record("solve", (spec.pencil.n, spec.n_rejected,
                            max((p.residual for p in spec.pairs), default=0.0)))

    def obs_line(tr, evs, args, kwargs):
        spec = args[0]
        tol = kwargs.get("tol", args[1] if len(args) > 1 else sp.LINE_TOL)
        margin = None
        for p in spec.pairs:
            if p.Lambda.real < -0.25:
                r = abs(p.Lambda.imag) / (tol * max(1.0, abs(p.Lambda.real)))
                d = abs(_decades(r))
                margin = d if margin is None else min(margin, d)
        tr.record("line", (len(evs), margin))
        tr.record("pairs_used", sum(le.multiplicity for le in evs))

    def obs_jordan(tr, le, args, kwargs):
        threshold = kwargs.get("threshold", sp.JORDAN_THRESHOLD)
        tr.record("jordan.margin", abs(_decades(jordan_indicator(le) / threshold)))

    def obs_flux_matrix(tr, fm, args, kwargs):
        tr.record("flux.dim", fm.dim)

    def obs_basis(tr, basis, args, kwargs):
        tr.record("flux.residual", basis.residual)

    def obs_probe(tr, result, args, kwargs):
        tr.record("probe.hit", bool(result[0]))

    def obs_trajectory(tr, points, args, kwargs):
        tr.record("overlap", min(p.overlap for p in points))

    def obs_select(tr, sel, args, kwargs):
        amb = ct.absorption.SLOPE_AMBIGUOUS
        for dlp in sel.slopes.values():
            tr.record("slope.margin",
                      _decades(abs(dlp.real) / (amb * max(abs(dlp), 1.0))))

    def obs_write(tr, paths, args, kwargs):
        tr.record("write.bytes", sum(p.stat().st_size for p in paths))

    cap, fx, it, ab = ct.cap, ct.flux, ct.interval, ct.absorption
    return {
        cap.build_cap: ("cap.build", None),
        cap.assemble_pencil: ("cap.assemble", obs_assemble),
        cap.assemble_dissipative_pencil: ("cap.assemble_dissipative", None),
        cap.pencil_for: ("cap.pencil_for", None),
        sp.solve_pencil: ("spectrum.solve", obs_solve),
        sp.line_eigenvalues: ("spectrum.line", obs_line),
        sp.jordan_chains: ("spectrum.jordan", obs_jordan),
        sp.spectral_weights: ("spectrum.weights", None),
        sp.weight_star: ("spectrum.weight_star", None),
        fx.singular_space: ("flux.space", None),
        fx.flux_pairing: ("flux.pairing", None),
        fx.flux_matrix: ("flux.matrix", obs_flux_matrix),
        fx.mandelstam_basis: ("flux.basis", obs_basis),
        fx.flux_quadrature_oracle: ("flux.oracle", None),
        it.has_blackhole: ("interval.probe", obs_probe),
        it.scan_interval: ("interval.scan", None),
        it.aleph: ("interval.aleph", None),
        ab.trajectory: ("absorption.trajectory", obs_trajectory),
        ab.perturbation_slope: ("absorption.slope", None),
        ab.select_outgoing_by_absorption: ("absorption.select", obs_select),
        ab.consistency_report: ("absorption.consistency", None),
        ab.finite_difference_slope: ("absorption.fd_slope", None),
        ct.io.parse_config: ("io.parse", None),
        ct.io.write_results: ("io.write", obs_write),
        ct.cli.run_command: ("cli.run", None),
    }


def layer_metrics(tracer, wall, details, extras):
    """Per-layer metrics from one traced measurement.

    ``wall`` is the traced time of the task list (sum over the traced
    passes); ``details`` the merged check results of the traced tasks;
    ``extras`` the untraced side measurements (cost fits, FEM endpoint,
    pool speed-up, trace overhead).
    """
    ix = SpanIndex(tracer.spans)
    obs = tracer.obs
    count = lambda name: len(ix.named(name))
    solves = ix.named("spectrum.solve")
    solve_obs = obs["solve"]
    n_total = sum(n for (n, _, _) in solve_obs)
    in_traj = {s.sid for s in solves if ix.has_ancestor(s, "absorption.trajectory")}
    in_probe = [s for s in solves if ix.has_ancestor(s, "interval.probe")]
    used = sum(obs["pairs_used"]) + len(in_traj)
    probes = count("interval.probe")
    steps = len(in_traj)
    line = obs["line"]
    line_margins = [m for (_, m) in line if m is not None]
    flux_busy = ix.busy("flux.space", "flux.matrix", "flux.basis", "flux.oracle")
    assemble_busy = ix.busy("cap.assemble", "cap.assemble_dissipative")
    scan_busy = ix.busy("interval.scan")
    minimum = lambda xs: min(xs) if xs else 0.0
    share = lambda x: x / wall if wall > 0 else 0.0

    m = {
        "cap.build.calls": (count("cap.build"), "count"),
        "cap.build.busy_s": (ix.busy("cap.build"), "s"),
        "cap.assemble.calls": (count("cap.assemble"), "count"),
        "cap.assemble.busy_s": (assemble_busy, "s"),
        "cap.assemble.dense_bytes": (max(obs["assemble.bytes"], default=0), "B"),
        "cap.assemble.nnz_frac": (float(np.mean(obs["assemble.nnz_frac"]))
                                  if obs["assemble.nnz_frac"] else 0.0, "1"),
        "cap.assemble.cost_exp": (extras["assemble_exp"][0], "1"),
        "cap.assemble.cost_exp_r2": (extras["assemble_exp"][1], "1"),
        "spectrum.solve.calls": (len(solves), "count"),
        "spectrum.solve.busy_s": (ix.busy("spectrum.solve"), "s"),
        "spectrum.solve.share": (share(ix.busy("spectrum.solve")), "1"),
        "spectrum.solve.n_mean": (n_total / len(solve_obs) if solve_obs else 0.0, "1"),
        "spectrum.solve.cost_exp": (extras["solve_exp"][0], "1"),
        "spectrum.solve.cost_exp_r2": (extras["solve_exp"][1], "1"),
        "spectrum.solve.rejected": (sum(r for (_, r, _) in solve_obs), "count"),
        "spectrum.solve.max_residual": (max((x for (_, _, x) in solve_obs),
                                            default=0.0), "1"),
        "spectrum.solve.pairs_used_frac": (used / n_total if n_total else 0.0, "1"),
        "spectrum.line.calls": (count("spectrum.line"), "count"),
        "spectrum.line.found": (sum(k for (k, _) in line), "count"),
        "spectrum.line.min_margin_dec": (minimum(line_margins), "dec"),
        "spectrum.jordan.calls": (count("spectrum.jordan"), "count"),
        "spectrum.jordan.busy_s": (ix.busy("spectrum.jordan"), "s"),
        "spectrum.jordan.min_margin_dec": (minimum(obs["jordan.margin"]), "dec"),
        "spectrum.weight_cap_gap": (details.get("weight_cap_gap", 0.0), "1"),
        "flux.pairings": (count("flux.pairing"), "count"),
        "flux.space_dim": (max(obs["flux.dim"], default=0), "count"),
        "flux.matrix.busy_s": (ix.busy("flux.matrix"), "s"),
        "flux.basis.busy_s": (ix.busy("flux.basis"), "s"),
        "flux.basis.residual": (max(obs["flux.residual"], default=0.0), "1"),
        "flux.basis.margin_dec": (
            minimum([_decades(MANDELSTAM_GATE / max(r, 1e-300))
                     for r in obs["flux.residual"]]), "dec"),
        "flux.oracle.busy_s": (ix.busy("flux.oracle"), "s"),
        "flux.oracle.max_dev": (details.get("oracle_max_dev", 0.0), "1"),
        "flux.share": (share(flux_busy), "1"),
        "interval.probe.calls": (probes, "count"),
        "interval.probe.busy_s": (ix.busy("interval.probe"), "s"),
        "interval.probe.share": (share(ix.busy("interval.probe")), "1"),
        "interval.probe.solves_per_probe": (len(in_probe) / probes if probes else 0.0, "1"),
        "interval.probe.hit_frac": (float(np.mean(obs["probe.hit"]))
                                    if obs["probe.hit"] else 0.0, "1"),
        "interval.fem_endpoint_relerr": (extras.get("fem_relerr", 0.0), "1"),
        "interval.endpoint_order": (extras.get("endpoint_order", 0.0), "1"),
        "absorption.step.calls": (steps, "count"),
        "absorption.step_s": (ix.busy("absorption.trajectory") / steps if steps else 0.0, "s"),
        "absorption.trajectory.busy_s": (ix.busy("absorption.trajectory"), "s"),
        "absorption.trajectory.share": (share(ix.busy("absorption.trajectory")), "1"),
        "absorption.min_overlap": (minimum(obs["overlap"]), "1"),
        "absorption.slope.busy_s": (ix.busy("absorption.slope"), "s"),
        "absorption.min_slope_margin_dec": (minimum(obs["slope.margin"]), "dec"),
        "cli.run.busy_s": (ix.busy("cli.run"), "s"),
        "cli.pool_concurrency": (ix.busy("interval.probe") / scan_busy
                                 if scan_busy else 0.0, "1"),
        "cli.pool_speedup": (extras.get("pool_speedup", 0.0), "1"),
        "io.parse.busy_s": (ix.busy("io.parse"), "s"),
        "io.write.busy_s": (ix.busy("io.write"), "s"),
        "io.write.bytes": (sum(obs["write.bytes"]), "B"),
        "bench.trace_overhead_s": (extras["trace_overhead_s"], "s"),
        "bench.spans": (len(ix.spans), "count"),
    }
    for layer, value in self_shares(ix).items():
        m[f"{layer}.self_share"] = (value, "1")
    return m


def self_shares(ix):
    """Share of the summed self time of all spans that each layer holds;
    task root spans count as ``bench`` (harness time around the calls)."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in ix.spans:
        layer = s.name.split(".")[0] if s.parent is not None else "bench"
        totals[layer if layer in totals else "bench"] += max(ix.self_time(s), 0.0)
    grand = sum(totals.values())
    return {k: (v / grand if grand else 0.0) for k, v in totals.items()}


def fit_exponent(ns, times):
    """Least-squares slope of log(time) against log(n), with R^2."""
    x, y = np.log(np.asarray(ns, float)), np.log(np.asarray(times, float))
    slope, icept = np.polyfit(x, y, 1)
    resid = y - (slope * x + icept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
