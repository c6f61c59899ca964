"""conetip benchmark: one closed-loop client, one task at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The seed draws the workload's inputs.  The
fixed task list is run in passes until ``--seconds`` would be exceeded (at
least one pass).  Every task passes a correctness gate or counts as failed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the same
way, then repeats the passes with every layer's public functions wrapped in
spans and prints the per-layer metrics.  Human-readable lines (provenance,
every metric by name and unit, accuracy details, failures) come first; the
last line of standard output is the JSON result.  A result file, and the
spans of a traced run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import conetip
conetip.parse_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ provenance

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas_threads(mod) -> int | None:
    libdir = pathlib.Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def provenance(args, ct, nproc):
    import numpy as np
    import scipy

    blas = {}
    for mod in (np, scipy):
        cfg = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = {"vendor": cfg.get("name"), "version": cfg.get("version"),
                              "threads": _blas_threads(mod)}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "host": platform.node(), "machine": platform.machine(),
        "platform": platform.platform(), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_env": {k: os.environ.get(k, "unset") for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "conetip": ct.__version__, "git_commit": _git_commit(),
        "client": "closed loop, 1 client, 1 task in flight",
    }


# ------------------------------------------------------------------ measuring

def measure_setup(config_text: str):
    """Median over fresh interpreters of: import conetip + parse one config."""
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC), config_text],
                              cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=True)
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(values), values


class Runner:
    """Runs tasks closed-loop, counting attempts and gate failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, task, tracer=None, task_id=None):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.task(task_id, f"task.{task.name}"):
                    ctx = task.run()
            else:
                ctx = task.run()
            dt = time.perf_counter() - t0
            values = task.check(ctx)
        except Exception as exc:  # a failing task is counted, the run goes on
            dt = time.perf_counter() - t0
            self.failed += 1
            self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return dt, None
        return dt, values


def measure(runner, tasks, seconds, tracer=None):
    """Passes over the fixed task list until another pass would end after
    ``seconds``; at least one pass."""
    passes, samples = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for task in tasks:
            dt, values = runner.run(task, tracer, len(samples))
            samples.append((task.name, dt, values))
        passes.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(passes) > seconds:
            return passes, samples


def tail(times):
    """Highest percentile with at least ten samples beyond it: the
    (n-10)-th smallest of n samples.  Below 100 samples that percentile is
    under p90 (at or under the median for n <= 21), which is no tail, so
    the maximum is reported instead; the percentile and n go with it."""
    xs = sorted(times)
    n = len(xs)
    if n < 100:
        return xs[-1], 100.0, n
    k = n - 10
    return xs[k - 1], 100.0 * k / n, n


# ------------------------------------------------------- traced side numbers

def cost_fits(ct):
    """Cost exponents of assembly and solve against n at N = 64/128/256
    (median of repeats; alpha = pi/4, kappa = -0.5, mode 0)."""
    import numpy as np
    from layers import fit_exponent

    g = ct.CapGeometry("internal", np.pi / 4)
    mat = ct.MaterialSpec.from_contrast(-0.5)
    ns, t_asm, t_solve = [], [], []
    for N, reps in ((64, 7), (128, 5), (256, 3)):
        cap = ct.build_cap(g, mat, 0, N, 2)
        a, s = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            P = ct.assemble_pencil(cap)
            a.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            ct.solve_pencil(P)
            s.append(time.perf_counter() - t0)
        ns.append(P.n)
        t_asm.append(statistics.median(a))
        t_solve.append(statistics.median(s))
    return {"assemble_exp": fit_exponent(ns, t_asm), "solve_exp": fit_exponent(ns, t_solve),
            "fit_n": ns, "fit_assemble_s": t_asm, "fit_solve_s": t_solve}


def fem_endpoint(ct, aleph_ref):
    """Mode-0 bisection of the endpoint to 1e-10 at N=16 and N=32 on
    alpha = pi/4: FEM error at N=32 and the observed order."""
    import numpy as np

    g = ct.CapGeometry("internal", np.pi / 4)
    ref = aleph_ref(np.pi / 4)
    errs = []
    for N in (16, 32):
        crit = lambda k: ct.has_blackhole(g, k, modes=(0,), elements=N,
                                          stop_at_first=True)[0]
        lo, hi = -0.25, -0.19
        if not (crit(lo) and not crit(hi)):
            raise RuntimeError(f"N={N}: endpoint not bracketed by [{lo}, {hi}]")
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if crit(mid) else (lo, mid)
        errs.append(abs(0.5 * (lo + hi) + ref))
    return {"fem_relerr": errs[1] / ref, "endpoint_order": float(np.log2(errs[0] / errs[1]))}


# ---------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conetip" / "__init__.py").is_file():
        return fail(f"no conetip sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import conetip as ct
    if pathlib.Path(ct.__file__).resolve().parent != (SRC / "conetip").resolve():
        return fail(f"imported conetip from {ct.__file__}, not from {SRC}")

    from workloads import WORKLOADS, aleph_reference
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    prov = provenance(args, ct, nproc)
    wl = WORKLOADS[args.workload](ct, args.seed, out_dir / "tasks", nproc)
    setup_s, setup_values = measure_setup(wl.first_config)

    runner = Runner()
    for task in wl.warmup:
        runner.run(task)
    passes, samples = measure(runner, wl.tasks, args.seconds)
    times = [dt for (_, dt, _) in samples]
    tail_s, tail_pct, n = tail(times)
    acc = [v[wl.accuracy_key] for (name, _, v) in samples
           if name == wl.accuracy_task and v]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(passes), "s"),
        "task_p50_s": (statistics.median(times), "s"),
        "task_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "accuracy_relerr": (statistics.median(acc) if acc else 1.0, "1"),
    }
    report = {"provenance": prov, "end_to_end": e2e,
              "tail": {"percentile": tail_pct, "samples": n},
              "accuracy_name": wl.accuracy_key, "setup_samples": setup_values,
              "passes_s": passes,
              "tasks": [{"name": nm, "s": dt, "check": v} for (nm, dt, v) in samples]}

    metrics = e2e
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        tracer.install([ct] + [getattr(ct, m) for m in
                               ("cap", "spectrum", "flux", "interval",
                                "absorption", "io", "cli")], layers.targets(ct))
        try:
            t_passes, t_samples = measure(runner, wl.tasks, args.seconds, tracer)
        finally:
            tracer.uninstall()
        details = {}
        for (_, _, v) in t_samples:
            for k, x in (v or {}).items():
                if k in ("oracle_max_dev", "weight_cap_gap"):
                    details[k] = max(details.get(k, x), x)
        extras = cost_fits(ct)
        extras["trace_overhead_s"] = statistics.median(t_passes) - statistics.median(passes)
        if args.workload == "interval_scan":
            extras.update(fem_endpoint(ct, aleph_reference))
            dt, _ = runner.run(wl.serial_anchor)
            parallel = [d for (nm, d, v) in samples if nm == wl.tasks[0].name]
            extras["pool_speedup"] = dt / statistics.median(parallel)
        metrics = layers.layer_metrics(tracer, sum(t_passes), details, extras)
        report["per_layer"] = metrics
        report["extras"] = extras
        report["traced_passes_s"] = t_passes
        spans_path = out_dir / f"spans-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            [[s.sid, s.name, s.start, s.end, s.parent, s.task] for s in tracer.spans]))

    fail_frac = runner.failed / runner.attempted
    report.update(fail_frac=fail_frac, failures=runner.failures)

    print(f"# conetip benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for k, v in prov.items():
        print(f"#   {k}: {v}")
    print(f"# tasks: {runner.attempted} attempted, {runner.failed} failed, "
          f"{len(passes)} timed passes of {len(wl.tasks)} tasks")
    for k, (v, unit) in e2e.items():
        print(f"{k:<16} {v:.6g} {unit}")
    print(f"{'fail_frac':<16} {fail_frac:.6g} 1")
    print(f"{wl.accuracy_key:<16} {e2e['accuracy_relerr'][0]:.6g} 1"
          f"   (accuracy_relerr, anchor task {wl.accuracy_task})")
    print(f"# task_tail_s is the p{tail_pct:.1f} of {n} task samples")
    seeded = [v[wl.accuracy_key] for (nm, _, v) in samples
              if v and wl.accuracy_key in v and nm != wl.accuracy_task]
    if seeded:
        print(f"# {wl.accuracy_key} over seeded tasks: median {statistics.median(seeded):.4g}, "
              f"max {max(seeded):.4g} ({len(seeded)} tasks)")
    if args.trace:
        for k, (v, unit) in metrics.items():
            print(f"{k:<36} {v:.6g} {unit}")
    for f in runner.failures:
        print(f"# FAILED {f}")

    result_path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
