"""The benchmark harness in ``perfbench/`` still runs against the package.

The harness is loaded from its own directory, unedited.  Every function it
traces must resolve under the name its tracer binds, and the small warm-up
tasks of two workloads must pass their correctness gates, untraced and with
every traced function wrapped (so the observation hooks read the public
fields they rely on).  Every config the harness sends must parse.
"""

import json
import pathlib
import sys

import pytest

import conetip as ct

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACED_MODULES = ("cap", "spectrum", "flux", "interval", "absorption", "io", "cli")


@pytest.fixture(scope="module")
def harness():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        import run
        import spans
        import workloads
        yield layers, run, spans, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_function_resolves(harness):
    layers = harness[0]
    targets = layers.targets(ct)
    assert len(targets) >= 25
    for fn, (name, _) in targets.items():
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn, name
        assert name.split(".")[0] in layers.LAYERS, name


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("workload", ["absorption_flux", "interval_scan"])
def test_warmup_tasks_pass_their_gates(harness, workload, traced, tmp_path):
    layers, run, spans, workloads = harness
    w = workloads.WORKLOADS[workload](ct, 1, tmp_path, 1)
    runner = run.Runner()
    tracer = spans.Tracer() if traced else None
    if traced:
        tracer.install([ct] + [getattr(ct, m) for m in TRACED_MODULES],
                       layers.targets(ct))
    try:
        results = [runner.run(task, tracer, i) for i, task in enumerate(w.warmup)]
    finally:
        if traced:
            tracer.uninstall()
    assert w.warmup and runner.failed == 0, runner.failures
    assert all(values is not None for _, values in results)
    if traced:
        assert tracer.spans
        observed = {"absorption_flux": ("pairs_used", "slope.margin", "jordan.margin"),
                    "interval_scan": ("probe.hit", "write.bytes")}[workload]
        assert all(tracer.obs[key] for key in observed)


def test_every_benchmark_config_parses(harness, tmp_path):
    # a change to the config contract fails here, not only in a benchmark run
    workloads = harness[3]
    for name, build in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            w = build(ct, seed, tmp_path, 1)
            texts = [t.config_text for t in w.tasks + w.warmup if t.config_text]
            for text in texts + [w.first_config]:
                assert ct.io.parse_config(text).subcommand, (name, seed, text)


def test_ignored_sweep_keys_change_no_output(harness, tmp_path):
    # sweep.grid and sweep.bisect_tol parse and are ignored: the warm-up's
    # values write the same interval.json as the timed tasks' values, which
    # are the defaults, so those configs hash as they did when the scan
    # read them
    w = harness[3].interval_scan(ct, 1, tmp_path, 1)
    warmup = json.loads(w.warmup[0].config_text)
    variants = {"warmup": warmup["sweep"],
                "tasks": json.loads(w.tasks[0].config_text)["sweep"], "default": {}}
    hashes, files = {}, {}
    for name, sweep in variants.items():
        config = ct.io.parse_config(json.dumps({**warmup, "sweep": sweep}))
        ct.io.write_results(ct.cli.run_command(config), tmp_path / name, ["json"])
        hashes[name] = config.config_hash
        files[name] = (tmp_path / name / "interval.json").read_bytes()
    assert warmup["sweep"] != variants["tasks"]
    assert files["warmup"] == files["tasks"] == files["default"]
    assert hashes["tasks"] == hashes["default"] != hashes["warmup"]
