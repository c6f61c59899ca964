"""Compare the CLI outputs of two checkouts of conetip.

    python tools/compare_outputs.py OLD_CHECKOUT NEW_CHECKOUT [--out DIR]

Each config of ``CONFIGS`` is run through ``python -m conetip.cli`` once per
checkout, with that checkout's ``src`` on ``PYTHONPATH``.  For every output
file the script prints "identical" when the bytes agree, and otherwise the
largest relative change ``|a - b| / max(|a|, |b|)`` of each numeric column
(a CSV column, or a JSON key path with list indices dropped) and the number
of changed entries of every other column.  The outputs are kept under
``--out`` when it is given, else in a temporary directory.  The exit code is
0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

QUARTER = {"kind": "internal", "alpha": math.pi / 4}
DIRICHLET_RIM = {"kind": "boundary", "alpha": math.pi / 4, "alpha_outer": math.pi / 2,
                 "outer_bc": "dirichlet"}
NEUMANN_RIM = {"kind": "boundary", "alpha": math.pi / 4, "alpha_outer": 3 * math.pi / 4,
               "outer_bc": "neumann"}
# Neumann rims whose dispersion curves cross -1, and whose curves still
# move at the mesh cutoff
CROSSING_RIM = {"kind": "boundary", "alpha": 0.5, "alpha_outer": 0.7, "outer_bc": "neumann"}
NARROW_RIM = {"kind": "boundary", "alpha": 0.5, "alpha_outer": 0.55, "outer_bc": "neumann"}
HALF = {"kappa": -0.5}
N64 = {"elements": 64, "order": 2}

CONFIGS = {
    "spectrum_kappa1_N256": {"subcommand": "spectrum", "geometry": QUARTER,
                             "material": {"kappa": 1.0},
                             "mesh": {"elements": 256, "order": 2}},
    "spectrum_damped": {"subcommand": "spectrum", "geometry": QUARTER,
                        "material": {"kappa": -0.5, "delta": 1e-3}, "mesh": N64},
    "spectrum_neumann": {"subcommand": "spectrum", "geometry": NEUMANN_RIM,
                         "material": HALF, "mesh": N64},
    "weights_internal": {"subcommand": "weights", "geometry": QUARTER,
                         "material": HALF, "mesh": N64},
    "weights_dirichlet": {"subcommand": "weights", "geometry": DIRICHLET_RIM,
                          "material": HALF, "mesh": N64},
    # definite pencils: each mode's weight reads its certified lowest pair
    "weights_kappa1_N256": {"subcommand": "weights", "geometry": QUARTER,
                            "material": {"kappa": 1.0},
                            "mesh": {"elements": 256, "order": 2}},
    "weights_kappa1_dirichlet": {"subcommand": "weights", "geometry": DIRICHLET_RIM,
                                 "material": {"kappa": 1.0}, "mesh": N64},
    "weights_positive_neumann": {"subcommand": "weights", "geometry": NEUMANN_RIM,
                                 "material": {"kappa": 0.3}, "mesh": N64},
    # two weight-one eigenvalues one ulp apart in mode 4 (deflated poles)
    "spectrum_close_poles": {"subcommand": "spectrum", "geometry": QUARTER,
                             "material": {"kappa": 0.3}, "modes": [4],
                             "mesh": {"elements": 32, "order": 2}},
    "basis": {"subcommand": "basis", "geometry": QUARTER, "material": HALF,
              "modes": [0, 1, 2], "mesh": N64},
    "trajectory": {"subcommand": "trajectory", "geometry": QUARTER, "material": HALF,
                   "modes": [0, 1, 2], "mesh": N64},
    "blowup": {"subcommand": "blowup", "geometry": QUARTER, "material": HALF,
               "modes": [0, 1, 2], "mesh": N64},
    "interval_quarter": {"subcommand": "interval", "geometry": QUARTER,
                         "material": HALF, "mesh": N64},
    "interval_crossing_rim": {"subcommand": "interval", "geometry": CROSSING_RIM,
                              "material": HALF, "modes": [0, 1, 2], "mesh": N64,
                              "sweep": {"kappa_range": [-0.97, -0.05]}},
    "interval_narrow_rim": {"subcommand": "interval", "geometry": NARROW_RIM,
                            "material": {"kappa": -2.0}, "modes": [0, 1], "mesh": N64,
                            "sweep": {"kappa_range": [-20.0, -1.05]}},
}


def run(checkout: pathlib.Path, name: str, config: dict, out: pathlib.Path):
    """Run one config with ``checkout/src`` first on the path; the output
    directory, or None with the error printed when the run fails."""
    out.mkdir(parents=True, exist_ok=True)
    cfg = out / "config.json"
    cfg.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "conetip.cli", config["subcommand"],
                           "--config", str(cfg), "--out", str(out / "result")],
                          capture_output=True, text=True, env=env)
    if done.returncode != 0:
        print(f"{name}: failed in {checkout}: {done.stderr.strip()}")
        return None
    return out / "result"


def cells(path: pathlib.Path) -> dict:
    """``{(column, position): value}`` of a CSV table (numbers as floats) or
    of the leaves of a JSON document (key path, list indices as position)."""
    if path.suffix == ".csv":
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        return {(col, i): _number(v) for i, row in enumerate(rows)
                for col, v in zip(header, row)}
    out = {}

    def walk(doc, column, position):
        if isinstance(doc, dict):
            for key, value in doc.items():
                walk(value, f"{column}.{key}" if column else key, position)
        elif isinstance(doc, list):
            for i, value in enumerate(doc):
                walk(value, column + "[]", position + (i,))
        else:
            out[(column, position)] = doc

    walk(json.loads(path.read_text()), "", ())
    return out


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(old: pathlib.Path, new: pathlib.Path) -> list:
    """Lines describing how the file ``new`` differs from ``old``; none when
    the two are byte-identical."""
    if old.read_bytes() == new.read_bytes():
        return []
    a, b = cells(old), cells(new)
    lines = [f"entries only in {side}: {', '.join(sorted({column for column, _ in extra}))}"
             for side, extra in (("old", a.keys() - b.keys()), ("new", b.keys() - a.keys()))
             if extra]
    numeric, changed = {}, {}
    for key in sorted(a.keys() & b.keys(), key=str):
        column, x, y = key[0], a[key], b[key]
        if _is_number(x) and _is_number(y):
            numeric[column] = max(numeric.get(column, 0.0), relative_change(x, y))
        elif x != y:
            changed[column] = changed.get(column, 0) + 1
    lines += [f"{column}: max relative change {change:.3g}"
              for column, change in numeric.items() if change > 0.0]
    lines += [f"{column}: {count} entries changed" for column, count in changed.items()]
    return lines or ["same values, different bytes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path, help="checkout of the reference tree")
    parser.add_argument("new", type=pathlib.Path, help="checkout of the changed tree")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="keep the outputs in this directory")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = args.out or pathlib.Path(tmp)
        all_identical = True
        for name, config in CONFIGS.items():
            old, new = (run(tree.resolve(), name, config, root / side / name)
                        for tree, side in ((args.old, "old"), (args.new, "new")))
            if old is None or new is None:
                all_identical = False
                continue
            for fname in sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()}):
                if not ((old / fname).exists() and (new / fname).exists()):
                    print(f"{name}/{fname}: only in {'old' if (old / fname).exists() else 'new'}")
                    all_identical = False
                    continue
                lines = compare(old / fname, new / fname)
                all_identical &= not lines
                print(f"{name}/{fname}: {'changed' if lines else 'identical'}")
                for line in lines:
                    print(f"    {line}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
