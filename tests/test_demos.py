"""Every script in ``demos/`` runs to the end against the installed API."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# a line each demo prints only when its pipeline reached the end
LAST_FINDING = {
    "01_symbol_spectrum": "spectrum equals its conjugate, value for value: True",
    "02_critical_interval": "line eigenvalue(s)",
    "03_blackhole_flux": "trapped energy, equal outgoing and incoming amplitudes, "
                         "below 1e-12 in size: True",
    "04_limiting_absorption": "agreement with the flux selection: True",
    "05_energy_blowup": "linear growth: slope",
}


def test_every_demo_is_covered():
    assert [p.stem for p in DEMOS] == sorted(LAST_FINDING)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert LAST_FINDING[path.stem] in capsys.readouterr().out
