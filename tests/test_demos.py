"""Each narrative script in ``demos/`` runs to its end."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["bloch_ball", "maximal_coherence", "single_shot_purity", "resource_hierarchy"])
def test_demo_runs_to_the_end(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out
