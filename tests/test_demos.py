import glob
import os
import runpy

import pytest

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                      "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
