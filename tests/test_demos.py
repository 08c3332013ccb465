"""Every script under ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import essayscore

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_cleanly(demo, tmp_path):
    # the demos write under tempfile.mkdtemp(), so point TMPDIR at the
    # test's own directory
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmp_path),
               PYTHONPATH=str(Path(essayscore.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
