"""Each demo script prints exactly the bytes pinned in ``golden/demos``.

The demos run the public API end to end on seeded synthetic data, so a
change that moves any output they print shows here. After a deliberate
change, regenerate the files with

    for f in demos/*.py; do PYTHONPATH=src python3 "$f" > "tests/golden/demos/$(basename "$f" .py).txt"; done

and record why the bytes changed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    golden = sorted(p.stem for p in (ROOT / "tests" / "golden" / "demos").glob("*.txt"))
    assert golden == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_the_golden_bytes(demo):
    src = str(ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (ROOT / "tests" / "golden" / "demos" / f"{demo.stem}.txt").read_bytes()
