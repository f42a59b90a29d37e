"""Golden gate: the seven CLI commands reproduce their checked-in
artifacts byte for byte, into a fresh directory and over longer files
(``tests/golden/regenerate.py`` says how the files were made)."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def _artifacts(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.parent != root
    }


def _regenerate(out: Path) -> dict[str, bytes]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return _artifacts(out)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return _regenerate(tmp_path_factory.mktemp("golden"))


def test_same_artifact_set(fresh):
    assert sorted(fresh) == sorted(_artifacts(GOLDEN))


@pytest.mark.parametrize("name", sorted(_artifacts(GOLDEN)))
def test_artifact_byte_identical(fresh, name):
    assert fresh.get(name) == _artifacts(GOLDEN)[name], f"{name} differs from its golden copy"


def test_rewrite_over_longer_files_byte_identical(tmp_path):
    # artifacts are rewritten in place and must leave no old tail
    golden = _artifacts(GOLDEN)
    for name, data in golden.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(b"junk," * (len(data) // 5 + 100))
    rewritten = _regenerate(tmp_path)
    assert sorted(rewritten) == sorted(golden)
    assert [name for name in golden if rewritten[name] != golden[name]] == []


def test_kappa2_convergence_reaches_the_disk_limit():
    # at kappa = 2 the limit disk has radius 1, so Lj_lambda2 is j_{1/2,1}^2
    # = pi^2, below the sphere term, and eps^2 lambda2 approaches it
    with open(GOLDEN / "convergence-kappa2" / "convergence.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["Lj_lambda2"]) for r in rows] == [math.pi**2] * len(rows)
    devs = [abs(float(r["eps2_lambda2"]) - math.pi**2) for r in rows]
    assert all(b < a for a, b in zip(devs[:-1], devs[1:])) and devs[-1] < 0.03
