"""Golden gate: the seven CLI commands reproduce their checked-in
artifacts byte for byte (``tests/golden/regenerate.py`` says how the files
were made)."""

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


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return _artifacts(out)


def test_same_artifact_set(fresh):
    assert sorted(fresh) == sorted(_artifacts(GOLDEN))


@pytest.mark.parametrize("name", sorted(_artifacts(GOLDEN)))
def test_artifact_byte_identical(fresh, name):
    assert fresh.get(name) == _artifacts(GOLDEN)[name], f"{name} differs from its golden copy"
