"""Shared test helpers."""
import json
from pathlib import Path

import numpy as np
import pytest


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_finite_outputs(out_dir) -> None:
    """Every file a run left in ``out_dir`` parses and holds only finite values."""
    out_dir = Path(out_dir)
    for path in out_dir.iterdir() if out_dir.is_dir() else ():
        if path.suffix == ".json":
            json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        else:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(data)), path.name


@pytest.fixture
def assert_finite_outputs():
    return _assert_finite_outputs
