import os
import subprocess
import sys

import numpy as np
import pytest

import plap
import plap.energy as en


def _dense_hessian(spec, field):
    """The energy Hessian D^T (meas B) D as a dense nodes x nodes array on
    values.ravel(): each cell's local block K[a, b, c] added at
    (nodes[a, c], nodes[b, c]) in the order K is raveled in, the order the
    solver's band and ``hessian_diagonal`` sum it in."""
    nodes = field.grid.cell_structure.nodes
    rows, cols = np.broadcast_arrays(nodes[:, None], nodes[None, :])
    H = np.zeros((field.values.size,) * 2)
    np.add.at(H, (rows.ravel(), cols.ravel()),
              en._Cells(spec, field).local().ravel())
    return H


@pytest.fixture(scope="session")
def dense_hessian():
    return _dense_hessian


def _fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that imports plap from here;
    its stdout lines."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(plap.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.fixture(scope="session")
def fresh():
    return _fresh
