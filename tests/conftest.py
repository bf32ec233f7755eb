import numpy as np
import pytest

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
