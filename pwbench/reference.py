"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark host shares its cores, caches and memory bus with other
tenants. Their load changes the speed of every cache- or memory-bound
kernel by up to about 40%, in episodes of seconds to minutes, and a frame's
wall time moves with it. Timing this kernel right after each frame and
dividing gives a frame cost (``frame_ref``) that follows the program and
not the host.

The kernel does not call pwrecon and does not depend on the workload seed:
forward and transposed products with a CSR matrix of fixed shape and
density, drawn once from a fixed seed, like the solver's hot loop. Each
workload's reference has the shape and about the nonzero count of that
workload's system matrix, so that both meet the caches alike, but the
sizes are fixed here so that a change to the program's own matrix never
changes the reference.
"""

import time

import numpy as np
import scipy.sparse as sp

SEED = 20211228
# rows, columns, nonzeros a row, product pairs a run (a tenth to a sixth of a frame)
SIZES = {
    # desk_point 96x64: 47,360 x 6,144, 703,100 nonzeros; here 663,040, 8 MB of CSR
    "point_joint": (47_360, 6_144, 14, 60),
    "cli_sequential": (47_360, 6_144, 14, 8),
    # desk_cyst 192x128: 71,168 x 24,576, 2,927,246 nonzeros; here 2,917,888, 35 MB
    "cyst_large": (71_168, 24_576, 41, 40),
}


def _matrix(rows, cols, per_row):
    rng = np.random.default_rng(SEED)
    indices = np.sort(rng.integers(0, cols, size=(rows, per_row), dtype=np.int32), axis=1)
    indptr = np.arange(0, rows * per_row + 1, per_row, dtype=np.int32)
    data = rng.standard_normal(rows * per_row)
    return sp.csr_matrix((data, indices.ravel(), indptr), shape=(rows, cols))


class Reference:
    """The reference kernel of one workload."""

    def __init__(self, workload):
        rows, cols, per_row, self.pairs = SIZES[workload]
        self.matrix = _matrix(rows, cols, per_row)
        rng = np.random.default_rng(SEED + 1)
        self.x = rng.standard_normal(cols)
        self.y = rng.standard_normal(rows)
        self.run()  # warm-up

    def run(self):
        """Wall time (s) of one pass of the kernel."""
        a, at, x, y = self.matrix, self.matrix.T, self.x, self.y
        start = time.perf_counter()
        for _ in range(self.pairs):
            a @ x
            at @ y
        return time.perf_counter() - start
