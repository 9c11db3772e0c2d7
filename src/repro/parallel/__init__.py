"""Block-tiled multiprocess wavefront executor.

The anti-diagonal plane is the natural parallel unit: all cells on plane
``i + j + k = d`` are independent given the previous three planes.
Rather than meeting at one barrier per plane, each worker owns a fixed
row slab and streams *plane bands* (3-D blocks) through a deep rotating
plane window, syncing on per-worker readiness counters only at band
edges (:mod:`repro.parallel.blockwave`). Same cells, same kernel,
bit-identical output to the serial wavefront.

One executor runs every parallel sweep:

* :class:`~repro.parallel.executor.WavefrontPool` — each call forks
  its workers over job-sized shared buffers, with supervised,
  block-granular recovery and optional
  :class:`~repro.core.tube.PruningTube` pruning;
* :mod:`repro.parallel.blocks` — ``align3_blocks``/``score3_blocks``,
  one such call (``method="blocks"``).

Partitioning helpers (row slabs, plane bands, the block dependency
grid) live in :mod:`repro.parallel.partition`.
"""

from repro.parallel.partition import (
    split_range,
    split_cyclic,
    balanced_blocks,
    band_depth,
    block_predecessors,
    plane_bands,
    plane_window,
    row_slabs,
)
from repro.parallel.blocks import align3_blocks, score3_blocks
from repro.parallel.executor import WavefrontPool, fork_available

__all__ = [
    "split_range",
    "split_cyclic",
    "balanced_blocks",
    "band_depth",
    "block_predecessors",
    "plane_bands",
    "plane_window",
    "row_slabs",
    "align3_blocks",
    "score3_blocks",
    "WavefrontPool",
    "fork_available",
]
