"""Block-tiled multiprocess wavefront: ``method="blocks"``.

The measured counterpart of the coarse 3-D block decomposition TrioSeq
uses to keep GPU SMs saturated: instead of one barrier per anti-diagonal
plane, each worker owns a fixed row slab of the cube and streams *plane
bands* of it — 3-D blocks bounded by two ``i``-levels and two planes —
syncing on per-worker readiness counters only at band edges
(:mod:`repro.parallel.blockwave`). For a cube with ``3n`` planes and
bands of depth ``T`` that is ``2 * 3n / T`` waits per worker instead of
``3n`` full barriers, and the planes inside a band run with zero
synchronisation.

Both functions run one call of
:class:`~repro.parallel.executor.WavefrontPool`: it gives the cube one
worker per row slab and the band depth
:func:`~repro.parallel.partition.band_depth` picks for it, and supplies
everything else — shared buffers, supervision with block-granular
respawn (``docs/robustness.md``), :class:`~repro.core.tube.PruningTube`
composition (tube-skipped blocks publish without scheduling; respawned
workers replay the same live-row windows) and the serial fallback.

Determinism: every cell is computed exactly once by the same kernel
call the serial engine makes, so scores and rows are bit-identical to
:func:`repro.core.wavefront.wavefront_sweep` — with or without a tube,
with or without mid-sweep recovery.
"""

from __future__ import annotations

from repro.core.scoring import ScoringScheme
from repro.core.tube import PruningTube
from repro.core.types import Alignment3
from repro.parallel.executor import WavefrontPool, traced_alignment


def score3_blocks(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    workers: int = 2,
    supervise: bool = True,
    band: int | None = None,
    tube: PruningTube | None = None,
) -> float:
    """Optimal SP score via the block-tiled wavefront (O(n^2) memory)."""
    pool = WavefrontPool(workers, supervise=supervise, band=band)
    return pool.score3(sa, sb, sc, scheme, tube=tube)


def align3_blocks(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    workers: int = 2,
    supervise: bool = True,
    band: int | None = None,
    tube: PruningTube | None = None,
) -> Alignment3:
    """Optimal three-way alignment via the block-tiled wavefront.

    ``meta`` records the requested and active worker counts, the band
    depth and plane window, the valid-cell count (``cells``, equal to the
    serial sweep's) and, when one worker had all the rows,
    ``fallback="serial"``.
    """
    pool = WavefrontPool(workers, supervise=supervise, band=band)
    score, move_cube, meta = pool._run(sa, sb, sc, scheme, False, tube)
    meta["engine"] = "blocks"
    if meta.pop("serial_fallback"):
        meta["fallback"] = "serial"
    return traced_alignment(sa, sb, sc, score, move_cube, meta, tube)
