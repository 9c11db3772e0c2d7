"""Score-only, O(n^2)-memory 3-D DP engines.

Two independent formulations are provided:

* :func:`wavefront score-only <repro.core.wavefront.score3_wavefront>` keeps
  four anti-diagonal planes alive (imported here for symmetry);
* :func:`slab_sweep` (this module) rolls along the first sequence, keeping
  two ``(n2+1) x (n3+1)`` slabs. Within slab ``i``, cross-slab contributions
  form a precomputable "base" envelope, and the remaining in-slab moves
  (B, C, BC) are a 2-D lattice DP computed by 2-D anti-diagonal
  vectorisation.

The slab engine is an *independent* code path against which the plane
engine is validated (including the Hirschberg forward/backward slabs,
which production computes with the plane sweep's row capture, see
:func:`forward_slab`), and its captured levels are the score cube the
co-optimal path counter (:mod:`repro.core.countopt`) stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.dp3d import NEG
from repro.core.scoring import ScoringScheme
from repro.core.workspace import PlaneWorkspace
from repro.util.validation import check_sequences


@dataclass
class SlabResult:
    """Output of a slab sweep."""

    score: float
    slabs: dict[int, np.ndarray]
    cells_computed: int


def slab_sweep(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    want_levels: Iterable[int] = (),
    workspace: PlaneWorkspace | None = None,
) -> SlabResult:
    """Roll the 3-D DP along ``sa``, returning the final score.

    Parameters
    ----------
    want_levels:
        ``i`` levels whose full forward slab ``F[i, :, :]`` should be copied
        out (each is ``(n2+1, n3+1)``); used by Hirschberg.
    workspace:
        Optional :class:`~repro.core.workspace.PlaneWorkspace` supplying
        the slab and envelope buffers, so repeated sweeps (Hirschberg
        recursion) skip the per-call allocations. Not thread-safe.
    """
    check_sequences((sa, sb, sc), count=3)
    if scheme.is_affine:
        raise ValueError("slab_sweep implements the linear gap model")
    n1, n2, n3 = len(sa), len(sb), len(sc)
    want = set(int(v) for v in want_levels)
    for lvl in want:
        if not 0 <= lvl <= n1:
            raise ValueError(f"capture level {lvl} outside [0, {n1}]")

    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap

    # Padded slabs: cell (j, k) lives at [j+1, k+1]; pad row/col hold NEG.
    ws = PlaneWorkspace((0, n2, n3)) if workspace is None else workspace
    prev, cur, base, ab, ac, bc, tmp = ws.slab_buffers(n2, n3)
    # Substitution envelopes. Row/col 0 pair with NEG pad reads, so their
    # zeros never win; the ``bc`` term and the zero borders are constant
    # across ``i`` and set once, only the ``i-1`` profile rows roll.
    ab.fill(0.0)
    ac.fill(0.0)
    bc.fill(0.0)
    if n2 and n3:
        bc[1:, 1:] = sbc
    captured: dict[int, np.ndarray] = {}
    cells = 0

    for i in range(n1 + 1):
        cur[:] = NEG
        if i == 0:
            base[:] = NEG
            base[0, 0] = 0.0
        else:
            # Cross-slab envelope: moves A, AB, AC, ABC from slab i-1.
            p_00 = prev[1:, 1:]  # (j,   k)   -> move A
            p_10 = prev[:-1, 1:]  # (j-1, k)   -> move AB
            p_01 = prev[1:, :-1]  # (j,   k-1) -> move AC
            p_11 = prev[:-1, :-1]  # (j-1, k-1) -> move ABC
            if n2:
                ab[1:, :] = sab[i - 1, :, None]
            if n3:
                ac[:, 1:] = sac[i - 1, None, :]
            # In-place running max, same addition order as the original
            # expression tree, so scores stay bit-identical.
            np.add(p_00, g2, out=base)
            np.add(p_10, ab, out=tmp)
            tmp += g2
            np.maximum(base, tmp, out=base)
            np.add(p_01, ac, out=tmp)
            tmp += g2
            np.maximum(base, tmp, out=base)
            np.add(p_11, ab, out=tmp)
            tmp += ac
            tmp += bc
            np.maximum(base, tmp, out=base)

        # In-slab 2-D DP over anti-diagonals t = j + k.
        for t in range(n2 + n3 + 1):
            jlo = max(0, t - n3)
            jhi = min(n2, t)
            if jlo > jhi:
                continue
            js = np.arange(jlo, jhi + 1)
            ks = t - js
            vals = base[js, ks].copy()
            if t > 0:
                w_b = cur[js, ks + 1] + g2  # move B: (j-1, k)
                w_c = cur[js + 1, ks] + g2  # move C: (j, k-1)
                np.maximum(vals, w_b, out=vals)
                np.maximum(vals, w_c, out=vals)
                if n2 and n3:
                    jc = np.clip(js - 1, 0, n2 - 1)
                    kc = np.clip(ks - 1, 0, n3 - 1)
                    w_bc = cur[js, ks] + sbc[jc, kc] + g2  # move BC
                    np.maximum(vals, w_bc, out=vals)
            cur[js + 1, ks + 1] = vals
            cells += len(js)

        if i in want:
            captured[i] = cur[1:, 1:].copy()
        prev, cur = cur, prev

    score = float(prev[n2 + 1, n3 + 1])
    return SlabResult(score=score, slabs=captured, cells_computed=cells)


def score3_slab(sa: str, sb: str, sc: str, scheme: ScoringScheme) -> float:
    """Optimal SP score via the slab engine."""
    return slab_sweep(sa, sb, sc, scheme).score


def forward_slab(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    level: int,
    workspace: PlaneWorkspace | None = None,
) -> np.ndarray:
    """Forward scores ``F[level, j, k]`` for all ``(j, k)``.

    Computed by the plane sweep with row capture
    (:func:`repro.core.wavefront.wavefront_sweep`); :func:`slab_sweep`
    with ``want_levels=(level,)`` is the independent formulation the
    tests compare it against. The returned slab is always freshly
    allocated (never a workspace view), so callers may hold it across
    further sweeps.
    """
    from repro.core.wavefront import wavefront_sweep

    res = wavefront_sweep(
        sa,
        sb,
        sc,
        scheme,
        score_only=True,
        capture_level=level,
        workspace=workspace,
    )
    assert res.captured_slab is not None
    return res.captured_slab


def backward_slab(
    sa: str,
    sb: str,
    sc: str,
    scheme: ScoringScheme,
    level: int,
    workspace: PlaneWorkspace | None = None,
) -> np.ndarray:
    """Backward scores ``B[level, j, k]``: the optimal score of aligning the
    suffixes ``sa[level:]``, ``sb[j:]``, ``sc[k:]``.

    Computed as a forward sweep over the reversed sequences;
    ``B[level, j, k] == F_rev[n1-level, n2-j, n3-k]``.
    """
    n1, n2, n3 = len(sa), len(sb), len(sc)
    rev = forward_slab(
        sa[::-1],
        sb[::-1],
        sc[::-1],
        scheme,
        n1 - level,
        workspace=workspace,
    )
    return rev[::-1, ::-1].copy()
