"""Output checks for the end-to-end benchmark.

Every result is checked three ways:

1. its rows, with gaps removed, reproduce the three input sequences;
2. ``scheme.sp_score(rows)`` equals the reported score;
3. for exact methods, the score equals an oracle: a score-only sweep
   driven by the frozen reference kernel ``compute_plane_rows_ref``
   (computed outside every timed section).

Anchored results are optimal only subject to their anchor chain, so
they get checks 1 and 2 only. :func:`self_test` shows that each check
fires on a tampered result.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import resolve_scheme
from repro.core.dp3d import NEG
from repro.core.wavefront import compute_plane_rows_ref


class Mismatch(AssertionError):
    """A result failed one of the output checks."""


def oracle_score(seqs, scheme=None) -> float:
    """Optimal SP score by a score-only sweep over the reference kernel."""
    sa, sb, sc = seqs
    scheme = resolve_scheme(seqs, scheme)
    n1, n2, n3 = len(sa), len(sb), len(sc)
    sab, sac, sbc = scheme.profile_matrices(sa, sb, sc)
    g2 = 2.0 * scheme.gap
    planes = [np.full((n1 + 2, n2 + 2), NEG) for _ in range(4)]
    dmax = n1 + n2 + n3
    for d in range(dmax + 1):
        compute_plane_rows_ref(
            d, 0, n1,
            planes[(d - 1) % 4], planes[(d - 2) % 4], planes[(d - 3) % 4],
            planes[d % 4], sab, sac, sbc, g2, (n1, n2, n3),
        )
    return float(planes[dmax % 4][n1 + 1, n2 + 1])


def check(seqs, rows, score, oracle: float | None) -> None:
    """Raise :class:`Mismatch` unless ``rows``/``score`` are a correct
    alignment of ``seqs`` (and optimal, when ``oracle`` is given)."""
    rows = tuple(rows)
    if len(rows) != 3 or len({len(r) for r in rows}) != 1:
        raise Mismatch(f"rows are not three equal-length strings: {rows!r}")
    for r, s in zip(rows, seqs):
        if r.replace("-", "") != s:
            raise Mismatch("rows do not reconstruct the input sequences")
    scheme = resolve_scheme(seqs)
    sp = scheme.sp_score(rows)
    if sp != score:
        raise Mismatch(f"reported score {score} != SP score of rows {sp}")
    if oracle is not None and score != oracle:
        raise Mismatch(f"score {score} != reference-kernel optimum {oracle}")


def self_test() -> None:
    """Show that :func:`check` rejects a tampered score, tampered rows and
    a consistent but suboptimal alignment."""
    from repro.core.api import align3

    seqs = ("GATTACAGATT", "GATCAGTT", "GATTACTT")
    aln = align3(*seqs, method="wavefront")
    oracle = oracle_score(seqs)
    check(seqs, aln.rows, aln.score, oracle)
    a, b, c = aln.rows
    flip = "C" if a[0] != "C" else "G"
    # Every residue against gaps: a valid alignment, scored honestly,
    # that only the oracle comparison can reject.
    la, lb, lc = (len(s) for s in seqs)
    spread = (
        seqs[0] + "-" * (lb + lc),
        "-" * la + seqs[1] + "-" * lc,
        "-" * (la + lb) + seqs[2],
    )
    scheme = resolve_scheme(seqs)
    tampered = [
        ("score", aln.rows, aln.score + 1.0),
        ("rows", (flip + a[1:], b, c), aln.score),
        ("suboptimal alignment", spread, scheme.sp_score(spread)),
    ]
    for what, rows, score in tampered:
        try:
            check(seqs, rows, score, oracle)
        except Mismatch:
            continue
        raise RuntimeError(f"output check missed a tampered {what}")
