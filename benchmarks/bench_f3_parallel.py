"""F3 — measured block-tiled parallel executor on this machine.

Compares the serial wavefront against the ``blocks`` engine and a direct
``WavefrontPool`` call at the same problem size; the speedup ratio is
the figure's measured series.
"""

import multiprocessing as mp

import pytest

from repro.core.wavefront import score3_wavefront
from repro.parallel.executor import WavefrontPool
from repro.parallel.blocks import score3_blocks

_CORES = mp.cpu_count()


@pytest.fixture(scope="module")
def pool():
    return WavefrontPool(workers=_CORES)


def test_serial_baseline_n80(benchmark, dna_scheme, family80):
    benchmark(score3_wavefront, *family80, dna_scheme)


def test_blocks_workers_n80(benchmark, dna_scheme, family80):
    benchmark(score3_blocks, *family80, dna_scheme, workers=_CORES)


def test_pool_workers_n80(benchmark, dna_scheme, family80, pool):
    benchmark(pool.score3, *family80, dna_scheme)
