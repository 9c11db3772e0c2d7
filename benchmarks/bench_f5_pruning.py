"""F5 — Carrillo–Lipman pruning: tube construction and pruned sweep."""

import pytest

from repro.core.bounds import carrillo_lipman_tube
from repro.core.wavefront import score3_wavefront


@pytest.fixture(scope="module")
def tubes(dna_scheme, family60, family60_diverged):
    similar, _ = carrillo_lipman_tube(*family60, dna_scheme)
    diverged, _ = carrillo_lipman_tube(*family60_diverged, dna_scheme)
    return similar, diverged


def test_tube_construction_n60(benchmark, dna_scheme, family60):
    benchmark(carrillo_lipman_tube, *family60, dna_scheme)


def test_full_sweep_n60(benchmark, dna_scheme, family60):
    benchmark(score3_wavefront, *family60, dna_scheme)


def test_pruned_sweep_similar_n60(benchmark, dna_scheme, family60, tubes):
    benchmark(score3_wavefront, *family60, dna_scheme, tube=tubes[0])


def test_pruned_sweep_diverged_n60(
    benchmark, dna_scheme, family60_diverged, tubes
):
    benchmark(
        score3_wavefront, *family60_diverged, dna_scheme, tube=tubes[1]
    )
