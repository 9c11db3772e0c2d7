"""Simulated distributed-memory execution of the parallel algorithm.

The paper family evaluates on a PC cluster (MPI over Fast Ethernet, one
rank per node). That hardware is not available here, so this package
*simulates* it: the 3-D DP cube is decomposed into blocks
(:mod:`blockgrid`), blocks inherit the 7-neighbour wavefront dependence,
and an event-driven scheduler (:mod:`simulate`) plays the execution out on
a parameterised machine (:mod:`machine`: processor count, per-cell compute
time, link latency ``alpha`` and inverse bandwidth ``beta``).

The simulation preserves what the paper's scaling figures actually measure
— the schedule structure (pipeline fill/drain of the block wavefront) and
the computation/communication ratio — which is what determines speedup
shape, efficiency rolloff and the block-size sweet spot. Per-cell compute
time can be calibrated against the real vectorised engine on this machine
(:func:`repro.cluster.machine.calibrate_t_cell`). :mod:`execute` runs
the same block decomposition in-process and checks that it yields the
exact optimum and that its ghost-transfer ledger matches the simulator's
message and byte accounting.
"""

from repro.cluster.machine import (
    MachineModel,
    ethernet_2007,
    gigabit_2007,
    modern_cluster,
    calibrate_t_cell,
)
from repro.cluster.blockgrid import BlockGrid
from repro.cluster.simulate import simulate_wavefront, SimResult
from repro.cluster.metrics import speedup_series, efficiency_series, comm_volume_series
from repro.cluster.memory import per_rank_memory, max_length_for_budget, MemoryProfile
from repro.cluster.execute import execute_blocked, BlockedResult
from repro.cluster.hetero import (
    HeterogeneousMachine,
    simulate_wavefront_hetero,
    uniform_with_stragglers,
    weighted_pencil_owners,
)

__all__ = [
    "execute_blocked",
    "BlockedResult",
    "per_rank_memory",
    "max_length_for_budget",
    "MemoryProfile",
    "HeterogeneousMachine",
    "simulate_wavefront_hetero",
    "uniform_with_stragglers",
    "weighted_pencil_owners",
    "MachineModel",
    "ethernet_2007",
    "gigabit_2007",
    "modern_cluster",
    "calibrate_t_cell",
    "BlockGrid",
    "simulate_wavefront",
    "SimResult",
    "speedup_series",
    "efficiency_series",
    "comm_volume_series",
]
