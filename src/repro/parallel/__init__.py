"""Performance-portable execution substrate (the Kokkos substitute).

Provides execution spaces with machine cost models (:mod:`machine`),
simulated atomics (:mod:`atomics`), parallel primitives
(:mod:`primitives`), cost accounting (:mod:`cost`), and the device-memory
/ OOM simulation (:mod:`memory`).
"""

from .atomics import atomic_min, batch_fetch_add, cas, fetch_add, first_winner_cas
from .cost import CostLedger, KernelCost
from .execspace import ExecSpace, cpu_space, gpu_space, serial_space
from .machine import RYZEN32_CPU, TURING_GPU, MachineModel
from .memory import MemoryTracker, SimulatedOOM
from .pool import ExperimentTask, format_pool_summary
from .primitives import (
    compact_nonnegative,
    exclusive_prefix_sum,
    gen_perm,
    segment_max_index,
    segment_sum,
)
from .session import (
    SessionJournal,
    SessionMismatch,
    SessionOutcome,
    backoff_delay,
    run_session,
)

__all__ = [
    "CostLedger",
    "KernelCost",
    "ExecSpace",
    "gpu_space",
    "cpu_space",
    "serial_space",
    "MachineModel",
    "TURING_GPU",
    "RYZEN32_CPU",
    "MemoryTracker",
    "SimulatedOOM",
    "ExperimentTask",
    "format_pool_summary",
    "SessionJournal",
    "SessionMismatch",
    "SessionOutcome",
    "backoff_delay",
    "run_session",
    "cas",
    "fetch_add",
    "atomic_min",
    "first_winner_cas",
    "batch_fetch_add",
    "exclusive_prefix_sum",
    "gen_perm",
    "segment_sum",
    "segment_max_index",
    "compact_nonnegative",
]
