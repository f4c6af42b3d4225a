"""Alternative memory-technology pairings (Sections III, VII-B).

TOSS is designed to work with any two memory technologies: "TOSS can be
utilized by using DDR5 as the fast tier and CXL-attached DDR4 as the
slower, cheaper tier and adapting the memory cost formula", and even
"DRAM as the slow, capacity tier and a GPU's memory as the fast, small
tier".  These presets instantiate those pairings with public device
characteristics so the cost model and the whole pipeline can be evaluated
on each (see ``benchmarks/test_ablations.py`` / ``examples``).

``DRAM_CXL_NVME`` and ``DRAM_PMEM_NVME`` go beyond two technologies: the
CXL or PMEM tier sits in the middle of a chain ending in NVMe far memory.
The execute and contention engines model a middle tier as a pool living
in fast-tier memory, so these presets are meant for placement search
(:meth:`repro.core.analysis.ProfilingAnalyzer.search_chain`) and are not
in :data:`ALL_PRESETS`.

All numbers are order-of-magnitude device characteristics; as everywhere
in this reproduction, only the ratios drive the results.
"""

from __future__ import annotations

from .. import config
from .tiers import DRAM_SPEC, PMEM_SPEC, MemorySystem, TierSpec

__all__ = [
    "DRAM_PMEM",
    "DDR5_CXL",
    "HBM_DRAM",
    "DRAM_NVME",
    "DRAM_CXL_NVME",
    "DRAM_PMEM_NVME",
    "ALL_PRESETS",
]

DRAM_PMEM = MemorySystem(fast=DRAM_SPEC, slow=PMEM_SPEC)
"""The paper's evaluation platform: DDR4 + Intel Optane PMEM (ratio 2.5)."""

DDR5_SPEC = TierSpec(
    name="DDR5 DRAM",
    load_latency_s=70e-9,
    store_latency_s=70e-9,
    bandwidth_bps=150 * config.GB,
    access_bytes=64,
    cost_per_mb=1.8,
)

CXL_DDR4_SPEC = TierSpec(
    name="CXL-attached DDR4",
    load_latency_s=190e-9,      # ~2-3x local DRAM through the CXL link
    store_latency_s=220e-9,
    bandwidth_bps=28 * config.GB,
    access_bytes=64,
    cost_per_mb=1.0,
    random_penalty=1.05,
    read_ops_cap=60e6,
    write_ops_cap=40e6,
)

DDR5_CXL = MemorySystem(fast=DDR5_SPEC, slow=CXL_DDR4_SPEC)
"""DDR5 fast tier + CXL-attached DDR4 slow tier (Section III's example)."""

HBM_SPEC = TierSpec(
    name="GPU HBM",
    load_latency_s=40e-9,
    store_latency_s=40e-9,
    bandwidth_bps=1500 * config.GB,
    access_bytes=64,
    cost_per_mb=8.0,
)

HOST_DRAM_AS_SLOW_SPEC = TierSpec(
    name="host DRAM (capacity tier)",
    load_latency_s=350e-9,      # across the PCIe/NVLink unified-memory path
    store_latency_s=400e-9,
    bandwidth_bps=40 * config.GB,
    access_bytes=64,
    cost_per_mb=1.0,
    random_penalty=1.3,
)

HBM_DRAM = MemorySystem(fast=HBM_SPEC, slow=HOST_DRAM_AS_SLOW_SPEC)
"""GPU memory as the fast, small tier; DRAM as capacity (Section VII-B)."""

NVME_AS_MEMORY_SPEC = TierSpec(
    name="NVMe-backed far memory",
    load_latency_s=8e-6,
    store_latency_s=12e-6,
    bandwidth_bps=6 * config.GB,
    access_bytes=4096,
    cost_per_mb=0.1,
    random_penalty=1.0,
    read_ops_cap=1.5e6,
    write_ops_cap=0.8e6,
)

DRAM_NVME = MemorySystem(fast=DRAM_SPEC, slow=NVME_AS_MEMORY_SPEC)
"""DRAM + swap-class NVMe far memory (TMO-style, Section VII-B)."""

DRAM_CXL_NVME = MemorySystem(
    fast=DRAM_SPEC, slow=NVME_AS_MEMORY_SPEC, middle=(CXL_DDR4_SPEC,)
)
"""Local DRAM, CXL-attached DDR4 in the middle, NVMe far memory."""

DRAM_PMEM_NVME = MemorySystem(
    fast=DRAM_SPEC, slow=NVME_AS_MEMORY_SPEC, middle=(PMEM_SPEC,)
)
"""The paper's platform with PMEM in the middle and an NVMe capacity tier."""

ALL_PRESETS: dict[str, MemorySystem] = {
    "dram+pmem": DRAM_PMEM,
    "ddr5+cxl": DDR5_CXL,
    "hbm+dram": HBM_DRAM,
    "dram+nvme": DRAM_NVME,
}
"""Named pairings for sweeps and the CLI."""
