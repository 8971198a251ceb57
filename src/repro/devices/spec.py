"""Device specifications and the registry of evaluation devices (Table 2).

``DeviceSpec`` carries the hardware parameters the paper lists (clock, memory
size, memory bandwidth, core count) plus the extra parameters the analytical
simulator and the device-dependent feature extractor need (peak FLOPS, cache
sizes, vector width, kernel launch overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import DeviceError

GPU = "gpu"
CPU = "cpu"
ACCEL = "accel"

_TAXONOMIES = (GPU, CPU, ACCEL)


@dataclass(frozen=True)
class DeviceSpec:
    """Hardware description of one device.

    Attributes:
        name: Canonical device name (``"t4"``, ``"epyc"``, ...).
        taxonomy: ``"gpu"``, ``"cpu"`` or ``"accel"``.
        clock_mhz: Core clock in MHz (Table 2).
        memory_gb: Device memory in GB (Table 2).
        memory_bandwidth_gbps: Peak memory bandwidth in GB/s (Table 2).
        cores: SM count (GPUs), physical cores (CPUs), or compute engines
            (accelerators) (Table 2).
        peak_fp32_tflops: Peak single-precision throughput in TFLOPS.
        l1_kb: Per-core L1 / shared-memory size in KB.
        l2_mb: Last-level cache size in MB.
        vector_width: SIMD width in fp32 lanes (warp size for GPUs).
        launch_overhead_us: Fixed kernel launch / dispatch overhead in µs.
        gemm_efficiency: Fraction of peak achievable on contraction-heavy
            kernels (models tensor cores / GEMM engines).
        irregular_penalty: Multiplier (>1) applied to gather/strided-heavy
            kernels, capturing poor coalescing or prefetching.
        gemm_engines: Number of dedicated GEMM/convolution engines; used by
            the replayer to split convolution nodes on HL-100-like devices.
    """

    name: str
    taxonomy: str
    clock_mhz: float
    memory_gb: float
    memory_bandwidth_gbps: float
    cores: int
    peak_fp32_tflops: float
    l1_kb: float = 64.0
    l2_mb: float = 4.0
    vector_width: int = 32
    launch_overhead_us: float = 5.0
    gemm_efficiency: float = 0.7
    irregular_penalty: float = 1.6
    gemm_engines: int = 1

    def __post_init__(self) -> None:
        if self.taxonomy not in _TAXONOMIES:
            raise DeviceError(f"unknown device taxonomy {self.taxonomy!r}")
        for field_name in ("clock_mhz", "memory_gb", "memory_bandwidth_gbps", "peak_fp32_tflops"):
            if getattr(self, field_name) <= 0:
                raise DeviceError(f"device {self.name!r}: {field_name} must be positive")
        if self.cores <= 0:
            raise DeviceError(f"device {self.name!r}: cores must be positive")

    @property
    def peak_gflops(self) -> float:
        """Peak throughput in GFLOPS."""
        return self.peak_fp32_tflops * 1000.0

    @property
    def bytes_per_second(self) -> float:
        """Peak memory bandwidth in bytes/second."""
        return self.memory_bandwidth_gbps * 1e9

    @property
    def ridge_intensity(self) -> float:
        """Roofline ridge point (FLOPs per byte)."""
        return (self.peak_gflops * 1e9) / self.bytes_per_second

    def feature_vector(self) -> np.ndarray:
        """Device-dependent features used by the cross-device predictor.

        Log-scaled where the underlying quantity spans orders of magnitude so
        the MLP consuming them sees a well-conditioned input.
        """
        taxonomy_onehot = [
            1.0 if self.taxonomy == t else 0.0 for t in _TAXONOMIES
        ]
        values = [
            np.log2(self.clock_mhz),
            np.log2(self.memory_gb + 1.0),
            np.log2(self.memory_bandwidth_gbps),
            np.log2(self.cores),
            np.log2(self.peak_gflops),
            np.log2(self.l1_kb),
            np.log2(self.l2_mb + 1.0),
            np.log2(self.vector_width),
            self.launch_overhead_us,
            self.gemm_efficiency,
            self.irregular_penalty,
            float(self.gemm_engines),
            np.log2(self.ridge_intensity + 1.0),
        ]
        return np.asarray(taxonomy_onehot + values, dtype=np.float64)

    @staticmethod
    def feature_dim() -> int:
        """Length of :meth:`feature_vector`."""
        return 16


# ---------------------------------------------------------------------------
# Registry: the devices of Table 2 (plus spec fields the table omits, filled
# with public datasheet numbers).
# ---------------------------------------------------------------------------
DEVICE_REGISTRY: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in [
        DeviceSpec("t4", GPU, 1590, 16, 320, 40, 8.1, l1_kb=64, l2_mb=4, vector_width=32,
                   launch_overhead_us=5.0, gemm_efficiency=0.72, irregular_penalty=1.7),
        DeviceSpec("k80", GPU, 824, 12, 240.6, 26, 4.1, l1_kb=48, l2_mb=1.5, vector_width=32,
                   launch_overhead_us=8.0, gemm_efficiency=0.55, irregular_penalty=2.0),
        DeviceSpec("p100", GPU, 1329, 16, 732.2, 56, 9.3, l1_kb=64, l2_mb=4, vector_width=32,
                   launch_overhead_us=6.0, gemm_efficiency=0.65, irregular_penalty=1.8),
        DeviceSpec("v100", GPU, 1530, 32, 900, 80, 14.0, l1_kb=96, l2_mb=6, vector_width=32,
                   launch_overhead_us=4.5, gemm_efficiency=0.78, irregular_penalty=1.6),
        DeviceSpec("a100", GPU, 1410, 40, 1555, 108, 19.5, l1_kb=192, l2_mb=40, vector_width=32,
                   launch_overhead_us=4.0, gemm_efficiency=0.85, irregular_penalty=1.5),
        DeviceSpec("hl100", ACCEL, 1575, 8, 40, 11, 11.0, l1_kb=128, l2_mb=24, vector_width=64,
                   launch_overhead_us=12.0, gemm_efficiency=0.9, irregular_penalty=3.0,
                   gemm_engines=3),
        DeviceSpec("e5-2673", CPU, 2300, 2048, 57.2, 8, 0.9, l1_kb=32, l2_mb=25, vector_width=8,
                   launch_overhead_us=1.0, gemm_efficiency=0.6, irregular_penalty=1.4),
        DeviceSpec("epyc-7452", CPU, 2350, 2048, 152.6, 32, 2.4, l1_kb=32, l2_mb=128, vector_width=8,
                   launch_overhead_us=1.0, gemm_efficiency=0.62, irregular_penalty=1.35),
        DeviceSpec("graviton2", CPU, 2500, 32, 47.5, 64, 1.8, l1_kb=64, l2_mb=32, vector_width=4,
                   launch_overhead_us=1.2, gemm_efficiency=0.58, irregular_penalty=1.45),
    ]
}

# Dataset sizes per device reported in Table 2 (number of measured records).
# Only used for documentation and the Table 2 benchmark; the synthetic dataset
# is generated at a configurable, much smaller scale.
TABLE2_SAMPLE_COUNTS: Dict[str, int] = {
    "t4": 9_000_000,
    "k80": 9_000_000,
    "p100": 9_000_000,
    "v100": 2_000_000,
    "a100": 2_000_000,
    "hl100": 4_000,
    "e5-2673": 9_000_000,
    "epyc-7452": 9_000_000,
    "graviton2": 9_000_000,
}

_ALIASES = {
    "epyc": "epyc-7452",
    "intel": "e5-2673",
    "e5": "e5-2673",
    "hl-100": "hl100",
    "habana": "hl100",
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device by canonical name or alias (case-insensitive)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return DEVICE_REGISTRY[key]
    except KeyError as exc:
        raise DeviceError(
            f"unknown device {name!r}; known devices: {', '.join(sorted(DEVICE_REGISTRY))}"
        ) from exc


def list_devices(taxonomy: str | None = None) -> List[DeviceSpec]:
    """All registered devices, optionally filtered by taxonomy."""
    devices = list(DEVICE_REGISTRY.values())
    if taxonomy is not None:
        if taxonomy not in _TAXONOMIES:
            raise DeviceError(f"unknown taxonomy {taxonomy!r}")
        devices = [d for d in devices if d.taxonomy == taxonomy]
    return devices


def all_device_names() -> Tuple[str, ...]:
    """Names of all registered devices."""
    return tuple(DEVICE_REGISTRY)
