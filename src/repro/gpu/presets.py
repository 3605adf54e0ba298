"""Machine-model presets approximating the paper's test platform.

The paper runs an AMD Radeon 5870 (OpenCL, APP SDK 2.0) against an AMD
Phenom X4 965 @ 3.4 GHz (MSVC /O2).  Constants below were calibrated
against the paper's own measurements:

* Table II dataset 1 (0.1 / 0.9): 113.8M tracking steps in ~3 s of kernel
  time → effective raw throughput ~4.5e7 thread-iterations/s →
  ``seconds_per_wavefront_iteration = 64 * 20 / 4.5e7 ≈ 28 µs``.
* Table II CPU column: 289.6 s for the same 113.8M steps →
  ``~2.5 µs`` per scalar tracking step.
* Table IV strategy A1 (one iteration per kernel, 888 launches x 50
  samples): 41.2 s of transfer → ~0.93 ms per launch round-trip →
  ``transfer_latency_s ≈ 0.4 ms`` per direction; 8.2 s of reduction →
  ``~10 ns`` per compacted item plus ``~50 µs`` per pass.
* Table III: 205k voxels x 600 loops x 9 parameters in 41.3 s GPU /
  1383 s CPU → ``~48 µs`` per wavefront MH update and ``~1.25 µs`` per
  scalar MH update.

Absolute seconds from these models are indicative; orderings and ratios
are the reproduced quantities.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.gpu.device import DeviceSpec, HostSpec

__all__ = [
    "RADEON_5870",
    "PHENOM_X4",
    "NVIDIA_WARP32",
    "RADEON_5870_MEMORY_BYTES",
    "DEVICE_PRESETS",
    "HOST_PRESETS",
    "device_preset",
    "host_preset",
]

RADEON_5870_MEMORY_BYTES = 1 * 1024**3  # 1 GiB GDDR5

#: The paper's GPU: 20 compute units, wavefronts of 64.
RADEON_5870 = DeviceSpec(
    name="Radeon 5870 (modeled)",
    wavefront_size=64,
    n_slots=20,
    seconds_per_wavefront_iteration=2.8e-5,
    kernel_launch_overhead_s=3.0e-5,
    transfer_latency_s=4.0e-4,
    transfer_bandwidth_bps=1.0e9,
    memory_bytes=RADEON_5870_MEMORY_BYTES,
    seconds_per_wavefront_mcmc_update=4.8e-5,
)

#: An NVIDIA-like variant (warp 32) for the SIMD-width ablation.
NVIDIA_WARP32 = DeviceSpec(
    name="warp-32 device (modeled)",
    wavefront_size=32,
    n_slots=30,
    seconds_per_wavefront_iteration=2.1e-5,
    kernel_launch_overhead_s=3.0e-5,
    transfer_latency_s=4.0e-4,
    transfer_bandwidth_bps=1.0e9,
    memory_bytes=RADEON_5870_MEMORY_BYTES,
    seconds_per_wavefront_mcmc_update=3.6e-5,
)

#: The paper's CPU: AMD Phenom X4 965, single-threaded C++ reference.
PHENOM_X4 = HostSpec(
    name="Phenom X4 965 (modeled)",
    seconds_per_iteration=2.5e-6,
    seconds_per_mcmc_loop_parameter=1.25e-6,
    reduction_seconds_per_item=1.0e-8,
    reduction_base_s=5.0e-5,
)

#: Spec-addressable device presets (``runtime.device`` in a run spec).
DEVICE_PRESETS: dict[str, DeviceSpec] = {
    "radeon_5870": RADEON_5870,
    "nvidia_warp32": NVIDIA_WARP32,
}

#: Spec-addressable host presets (``runtime.host`` in a run spec).
HOST_PRESETS: dict[str, HostSpec] = {
    "phenom_x4": PHENOM_X4,
}


def device_preset(name: str) -> DeviceSpec:
    """Look up a device preset by spec name."""
    try:
        return DEVICE_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown device preset {name!r}; known: {sorted(DEVICE_PRESETS)}"
        ) from None


def host_preset(name: str) -> HostSpec:
    """Look up a host preset by spec name."""
    try:
        return HOST_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown host preset {name!r}; known: {sorted(HOST_PRESETS)}"
        ) from None

