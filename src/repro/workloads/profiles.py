"""Calibrated per-benchmark profiles.

One profile per benchmark named in the paper (GPGPU-Sim suite, Rodinia,
Parboil).  The *names* are the paper's; the traces are synthetic — each
profile's knobs are set so the benchmark lands in its published behaviour
class:

* **region 1** — cache- and register-insensitive (streaming/bandwidth-bound
  or compute-bound);
* **region 2** — register-file limited (gains only when C2/C3's larger file
  fits another whole CTA);
* **region 3** — cache-friendly *and* register-limited;
* **region 4** — cache-friendly.

Working-set sizes are chosen against the L2 capacities at stake (384 KB
baseline, 768 KB C3, 1536 KB C1/STT): a profile whose hot set lies between
two capacities produces the corresponding crossover in Fig. 8.  Register
counts are chosen against the CTA-granularity occupancy model so that some
region-2 benchmarks gain from C2/C3 and others (tpacf-style) cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.gpu.kernel import KernelDescriptor


#: The access-kind mix fields, in generator kind order.
_MIX_FIELDS = (
    "p_stream_read",
    "p_stream_write",
    "p_hot_read",
    "p_wws_write",
    "p_wws_read",
    "p_local_read",
    "p_local_write",
)


@dataclass(frozen=True)
class BenchmarkProfile:
    """All generator and kernel knobs for one benchmark."""

    name: str
    region: int
    description: str
    # kernel resources
    regs_per_thread: int
    threads_per_block: int
    compute_intensity: float
    shared_mem_per_block: int = 0
    # access-kind mix (must sum to 1)
    p_stream_read: float = 0.0
    p_stream_write: float = 0.0
    p_hot_read: float = 0.0
    p_wws_write: float = 0.0
    p_wws_read: float = 0.0
    p_local_read: float = 0.0
    p_local_write: float = 0.0
    # segment geometry (128 B lines; the streaming, local and output
    # segments are sized by repro.workloads.generator constants)
    hot_lines: int = 2048
    hot_alpha: float = 0.8
    wws_lines: int = 256
    wws_alpha: float = 1.0
    # phase structure
    phase_fraction: float = 0.1
    burst_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.region not in (1, 2, 3, 4):
            raise ConfigurationError(f"{self.name}: region must be 1..4")
        for field, probability in zip(_MIX_FIELDS, self.mix_vector()):
            if not probability >= 0:
                raise ConfigurationError(
                    f"{self.name}: {field} is {probability}, "
                    "a probability must be non-negative"
                )
        if not 0 < self.phase_fraction <= 1:
            raise ConfigurationError(
                f"{self.name}: phase_fraction is {self.phase_fraction}, "
                "expected a fraction of the trace in (0, 1]"
            )
        if not 0 <= self.burst_fraction <= 1:
            raise ConfigurationError(
                f"{self.name}: burst_fraction is {self.burst_fraction}, "
                "expected a fraction of the phase in [0, 1]"
            )
        total = sum(self.mix_vector())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"{self.name}: access mix sums to {total:.4f}, expected 1.0"
            )

    def mix_vector(self) -> Tuple[float, ...]:
        """Probabilities in generator kind order."""
        return tuple(getattr(self, field) for field in _MIX_FIELDS)

    @property
    def write_fraction(self) -> float:
        """Expected write fraction of the trace (before bursts)."""
        return self.p_stream_write + self.p_wws_write + self.p_local_write

    def kernel_descriptor(self) -> KernelDescriptor:
        """The kernel facts the occupancy/IPC models need."""
        return KernelDescriptor(
            name=self.name,
            regs_per_thread=self.regs_per_thread,
            threads_per_block=self.threads_per_block,
            shared_mem_per_block=self.shared_mem_per_block,
            compute_intensity=self.compute_intensity,
        )


def _p(**kwargs) -> BenchmarkProfile:
    return BenchmarkProfile(**kwargs)


#: The 16-benchmark suite.  Sizes in 128 B lines: 3072 lines = 384 KB
#: (baseline L2), 6144 = 768 KB (C3), 12288 = 1536 KB (C1 / STT baseline).
PROFILES: Dict[str, BenchmarkProfile] = {
    profile.name: profile
    for profile in [
        # ----- region 1: insensitive ---------------------------------
        _p(
            name="lbm", region=1,
            description="lattice-Boltzmann; bandwidth-bound streaming, heavy writes",
            regs_per_thread=20, threads_per_block=128, compute_intensity=6.0,
            p_stream_read=0.40, p_stream_write=0.38, p_hot_read=0.10,
            p_wws_write=0.06, p_wws_read=0.02, p_local_read=0.03, p_local_write=0.01,
            hot_lines=600, hot_alpha=0.9, wws_lines=16384, wws_alpha=0.0, burst_fraction=0.0,
        ),
        _p(
            name="stencil", region=1,
            description="3D stencil; streaming with even write spread",
            regs_per_thread=24, threads_per_block=256, compute_intensity=14.0,
            p_stream_read=0.48, p_stream_write=0.22, p_hot_read=0.14,
            p_wws_write=0.06, p_wws_read=0.02, p_local_read=0.06, p_local_write=0.02,
            hot_lines=600, hot_alpha=0.9, wws_lines=768, wws_alpha=0.2, burst_fraction=0.0,
        ),
        _p(
            name="cfd", region=1,
            description="unstructured-grid CFD solver; streaming, even writes",
            regs_per_thread=28, threads_per_block=192, compute_intensity=12.0,
            p_stream_read=0.52, p_stream_write=0.18, p_hot_read=0.16,
            p_wws_write=0.05, p_wws_read=0.03, p_local_read=0.04, p_local_write=0.02,
            hot_lines=600, hot_alpha=0.9, wws_lines=768, wws_alpha=0.2, burst_fraction=0.0,
        ),
        _p(
            name="sgemm", region=1,
            description="dense matrix multiply; compute-bound, tiled reuse in L1",
            regs_per_thread=30, threads_per_block=128, compute_intensity=26.0,
            shared_mem_per_block=4096,
            p_stream_read=0.30, p_stream_write=0.06, p_hot_read=0.50,
            p_wws_write=0.04, p_wws_read=0.02, p_local_read=0.06, p_local_write=0.02,
            hot_lines=1400, hot_alpha=0.9, burst_fraction=0.01,
        ),
        _p(
            name="nn", region=1,
            description="nearest neighbour; tiny working set, hits everywhere",
            regs_per_thread=18, threads_per_block=256, compute_intensity=9.0,
            p_stream_read=0.30, p_stream_write=0.01, p_hot_read=0.60,
            p_wws_write=0.03, p_wws_read=0.02, p_local_read=0.03, p_local_write=0.01,
            hot_lines=800, hot_alpha=0.9, wws_lines=64, burst_fraction=0.01,
        ),
        # ------ region 2: register-file limited -----------------------------
        _p(
            name="mri-gridding", region=2,
            description="MRI gridding; 48 regs/thread, one more CTA fits on C2",
            regs_per_thread=48, threads_per_block=256, compute_intensity=9.0,
            p_stream_read=0.34, p_stream_write=0.08, p_hot_read=0.30,
            p_wws_write=0.12, p_wws_read=0.04, p_local_read=0.08, p_local_write=0.04,
            hot_lines=1100, hot_alpha=0.9, wws_lines=256, wws_alpha=1.1,
        ),
        _p(
            name="tpacf", region=2,
            description="angular correlation; 63 regs/thread, no extra CTA fits "
                        "even on C2 (the paper's no-gain case)",
            regs_per_thread=63, threads_per_block=256, compute_intensity=10.0,
            shared_mem_per_block=8192,
            p_stream_read=0.30, p_stream_write=0.04, p_hot_read=0.44,
            p_wws_write=0.10, p_wws_read=0.04, p_local_read=0.06, p_local_write=0.02,
            hot_lines=1000, hot_alpha=0.9, wws_lines=256,
        ),
        _p(
            name="lps", region=2,
            description="Laplace solver; gains on C2 only (C3's boost too small)",
            regs_per_thread=52, threads_per_block=128, compute_intensity=8.0,
            p_stream_read=0.36, p_stream_write=0.10, p_hot_read=0.28,
            p_wws_write=0.12, p_wws_read=0.04, p_local_read=0.07, p_local_write=0.03,
            hot_lines=1100, hot_alpha=0.9, wws_lines=384, wws_alpha=1.0,
        ),
        _p(
            name="mummergpu", region=2,
            description="sequence alignment; irregular, write-skewed, gains on C2/C3",
            regs_per_thread=44, threads_per_block=256, compute_intensity=7.0,
            p_stream_read=0.30, p_stream_write=0.06, p_hot_read=0.30,
            p_wws_write=0.18, p_wws_read=0.06, p_local_read=0.07, p_local_write=0.03,
            hot_lines=1200, hot_alpha=0.9, wws_lines=192, wws_alpha=1.3,
        ),
        # ----- region 3: cache-friendly + register-limited ----------------
        _p(
            name="kmeans", region=3,
            description="k-means clustering; 650 KB hot set + extra CTA on C2/C3",
            regs_per_thread=44, threads_per_block=256, compute_intensity=9.0,
            p_stream_read=0.22, p_stream_write=0.05, p_hot_read=0.46,
            p_wws_write=0.14, p_wws_read=0.05, p_local_read=0.06, p_local_write=0.02,
            hot_lines=5200, hot_alpha=0.75, wws_lines=320, wws_alpha=1.1,
        ),
        _p(
            name="srad_v2", region=3,
            description="speckle-reducing diffusion; 500 KB hot set",
            regs_per_thread=45, threads_per_block=256, compute_intensity=9.0,
            p_stream_read=0.24, p_stream_write=0.08, p_hot_read=0.42,
            p_wws_write=0.14, p_wws_read=0.04, p_local_read=0.06, p_local_write=0.02,
            hot_lines=4000, hot_alpha=0.75, wws_lines=384, wws_alpha=1.0,
        ),
        _p(
            name="backprop", region=3,
            description="neural back-propagation; 875 KB hot set, skewed writes",
            regs_per_thread=45, threads_per_block=256, compute_intensity=8.0,
            p_stream_read=0.20, p_stream_write=0.05, p_hot_read=0.42,
            p_wws_write=0.20, p_wws_read=0.05, p_local_read=0.06, p_local_write=0.02,
            hot_lines=7000, hot_alpha=0.7, wws_lines=224, wws_alpha=1.3,
        ),
        # ------ region 4: cache-friendly -------------------------------
        _p(
            name="bfs", region=4,
            description="breadth-first search; 1.1 MB frontier, very skewed writes",
            regs_per_thread=40, threads_per_block=256, compute_intensity=6.0,
            p_stream_read=0.16, p_stream_write=0.04, p_hot_read=0.46,
            p_wws_write=0.22, p_wws_read=0.06, p_local_read=0.04, p_local_write=0.02,
            hot_lines=9500, hot_alpha=0.6, wws_lines=160, wws_alpha=1.4,
        ),
        _p(
            name="pathfinder", region=4,
            description="dynamic programming; 750 KB hot set (crosses at C3)",
            regs_per_thread=38, threads_per_block=256, compute_intensity=8.0,
            p_stream_read=0.20, p_stream_write=0.05, p_hot_read=0.48,
            p_wws_write=0.15, p_wws_read=0.04, p_local_read=0.06, p_local_write=0.02,
            hot_lines=6000, hot_alpha=0.65, wws_lines=288, wws_alpha=1.1,
        ),
        _p(
            name="hotspot", region=4,
            description="thermal simulation; 1 MB hot set",
            regs_per_thread=40, threads_per_block=256, compute_intensity=8.0,
            p_stream_read=0.20, p_stream_write=0.04, p_hot_read=0.48,
            p_wws_write=0.16, p_wws_read=0.04, p_local_read=0.06, p_local_write=0.02,
            hot_lines=8000, hot_alpha=0.65, wws_lines=320, wws_alpha=1.1,
        ),
        _p(
            name="streamcluster", region=4,
            description="online clustering; 560 KB hot set, read-mostly, "
                        "near-zero writes (the paper's ~0% write case)",
            regs_per_thread=40, threads_per_block=256, compute_intensity=7.0,
            p_stream_read=0.26, p_stream_write=0.01, p_hot_read=0.62,
            p_wws_write=0.04, p_wws_read=0.02, p_local_read=0.04, p_local_write=0.01,
            hot_lines=4500, hot_alpha=0.7, wws_lines=128, burst_fraction=0.0,
        ),
    ]
}


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a profile by benchmark name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark {name!r}; choose from {sorted(PROFILES)}"
        ) from None
