"""Trace-driven GPU memory-hierarchy simulator with an analytical IPC model.

The cycle-level GPGPU-Sim of the paper is replaced by a two-layer model
(see DESIGN.md for the substitution argument):

1. **Hierarchy replay** — the workload trace runs through per-SM L1s (GPU
   write policies), the banked shared L2 (any :class:`L2Interface`
   implementation), the butterfly NoC and the DRAM channels.  This yields
   hit rates, per-request latencies (including bank occupancy by slow
   STT-RAM writes — the effect the LR part exists to absorb), energy, and
   DRAM traffic.

2. **Warp-level latency-hiding IPC model** — with ``W`` resident warps
   (occupancy from the register file: the C2/C3 lever) each issuing ``c``
   instructions per memory instruction against an average exposed read
   latency ``L``, SM issue utilization is ``min(1, W*c / (c + L))``.
   Throughput is additionally capped by DRAM line bandwidth and aggregate
   L2 bank service rate.  IPC is reported in thread instructions per cycle.

The model reproduces the paper's *comparisons* (speedups and power ratios
across L2 organizations), not absolute GPGPU-Sim numbers.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.cache.banked import BankedCache
from repro.config import GPUConfig
from repro.core.factory import build_l2
from repro.core.interface import L2Interface
from repro.core.twopart import TwoPartSTTL2
from repro.errors import SimulationError
from repro.gpu.dram import DRAMModel
from repro.gpu.interconnect import ButterflyNoC
from repro.gpu.l1 import GPUL1Cache
from repro.gpu.metrics import SimulationResult
from repro.gpu.occupancy import compute_occupancy
from repro.tracing import NULL_TRACER, TraceCollector
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Workload

#: L1 hit service latency (cycles); GPU L1s are not latency-optimized.
L1_HIT_CYCLES = 20.0

#: Cap on recorded bank queueing (multiples of the request's service time);
#: real GPUs throttle injection instead of queueing unboundedly.
BANK_WAIT_CAP_FACTOR = 50.0

#: A synthetic trace *samples* the full run: each record stands for this many
#: accesses of the real instruction stream.  Wall-clock-dependent state
#: (retention counters, refresh, rewrite intervals) therefore advances
#: ``TIME_DILATION``x faster per record than the queueing clocks, which see
#: the real per-record arrival rate.
TIME_DILATION = 10.0


class GPUSimulator:
    """One (workload, configuration) simulation."""

    def __init__(
        self,
        config: GPUConfig,
        workload: Workload,
        l2: Optional[L2Interface] = None,
        time_dilation: float = TIME_DILATION,
        start_time_s: float = 0.0,
        tracer: Optional[TraceCollector] = None,
        invariant_checker=None,
    ) -> None:
        if time_dilation <= 0:
            raise SimulationError("time dilation must be positive")
        if start_time_s < 0:
            raise SimulationError("start time must be non-negative")
        self.config = config
        self.workload = workload
        self.time_dilation = time_dilation
        self.start_time_s = start_time_s
        #: optional repro.faults.InvariantChecker; it observes the L2 on
        #: its own cadence and never mutates state, so attaching one
        #: leaves the SimulationResult byte-identical (tested)
        self.invariant_checker = invariant_checker
        #: trace collector shared by every instrumented component; the
        #: shared no-op collector when tracing is off (results identical)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: replay-clock time when run() finished (kernel chaining)
        self.end_time_s = start_time_s
        #: the last run()'s :func:`replay_counters` record
        self.counters: dict = {}
        # when chaining kernels over a shared L2, exclude energy spent
        # before this kernel from its power roll-up
        self._energy_baseline_j = l2.energy.total_j if l2 is not None else 0.0
        # a pre-built l2 keeps whatever tracer it was constructed with
        self.l2 = l2 if l2 is not None else build_l2(
            config.l2, tech=config.tech, tracer=tracer
        )
        self.l1s = [
            GPUL1Cache(config.l1, name=f"l1-sm{i}", tracer=self.tracer)
            for i in range(config.num_sms)
        ]
        self.banks = BankedCache(config.l2.num_banks, config.l2.line_size)
        self.noc = ButterflyNoC(
            num_sources=config.num_sms,
            num_destinations=config.l2.num_banks,
        )
        self.dram = DRAMModel(
            num_channels=config.num_mem_controllers,
            line_size=config.l2.line_size,
            base_latency_s=config.dram_latency_s,
            tracer=self.tracer,
        )
        if self.tracer.enabled:
            self.tracer.metadata.update({
                "workload": workload.name,
                "config": config.name,
                "time_dilation": time_dilation,
                "l2_clock": "dilated (L2/retention timestamps are "
                            "replay-clock seconds x time_dilation)",
            })

    def run(self) -> SimulationResult:
        """Replay the trace and roll up IPC and L2 power."""
        config = self.config
        kernel = self.workload.kernel
        cycle_s = 1.0 / config.core_clock_hz

        # merged memory-instruction inter-arrival: each of the SMs issues a
        # memory instruction every `c` cycles when running unstalled
        dt = kernel.compute_intensity * cycle_s / config.num_sms
        noc_rt_cycles = self.noc.round_trip_cycles(
            request_bytes=8, response_bytes=config.l2.line_size
        )

        tracer = self.tracer
        trace_on = tracer.enabled
        now = self.start_time_s
        reads = 0
        stall_sum_s = 0.0  # exposed memory stall over all memory instructions
        read_latency_sum_s = 0.0
        l2_requests = 0
        l2_service_sum_s = 0.0
        dram_writebacks = 0
        max_sm = config.num_sms

        # Per-request locals: bound methods and loop-invariant products,
        # hoisted out of the hot loop.  The products (L1-hit stall, NoC
        # round trip) are single fixed multiplications, so the summed floats
        # are bit-identical to per-iteration recomputation.
        l2_access = self.l2.access
        banks_schedule = self.banks.schedule
        dram = self.dram
        l1s = self.l1s
        time_dilation = self.time_dilation
        l1_hit_s = L1_HIT_CYCLES * cycle_s
        noc_rt_s = noc_rt_cycles * cycle_s
        checker = self.invariant_checker
        checker_hook = checker.after_access if checker is not None else None

        for sm, address, flag in self.workload.trace.rows():
            now += dt
            is_write = bool(flag & FLAG_WRITE)
            if sm >= max_sm:
                raise SimulationError(
                    f"trace SM id {sm} exceeds configured {max_sm} SMs"
                )
            if not is_write:
                reads += 1
                stall_sum_s += l1_hit_s
                read_latency_sum_s += l1_hit_s
            l1 = l1s[sm]
            requests = l1.access(address, is_write, bool(flag & FLAG_LOCAL), now)
            for request in requests:
                # the L2's clock (retention counters, refresh) runs on the
                # dilated timebase; queueing clocks stay on the real one
                result = l2_access(
                    request.address, request.is_write, now * time_dilation
                )
                result_latency = result.latency_s
                l2_requests += 1
                l2_service_sum_s += result_latency
                wait = banks_schedule(request.address, now, result_latency)
                wait_cap = BANK_WAIT_CAP_FACTOR * (
                    result_latency if result_latency >= cycle_s else cycle_s
                )
                if wait > wait_cap:
                    wait = wait_cap
                latency = wait + result_latency
                if result.dram_fetch:
                    latency += dram.access(request.address, False, now + latency)
                if result.dram_writebacks:
                    # write-backs leave the critical path; count the traffic
                    dram.write_back(result.dram_writebacks)
                    dram_writebacks += result.dram_writebacks
                if trace_on:
                    tracer.count("sim.l2_requests")
                    tracer.count(f"sim.l1_requests.{request.kind}")
                    tracer.observe("l2.service_latency_s", result_latency)
                    tracer.observe("l2.bank_wait_s", wait)
                    if result.dram_writebacks:
                        tracer.count("dram.writebacks", result.dram_writebacks)
                if request.kind == "fetch":
                    total_latency = latency + noc_rt_s
                    stall_sum_s += total_latency
                    read_latency_sum_s += total_latency
                    l1.complete_fetch(request.address, now + total_latency)
                elif request.kind == "write":
                    # a store retires once its L2 bank accepts it; queueing
                    # behind slow writes backpressures the SM (finite store
                    # buffering) — the STT-baseline's Achilles heel
                    stall_sum_s += wait + result_latency
            if checker_hook is not None:
                checker_hook(now * time_dilation)

        if checker is not None:
            checker.finalize(now * time_dilation)
        self.end_time_s = now
        return self._finish({
            "reads": reads,
            "stall_sum_s": stall_sum_s,
            "read_latency_sum_s": read_latency_sum_s,
            "l2_requests": l2_requests,
            "l2_service_sum_s": l2_service_sum_s,
            "dram_writebacks": dram_writebacks,
        })

    def _finish(self, sums) -> SimulationResult:
        """Record the run's counters and roll them up (every engine's tail)."""
        self.counters = replay_counters(
            self.l2, self.dram, self.l1s, sums, len(self.workload.trace),
            self._energy_baseline_j,
        )
        result = roll_up(
            self.config, self.workload, self.counters,
            tuple(self.banks.per_bank),
        )
        if self.tracer.enabled:
            # fold aggregate gauges into the trace so its counters reconcile
            # exactly with the SimulationResult fields (tested)
            tracer = self.tracer
            tracer.set_counter("l1.accesses", self.counters["l1_accesses"])
            tracer.set_counter("l1.hits", self.counters["l1_hits"])
            tracer.set_counter("l2.reads", result.l2_reads)
            tracer.set_counter("l2.writes", result.l2_writes)
            tracer.set_counter("dram.accesses_charged", result.dram_accesses)
            tracer.metadata["result"] = {
                "ipc": result.ipc,
                "utilization": result.utilization,
                "bound_by": result.bound_by,
                "sim_time_s": result.sim_time_s,
            }
        return result


#: Replay sums of an empty trace (an idle shard's), typed as the run loops
#: accumulate them: counts are ints, time sums are floats.
EMPTY_SUMS = {
    "reads": 0,
    "stall_sum_s": 0.0,
    "read_latency_sum_s": 0.0,
    "l2_requests": 0,
    "l2_service_sum_s": 0.0,
    "dram_writebacks": 0,
}


def replay_counters(
    l2: L2Interface,
    dram: DRAMModel,
    l1s,
    sums: Mapping[str, Any],
    accesses: int,
    energy_baseline_j: float,
) -> Dict[str, Any]:
    """The raw counters one replay leaves behind, as a JSON-safe record.

    ``sums`` are the run loop's accumulators (the keys of
    :data:`EMPTY_SUMS`); ``energy_baseline_j`` is the L2 energy already
    spent before this run (kernel chaining).  :func:`roll_up` turns a
    record into a :class:`SimulationResult`.  Records of disjoint
    sub-streams add up key by key into the record of their union, which
    is how the sharded engine merges its workers (:mod:`repro.shard.merge`).
    """
    stats = l2.stats
    twopart = None
    if isinstance(l2, TwoPartSTTL2):
        twopart = {
            "lr_data_writes": l2.lr_data_writes,
            "hr_data_writes": l2.hr_data_writes,
            "migrations_to_lr": l2.migrations_to_lr,
            "refresh_writes": l2.refresh_writes,
            "data_losses": l2.data_losses,
            "h2l_pushes": l2.hr_to_lr.stats.pushes,
            "h2l_overflows": l2.hr_to_lr.stats.overflows,
            "l2h_pushes": l2.lr_to_hr.stats.pushes,
            "l2h_overflows": l2.lr_to_hr.stats.overflows,
        }
    return {
        "accesses": accesses,
        "rollup": dict(sums),
        "l1_accesses": sum(l1.array.stats.accesses for l1 in l1s),
        "l1_hits": sum(l1.array.stats.hits for l1 in l1s),
        "l2": {
            "reads": stats.reads,
            "writes": stats.writes,
            "read_hits": stats.read_hits,
            "write_hits": stats.write_hits,
        },
        "dirty_lines": l2.dirty_lines(),
        "dram": {
            "reads": dram.stats.reads,
            "writes": dram.stats.writes,
            "row_hits": dram.stats.row_hits,
        },
        "energy": l2.energy.as_dict(),
        "energy_baseline_j": energy_baseline_j,
        "leakage_power_w": l2.leakage_power,
        "area_m2": l2.area,
        "twopart": twopart,
    }


def roll_up(
    config: GPUConfig,
    workload: Workload,
    counters: Mapping[str, Any],
    bank_stats: tuple,
) -> SimulationResult:
    """IPC, ``bound_by``, energy and power from a :func:`replay_counters` record.

    The one home of the latency-hiding utilization, the DRAM-bandwidth and
    L2-bank service-rate caps, and the L2 energy/power roll-up.
    """
    kernel = workload.kernel
    occupancy = compute_occupancy(kernel, config)
    cycle_s = 1.0 / config.core_clock_hz
    n_mem_insts = counters["accesses"]
    total_warp_insts = n_mem_insts * kernel.compute_intensity
    sums = counters["rollup"]
    reads = sums["reads"]
    l2_requests = sums["l2_requests"]

    avg_read_latency_cycles = (
        sums["read_latency_sum_s"] / max(1, reads) / cycle_s
        if reads else L1_HIT_CYCLES
    )
    avg_stall_cycles = sums["stall_sum_s"] / max(1, n_mem_insts) / cycle_s

    # --- latency-hiding issue utilization --------------------------
    c = kernel.compute_intensity
    w = occupancy.warps_per_sm
    utilization = min(1.0, w * c / (c + avg_stall_cycles))
    rate_latency = utilization * config.num_sms / cycle_s  # warp insts / s

    # --- bandwidth / service-rate caps ---------------------------------
    bound_by = "latency"
    rate = rate_latency
    dram = counters["dram"]
    dram_transfers = dram["reads"] + dram["writes"]
    # steady-state correction: dirty residents are deferred write-backs;
    # charge them to the DRAM traffic so a short trace doesn't credit a
    # large cache with write absorption it only postpones
    dram_accesses = dram_transfers + counters["dirty_lines"]
    if dram_accesses:
        per_inst = dram_accesses / total_warp_insts
        # aggregate line rate across all channels, from a model built as
        # the replay's own
        channels = DRAMModel(
            num_channels=config.num_mem_controllers,
            line_size=config.l2.line_size,
            base_latency_s=config.dram_latency_s,
        )
        line_rate = channels.num_channels / channels.service_time_s
        rate_dram = line_rate / per_inst
        if rate_dram < rate:
            rate, bound_by = rate_dram, "dram-bandwidth"
    if l2_requests:
        per_inst = l2_requests / total_warp_insts
        avg_service = sums["l2_service_sum_s"] / l2_requests
        bank_rate = config.l2.num_banks / max(avg_service, 1e-12)
        rate_l2 = bank_rate / per_inst
        if rate_l2 < rate:
            rate, bound_by = rate_l2, "l2-banks"

    ipc = config.warp_size * rate * cycle_s  # thread insts per core cycle
    sim_time_s = total_warp_insts / rate

    # --- L1 / L2 / energy roll-ups -------------------------------------
    l1_accesses = counters["l1_accesses"]
    l1_hit_rate = counters["l1_hits"] / l1_accesses if l1_accesses else 0.0
    l2 = counters["l2"]
    l2_accesses = l2["reads"] + l2["writes"]
    l2_hits = l2["read_hits"] + l2["write_hits"]
    energy = counters["energy"]
    dynamic_energy = energy["total_j"] - counters["energy_baseline_j"]
    dynamic_power = dynamic_energy / sim_time_s if sim_time_s > 0 else 0.0

    extras = {}
    twopart = counters["twopart"]
    if twopart is not None:
        data_writes = twopart["lr_data_writes"] + twopart["hr_data_writes"]
        overflows = twopart["h2l_overflows"] + twopart["l2h_overflows"]
        attempts = overflows + twopart["h2l_pushes"] + twopart["l2h_pushes"]
        extras = {
            "lr_write_share": (
                twopart["lr_data_writes"] / data_writes if data_writes else 0.0
            ),
            "migrations_to_lr": twopart["migrations_to_lr"],
            "refresh_writes": twopart["refresh_writes"],
            "data_losses": twopart["data_losses"],
            "buffer_overflow_rate": overflows / attempts if attempts else 0.0,
        }

    return SimulationResult(
        workload=workload.name,
        config=config.name,
        ipc=ipc,
        utilization=utilization,
        warps_per_sm=occupancy.warps_per_sm,
        occupancy_limiter=occupancy.limiter,
        bound_by=bound_by,
        sim_time_s=sim_time_s,
        total_warp_insts=total_warp_insts,
        avg_read_latency_cycles=avg_read_latency_cycles,
        l1_hit_rate=l1_hit_rate,
        l2_hit_rate=l2_hits / l2_accesses if l2_accesses else 0.0,
        l2_reads=l2["reads"],
        l2_writes=l2["writes"],
        l2_requests=l2_requests,
        dram_accesses=dram_accesses,
        dram_row_hit_rate=(
            dram["row_hits"] / dram_transfers if dram_transfers else 0.0
        ),
        dram_writebacks=sums["dram_writebacks"],
        l2_dynamic_energy_j=dynamic_energy,
        l2_dynamic_power_w=dynamic_power,
        l2_leakage_power_w=counters["leakage_power_w"],
        l2_area_m2=counters["area_m2"],
        energy_breakdown=dict(energy),
        bank_stats=bank_stats,
        **extras,
    )


def simulate(
    config: GPUConfig,
    workload: Workload,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Convenience wrapper: build the simulator and run it.

    ``engine`` selects the replay backend (``"object"``, ``"soa"`` or
    ``"sharded"``, see docs/engine.md and docs/sharding.md); ``None`` uses
    the registry default, which is the SoA engine whenever the run's
    feature set supports it (``sharded`` is opt-in only).
    """
    from repro.engine import make_simulator

    return make_simulator(config, workload, engine=engine).run()
