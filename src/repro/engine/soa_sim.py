"""Fused structure-of-arrays replay loop (the ``soa`` engine's simulator).

:class:`SoaGPUSimulator` subclasses
:class:`repro.gpu.simulator.GPUSimulator` and overrides only :meth:`run`:
the trace is decoded with NumPy per chunk of
:data:`~repro.workloads.trace.CHUNK_RECORDS` records (flags,
read-only-cache set groups, L1 tag/set/line splits), so replay memory does
not grow with the trace, and the per-record work — L1 write policies, MSHR
coalescing, deferred fills, read-only caches, the L2 serve paths, bank
scheduling and DRAM — is fused into one interpreter loop over flat per-SM
state vectors with zero per-access object allocation.  The L2 state lives
in the SoA model built by :func:`repro.core.factory.build_l2`
(``engine="soa"``); its demand paths and HR->LR migration (with the LR
victim's return to HR and the force-pops of full swap buffers) are
transcribed *inline* into one L2 block at the bottom of the loop.  The
block has no access-path retention expiry: the loop's clock only moves
forward, and the due sweep at each time refreshes or drops every line two
ticks before it would expire, so the object engine's check never fires
here.  A record queues the L2 requests it makes -- the write-backs of
its landed fills, then at most one request of its own -- and the block
serves them in that order, treating a uniform L2 as an HR part alone and
ending in one bank/DRAM/stall block.  The loop has no nested function, so
every name it touches is a plain local, and the only Python call an L2
request can make is a due refresh sweep (``maintenance``), flat code over
the same vectors and buffer deques.

Equivalence contract (docs/engine.md): every counter update, float
accumulation and state transition happens in the object engine's order, so
the :class:`~repro.gpu.metrics.SimulationResult` is byte-identical.  Two
bookkeeping liberties keep that true while staying fast:

* Scalar *integer* counters (cache stats, selector/monitor tallies, buffer
  and migration tallies, DRAM request counts) accumulate in loop locals
  and fold into the component objects after the loop -- integer addition
  commutes with the sweep's direct mutations of the same fields.
* *Float* accumulators (L2 demand/fill/migration energy, DRAM total wait)
  are order-sensitive; they live in loop locals and are written back to
  the owning objects after the loop.  The sweep adds only to the refresh
  energy, which the loop never holds, so the accumulation order is
  exactly the object engine's.

The one intentional divergence: *wear* counters that nothing reads are
not kept.  The L1 and read-only caches keep no per-line wear counters
(``set_writes``/``frame_writes``/``set_evictions``) or per-block
timestamps, and the flat L2 arrays keep no per-frame write or per-set
eviction counts (:class:`~repro.engine.soa_array.SoaCacheArray` has no
``per_frame_write_counts`` or ``per_set_eviction_counts``; endurance
analyses run on the object arrays).  Aggregate ``CacheStats``,
``L1Stats``, ``MSHRStats``, bank and DRAM counters are flushed back into
the real component objects at the end of the run.  L2 vectors, LRU
orders, buffer deques and the LR due queue are mutated in place; the swap
buffers' port times and peak occupancies fold back with the counters.

Not supported (the registry falls back to the object engine, see
``repro.engine._soa_blockers``): tracing, invariant checkers and
externally built L2s, which is how fault injection arrives.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import inf

import numpy as np

from repro.config import GPUConfig
from repro.core.factory import build_l2
from repro.engine.soa_l2 import SoaTwoPartL2
from repro.errors import SimulationError
from repro.gpu.metrics import SimulationResult
from repro.gpu.simulator import (
    BANK_WAIT_CAP_FACTOR,
    L1_HIT_CYCLES,
    TIME_DILATION,
    GPUSimulator,
)
from repro.workloads.trace import (
    FLAG_CONST,
    FLAG_LOCAL,
    FLAG_TEXTURE,
    FLAG_WRITE,
    Workload,
)


class SoaGPUSimulator(GPUSimulator):
    """One (workload, configuration) simulation on the fused SoA hot loop."""

    def __init__(
        self,
        config: GPUConfig,
        workload: Workload,
        time_dilation: float = TIME_DILATION,
        start_time_s: float = 0.0,
    ) -> None:
        """Build the SoA L2 and the standard component set around it.

        Narrower signature than :class:`GPUSimulator` on purpose: the
        features the extra parameters enable (tracers, checkers, pre-built
        L2s) are object-engine-only, and :func:`repro.engine.make_simulator`
        routes them there.
        """
        l2 = build_l2(config.l2, tech=config.tech, engine="soa")
        super().__init__(
            config,
            workload,
            l2=l2,
            time_dilation=time_dilation,
            start_time_s=start_time_s,
        )

    def run(self) -> SimulationResult:  # noqa: C901 - deliberately monolithic
        """Replay the trace on the fused loop and roll up IPC and L2 power."""
        # CPython numbers a function's locals in order of first appearance
        # and prefixes every access to local 256 or above with EXTENDED_ARG.
        # This function has more locals than that, so the loop's per-record
        # and per-request temporaries are bound first and setup binds only
        # what the loop reads; names bound on rare paths or in the fold
        # after the loop take the high numbers.
        sm = is_write = is_local = group = line = tag = set_index = None
        reqs = pend_sm = entry = ready = pending_line = new_min = None
        landed = mshr_sm = slot = t2w = way = order = base = None
        candidate = slot_index = fill_way = fill_tag = fill_no = None
        fill_set = fill_dirty = evicted_line = dirty_intent = kind = None
        raddr = l2_write = now2 = lineno = wb_total = dram_fetch = None
        part = index = last = written = first_hit = None
        hr_tag = hr_index = hr_way = hr_slot = None
        tag_latency = energy = latency = tag_map = initial = None
        fway = fslot = evicted_dirty = bank = busy = start = wait = None
        wait_cap = total = t_req = channel = row = None
        d_lat = d_start = d_wait = None
        S = self.config.num_sms
        self._check_sm_ids()
        cycle_s = 1.0 / self.config.core_clock_hz
        dt = self.workload.kernel.compute_intensity * cycle_s / S
        l1_hit_s = L1_HIT_CYCLES * cycle_s
        noc_rt_s = self.noc.round_trip_cycles(
            request_bytes=8, response_bytes=self.config.l2.line_size
        ) * cycle_s
        wait_cap_factor = BANK_WAIT_CAP_FACTOR
        time_dilation = self.time_dilation

        l1 = self.l1s[0]
        l1_off = l1.array.mapper.offset_bits
        l1_pow2 = l1.array.mapper.pow2_sets
        l1_bits = l1.array.mapper._set_bits
        l1_mask = l1.array.mapper._set_mask
        l1_nsets = l1.array.num_sets
        l1_assoc = l1.array.associativity

        # --- flat per-SM state -------------------------------------------
        l1_tags = [-1] * (S * l1_nsets * l1_assoc)
        l1_valid = [False] * len(l1_tags)
        l1_dirty = [False] * len(l1_tags)
        l1_t2w = [dict() for _ in range(S * l1_nsets)]
        # built without a comprehension, which would make l1_assoc a cell
        l1_lru = list(map(list, repeat(range(l1_assoc), S * l1_nsets)))
        pend = [dict() for _ in range(S)]      # line -> [ready, fill_dirty]
        min_ready = [inf] * S
        mshr_map = [dict() for _ in range(S)]  # line -> merged count
        mshr_entries = l1.mshr.num_entries
        mshr_max_merged = l1.mshr.max_merged

        # per-SM counters, flushed into the component objects at the end
        ar_reads = [0] * S; ar_writes = [0] * S
        ar_rh = [0] * S; ar_wh = [0] * S
        ar_fills = [0] * S; ar_evc = [0] * S; ar_evd = [0] * S
        ar_inv = [0] * S
        g_gr = [0] * S; g_gw = [0] * S; g_lr = [0] * S; g_lw = [0] * S
        g_wev = [0] * S; g_lwb = [0] * S; g_coal = [0] * S; g_stall = [0] * S
        m_alloc = [0] * S; m_coal = [0] * S; m_stall = [0] * S; m_comp = [0] * S

        # read-only state and counters, one entry per set group (none
        # without read-only records): line -> way maps, resident line per
        # way, LRU orders (LRU first)
        ro_resident = [[-1] * assoc for assoc in self._read_only_ways()]
        ro_ways = [dict() for _ in ro_resident]
        ro_lru = [list(range(len(ways))) for ways in ro_resident]
        ro_hits = [0] * len(ro_resident)
        ro_fills = [0] * len(ro_resident)
        ro_evictions = [0] * len(ro_resident)

        # --- shared-component locals -------------------------------------
        bank_busy = self.banks._busy_until
        bank_shift = self.banks._line_shift
        bank_mask = self.banks._bank_mask
        bank_req = 0
        bank_conf = 0
        bank_wait_sum = 0.0
        # per-bank accumulators; the scalar aggregates above are kept
        # separate so the aggregate float fold order matches the object
        # engine exactly
        bankv_req = [0] * self.banks.num_banks
        bankv_conf = [0] * self.banks.num_banks
        bankv_wait = [0.0] * self.banks.num_banks

        # the DRAM read path is inline: BankedCache rejects a line size
        # that is not a power of two, so channels are line-interleaved
        dram_busy = self.dram._busy_until
        dram_busy_s = self.dram._busy_s
        dram_open = self.dram._open_row
        dram_line_shift = self.dram._line_shift
        dram_channels = self.dram.num_channels
        dram_row_size = self.dram.row_size
        dram_service = self.dram.service_time_s
        dram_base_lat = self.dram.base_latency_s
        dram_rowhit_lat = self.dram.row_hit_latency_s
        dram_max_wait = self.dram.max_wait_s
        n_dram_r = n_dram_rh = n_dram_w = 0
        dram_wait_s = self.dram.stats.total_wait_s

        now = self.start_time_s
        reads = 0
        stall_sum_s = 0.0
        read_latency_sum_s = 0.0
        l2_requests = 0
        l2_service_sum_s = 0.0
        dram_writebacks = 0

        l2 = self.l2
        demand_j = l2._energy.demand_j
        fill_j = l2._energy.fill_j
        # A uniform L2 is served as an HR part alone: its array binds to the
        # HR names, its whole-access hit energies and latencies to the HR
        # data ones, its lines never expire and its writes never migrate.
        twopart = isinstance(l2, SoaTwoPartL2)
        if twopart:
            hr = l2.hr_array
            hr_w_en = l2._hr_w_en; hr_r_en = l2._hr_r_en
            hr_w_lat = l2._hr_w_lat; hr_r_lat = l2._hr_r_lat
            hr_fill_en = l2.hr_model.fill_energy
            threshold = l2._threshold
            lr = l2.lr_array
            lr_t2w = lr.tag_to_way; lr_lru_v = lr.lru
            lr_tags_v = lr.tag_vec; lr_valid_v = lr.valid_vec
            lr_dirty_v = lr.dirty_vec; lr_wc = lr.write_count_vec
            lr_tw = lr.total_writes_vec; lr_tr = lr.total_reads_vec
            lr_lwt = lr.last_write_time_vec; lr_lat_v = lr.last_access_time_vec
            lr_ins = lr.insert_time_vec
            lr_setw = lr.set_writes_vec
            lr_pow2 = l2._lr_pow2; lr_bits = l2._lr_bits
            lr_smask = l2._lr_mask; lr_nsets = l2._lr_nsets
            lr_assoc = l2._lr_assoc
            lr_w_en = l2._lr_w_en; lr_r_en = l2._lr_r_en
            lr_w_lat = l2._lr_w_lat; lr_r_lat = l2._lr_r_lat
            # an SRAM LR part never expires and queues no due stamps
            lr_queued = l2._lr_ret is not None
            tag_lat1 = l2._hr_tag_access_latency
            tag_lat2 = 2 * l2._hr_tag_access_latency
            pe_r1 = l2._probe_energy_table[False][1]
            pe_r2 = l2._probe_energy_table[False][2]
            pe_w1 = l2._probe_energy_table[True][1]
            pe_w2 = l2._probe_energy_table[True][2]
            sequential = l2._sequential
            # a migration reads the line out of HR and writes it into LR
            mig_en = hr_r_en + lr_w_en
            migration_j = l2._energy.migration_j
            eng = l2.refresh_engine
            # bound here, when run() starts: bench/layers.py wraps it then
            l2_maint = l2.maintenance
            next_lr = eng._next_lr_scan
            next_hr = eng._next_hr_scan
            next_scan = next_lr if next_lr < next_hr else next_hr
            # the loop's clock only moves forward, so it appends LR stamps
            # to the due queue
            l2._check_due_before(self.start_time_s * time_dilation)
            due_push = l2._lr_due.append
            h2l_entries = l2.hr_to_lr._entries
            h2l_stats = l2.hr_to_lr.stats
            h2l_pop = h2l_entries.popleft
            h2l_cap = l2.hr_to_lr.capacity_lines
            h2l_service = l2.hr_to_lr.drain_service_time
            h2l_free = l2.hr_to_lr._port_free_at
            h2l_peak = h2l_stats.peak_occupancy
            l2h_entries = l2.lr_to_hr._entries
            l2h_stats = l2.lr_to_hr.stats
            l2h_pop = l2h_entries.popleft
            l2h_cap = l2.lr_to_hr.capacity_lines
            l2h_service = l2.lr_to_hr.drain_service_time
            l2h_free = l2.lr_to_hr._port_free_at
            l2h_peak = l2h_stats.peak_occupancy
        else:
            hr = l2.array
            hr_w_en = l2._write_hit_energy; hr_r_en = l2._read_hit_energy
            hr_w_lat = l2._write_latency; hr_r_lat = l2._read_latency
            hr_fill_en = l2._fill_energy
            threshold = inf
            probe_en = l2._tag_probe_energy
        hr_t2w = hr.tag_to_way; hr_lru_v = hr.lru
        hr_tags_v = hr.tag_vec; hr_valid_v = hr.valid_vec
        hr_dirty_v = hr.dirty_vec; hr_wc = hr.write_count_vec
        hr_tw = hr.total_writes_vec; hr_tr = hr.total_reads_vec
        hr_lwt = hr.last_write_time_vec; hr_lat_v = hr.last_access_time_vec
        hr_ins = hr.insert_time_vec
        hr_setw = hr.set_writes_vec
        off2 = hr._offset_bits  # both parts share the line size
        hr_pow2 = hr._pow2; hr_bits = hr._set_bits
        hr_smask = hr._set_mask; hr_nsets = hr.num_sets
        hr_assoc = hr.associativity
        hr_sat = hr.write_counter_saturation
        # scalar counter accumulators (see the module docstring)
        n_sel_acc = n_sel_first = n_sel_second = 0
        n_lr_w = n_lr_wh = n_lr_r = n_lr_rh = 0
        n_lr_evd = n_lr_fill = 0
        n_hr_r = n_hr_rh = n_hr_w = n_hr_wh = 0
        n_hr_evd = n_hr_evc = n_hr_fill = 0
        n_mon_w = n_mon_mig = 0
        n_lr_dw = n_hr_dw = n_wb_tot = 0
        n_to_lr = n_to_hr = 0
        n_h2l_push = n_h2l_over = n_l2h_push = n_l2h_over = 0

        # --- the fused replay loop ---------------------------------------
        # A record first runs its read-only or L1 step, which queues the L2
        # requests it makes in ``reqs``: the write-backs of landed fills,
        # then at most one request of its own (0 fetch, 1 write, 2 wb).
        # The L2 block at the bottom serves them in that order.
        for sm, is_write, is_local, group, line, tag, set_index in (
            chain.from_iterable(self._decoded_chunks())
        ):
            now += dt
            if not is_write:
                reads += 1
                stall_sum_s += l1_hit_s
                read_latency_sum_s += l1_hit_s

            if group >= 0:
                # ---- read-only (const/texture) cache --------------------
                ways = ro_ways[group]
                way = ways.get(line)
                order = ro_lru[group]
                if way is not None:
                    ro_hits[group] += 1
                    order.remove(way)
                    order.append(way)
                    continue
                resident = ro_resident[group]
                # read-only lines are never invalidated, so the valid ways
                # are always ways 0 .. len(ways) - 1
                if len(ways) < len(resident):
                    way = len(ways)
                else:
                    way = order[0]
                    del ways[resident[way]]
                    ro_evictions[group] += 1  # never dirty: silent
                resident[way] = line
                ways[line] = way
                order.remove(way)
                order.append(way)
                ro_fills[group] += 1
                reqs = ((0, line),)
            else:
                # ---- L1 data cache --------------------------------------
                pend_sm = pend[sm]
                reqs = None
                # deferred fills whose fetch landed install first; their
                # dirty evictions queue as L2 write-backs, in landed order
                if pend_sm and now >= min_ready[sm]:
                    landed = []
                    new_min = inf
                    for pending_line, entry in pend_sm.items():
                        ready = entry[0]
                        if ready is None:
                            continue
                        if ready <= now:
                            landed.append(pending_line)
                        elif ready < new_min:
                            new_min = ready
                    min_ready[sm] = new_min
                    mshr_sm = mshr_map[sm]
                    for pending_line in landed:
                        fill_dirty = pend_sm.pop(pending_line)[1]
                        fill_no = pending_line >> l1_off
                        if l1_pow2:
                            fill_tag = fill_no >> l1_bits
                            fill_set = fill_no & l1_mask
                        else:
                            fill_tag, fill_set = divmod(fill_no, l1_nsets)
                        slot = sm * l1_nsets + fill_set
                        t2w = l1_t2w[slot]
                        fill_way = t2w.get(fill_tag)
                        evicted_line = -1
                        if fill_way is not None:
                            # already present: OR in the dirty intent, touch
                            if fill_dirty:
                                l1_dirty[slot * l1_assoc + fill_way] = True
                            order = l1_lru[slot]
                            order.remove(fill_way)
                            order.append(fill_way)
                        else:
                            base = slot * l1_assoc
                            fill_way = -1
                            for candidate in range(l1_assoc):
                                if not l1_valid[base + candidate]:
                                    fill_way = candidate
                                    break
                            if fill_way < 0:
                                fill_way = l1_lru[slot][0]
                            slot_index = base + fill_way
                            if l1_valid[slot_index]:
                                victim_tag = l1_tags[slot_index]
                                if l1_dirty[slot_index]:
                                    ar_evd[sm] += 1
                                    if l1_pow2:
                                        victim_no = (
                                            (victim_tag << l1_bits) | fill_set
                                        )
                                    else:
                                        victim_no = (
                                            victim_tag * l1_nsets + fill_set
                                        )
                                    evicted_line = victim_no << l1_off
                                else:
                                    ar_evc[sm] += 1
                                del t2w[victim_tag]
                            l1_tags[slot_index] = fill_tag
                            l1_valid[slot_index] = True
                            l1_dirty[slot_index] = fill_dirty
                            t2w[fill_tag] = fill_way
                            order = l1_lru[slot]
                            order.remove(fill_way)
                            order.append(fill_way)
                            ar_fills[sm] += 1
                        if mshr_sm.pop(pending_line, None) is None:
                            raise SimulationError(
                                "completing a fetch that was never "
                                f"registered: {pending_line:#x}"
                            )
                        m_comp[sm] += 1
                        if evicted_line >= 0:
                            g_lwb[sm] += 1
                            if reqs is None:
                                reqs = []
                            reqs.append((2, evicted_line))

                slot = sm * l1_nsets + set_index
                t2w = l1_t2w[slot]
                if is_local:
                    # conventional write-back/write-allocate for local data
                    if is_write:
                        g_lw[sm] += 1
                        ar_writes[sm] += 1
                    else:
                        g_lr[sm] += 1
                        ar_reads[sm] += 1
                    way = t2w.get(tag)
                    if way is not None:
                        if is_write:
                            ar_wh[sm] += 1
                            l1_dirty[slot * l1_assoc + way] = True
                        else:
                            ar_rh[sm] += 1
                        order = l1_lru[slot]
                        order.remove(way)
                        order.append(way)
                        if reqs is None:
                            continue
                        kind = -1
                    else:
                        kind = 0
                        dirty_intent = is_write
                elif is_write:
                    # global store: write-evict on hit, write-no-allocate
                    g_gw[sm] += 1
                    ar_writes[sm] += 1
                    way = t2w.get(tag)
                    if way is not None:
                        ar_wh[sm] += 1
                        slot_index = slot * l1_assoc + way
                        del t2w[tag]
                        l1_tags[slot_index] = -1
                        l1_valid[slot_index] = False
                        l1_dirty[slot_index] = False
                        ar_inv[sm] += 1
                        g_wev[sm] += 1
                    elif line in pend_sm:
                        # the store supersedes an in-flight fetch: cancel it
                        del pend_sm[line]
                        if mshr_map[sm].pop(line, None) is None:
                            raise SimulationError(
                                "completing a fetch that was never "
                                f"registered: {line:#x}"
                            )
                        m_comp[sm] += 1
                    kind = 1
                else:
                    # global read: allocate-on-miss through the MSHRs
                    g_gr[sm] += 1
                    ar_reads[sm] += 1
                    way = t2w.get(tag)
                    if way is not None:
                        ar_rh[sm] += 1
                        order = l1_lru[slot]
                        order.remove(way)
                        order.append(way)
                        if reqs is None:
                            continue
                        kind = -1
                    else:
                        kind = 0
                        dirty_intent = False

                if kind == 0:
                    # shared read/local miss path: register in the MSHR file
                    mshr_sm = mshr_map[sm]
                    entry = pend_sm.get(line)
                    if entry is not None:
                        # secondary miss to an in-flight line: coalesce
                        merged = mshr_sm.get(line)
                        if merged is None:
                            raise SimulationError(
                                "coalescing onto a fetch that was never "
                                f"registered: {line:#x}"
                            )
                        if merged >= mshr_max_merged:
                            m_stall[sm] += 1
                        else:
                            mshr_sm[line] = merged + 1
                            m_coal[sm] += 1
                        if dirty_intent:
                            entry[1] = True
                        g_coal[sm] += 1
                        # the line is already on its way: no request
                        if reqs is None:
                            continue
                        kind = -1
                    elif len(mshr_sm) >= mshr_entries:
                        # MSHRs full: uncached non-allocating fetch
                        m_stall[sm] += 1
                        g_stall[sm] += 1
                    else:
                        mshr_sm[line] = 1
                        m_alloc[sm] += 1
                        pend_sm[line] = [None, dirty_intent]
                if reqs is None:
                    reqs = ((kind, line),)
                elif kind >= 0:
                    reqs.append((kind, line))

            # ---- the L2: each queued request end to end -----------------
            # An inline transcription of SoaTwoPartL2.access with
            # _serve_miss and _migrate_and_write unrolled into it, which also
            # serves a uniform L2 (UniformL2.access) through the HR names;
            # only the two-part L2's buffer drains, due sweeps, LR probe
            # and search-selector accounting are skipped for it.  The
            # bank/DRAM/stall block after it is the object replay loop's.
            for kind, raddr in reqs:
                l2_write = kind != 0
                now2 = now * time_dilation
                lineno = raddr >> off2
                wb_total = 0
                dram_fetch = False
                part = 0  # 0 miss, 1 lr, 2 hr
                if twopart:
                    # maintenance: inline buffer drains; delegate due sweeps
                    if now2 >= next_scan:
                        wb_total = l2_maint(now2)
                        next_lr = eng._next_lr_scan
                        next_hr = eng._next_hr_scan
                        next_scan = next_lr if next_lr < next_hr else next_hr
                    else:
                        if h2l_entries and h2l_entries[0][2] <= now2:
                            while h2l_entries and h2l_entries[0][2] <= now2:
                                h2l_pop()
                                h2l_stats.drains += 1
                        if l2h_entries and l2h_entries[0][2] <= now2:
                            while l2h_entries and l2h_entries[0][2] <= now2:
                                l2h_pop()
                                l2h_stats.drains += 1
                    # locate in LR.  The object engine's access-path
                    # retention expiry is left out: the clock only moves
                    # forward, and the due sweep at this time has already
                    # refreshed or dropped every line two ticks before it
                    # would expire.
                    if lr_pow2:
                        tag = lineno >> lr_bits
                        index = lineno & lr_smask
                    else:
                        tag, index = divmod(lineno, lr_nsets)
                    way = lr_t2w[index].get(tag)
                    if way is not None:
                        slot = index * lr_assoc + way
                        part = 1
                if not part:
                    # locate in HR (no expiry check, as for LR)
                    if hr_pow2:
                        hr_tag = lineno >> hr_bits
                        hr_index = lineno & hr_smask
                    else:
                        hr_tag, hr_index = divmod(lineno, hr_nsets)
                    hr_way = hr_t2w[hr_index].get(hr_tag)
                    if hr_way is not None:
                        hr_slot = hr_index * hr_assoc + hr_way
                        part = 2
                if twopart:
                    # search-selector accounting (sequential or parallel)
                    n_sel_acc += 1
                    first_hit = part == (1 if l2_write else 2)
                    if not sequential:
                        if first_hit:
                            n_sel_first += 1
                        n_sel_second += 1
                        tag_latency = tag_lat1
                        energy = pe_w2 if l2_write else pe_r2
                    elif first_hit:
                        n_sel_first += 1
                        tag_latency = tag_lat1
                        energy = pe_w1 if l2_write else pe_r1
                    else:
                        n_sel_second += 1
                        tag_latency = tag_lat2
                        energy = pe_w2 if l2_write else pe_r2
                else:
                    # a uniform hit's energy and latency are whole; a miss
                    # costs the tag probe and the read latency
                    tag_latency = 0.0
                    energy = 0.0 if part else probe_en
                # serve
                if part == 1:
                    if l2_write:
                        n_lr_w += 1
                        n_lr_wh += 1
                        lr_dirty_v[slot] = True
                        lr_tw[slot] += 1
                        lr_wc[slot] += 1  # LR array never saturates
                        lr_lwt[slot] = now2
                        lr_lat_v[slot] = now2
                        if lr_queued:
                            due_push((now2, slot))
                        lr_setw[index] += 1
                        order = lr_lru_v[index]
                        order.remove(way)
                        order.append(way)
                        energy += lr_w_en
                        latency = tag_latency + lr_w_lat
                        n_lr_dw += 1
                    else:
                        n_lr_r += 1
                        n_lr_rh += 1
                        lr_tr[slot] += 1
                        lr_lat_v[slot] = now2
                        order = lr_lru_v[index]
                        order.remove(way)
                        order.append(way)
                        energy += lr_r_en
                        latency = tag_latency + lr_r_lat
                    demand_j += energy
                elif part == 2:
                    if not l2_write:
                        n_hr_r += 1
                        n_hr_rh += 1
                        hr_tr[hr_slot] += 1
                        hr_lat_v[hr_slot] = now2
                        order = hr_lru_v[hr_index]
                        order.remove(hr_way)
                        order.append(hr_way)
                        energy += hr_r_en
                        latency = tag_latency + hr_r_lat
                        demand_j += energy
                    elif hr_wc[hr_slot] < threshold:
                        n_mon_w += 1
                        n_hr_w += 1
                        n_hr_wh += 1
                        hr_dirty_v[hr_slot] = True
                        hr_tw[hr_slot] += 1
                        if hr_sat <= 0 or hr_wc[hr_slot] < hr_sat:
                            hr_wc[hr_slot] += 1
                        hr_lwt[hr_slot] = now2
                        hr_lat_v[hr_slot] = now2
                        hr_setw[hr_index] += 1
                        order = hr_lru_v[hr_index]
                        order.remove(hr_way)
                        order.append(hr_way)
                        energy += hr_w_en
                        latency = tag_latency + hr_w_lat
                        n_hr_dw += 1
                        demand_j += energy
                    else:
                        # ---- migration: SoaTwoPartL2._migrate_and_write --
                        n_mon_w += 1
                        n_mon_mig += 1
                        # HR demand write hit, then extract: the extract
                        # zeroes every per-line field the hit sets
                        n_hr_w += 1
                        n_hr_wh += 1
                        hr_setw[hr_index] += 1
                        order = hr_lru_v[hr_index]
                        order.remove(hr_way)
                        order.append(hr_way)
                        del hr_t2w[hr_index][hr_tag]
                        hr_tags_v[hr_slot] = -1
                        hr_valid_v[hr_slot] = False
                        hr_dirty_v[hr_slot] = False
                        hr_wc[hr_slot] = 0
                        hr_tw[hr_slot] = 0
                        hr_tr[hr_slot] = 0
                        hr_lwt[hr_slot] = 0.0
                        hr_lat_v[hr_slot] = 0.0
                        hr_ins[hr_slot] = 0.0
                        # HR->LR push; a full buffer forces its oldest out
                        if len(h2l_entries) >= h2l_cap:
                            n_h2l_over += 1
                            if h2l_pop()[1]:
                                wb_total += 1
                                n_wb_tot += 1
                        if now2 > h2l_free:
                            h2l_free = now2
                        h2l_free += h2l_service
                        h2l_entries.append((lineno << off2, True, h2l_free))
                        n_h2l_push += 1
                        if len(h2l_entries) > h2l_peak:
                            h2l_peak = len(h2l_entries)
                        n_to_lr += 1
                        # dirty LR fill into the victim way (the locate
                        # left the LR set and tag; LR holds no copy)
                        base = index * lr_assoc
                        for way in range(lr_assoc):
                            if not lr_valid_v[base + way]:
                                break
                        else:
                            way = lr_lru_v[index][0]
                        slot = base + way
                        tag_map = lr_t2w[index]
                        evicted = lr_valid_v[slot]
                        if evicted:
                            # every LR line is dirty: its only way in is
                            # a migrating write
                            victim_tag = lr_tags_v[slot]
                            n_lr_evd += 1
                            del tag_map[victim_tag]
                        lr_tags_v[slot] = tag
                        lr_valid_v[slot] = True
                        lr_dirty_v[slot] = True
                        lr_wc[slot] = 1
                        lr_tw[slot] = 1
                        lr_tr[slot] = 0
                        lr_lwt[slot] = now2
                        lr_lat_v[slot] = now2
                        lr_ins[slot] = now2
                        if lr_queued:
                            due_push((now2, slot))
                        tag_map[tag] = way
                        order = lr_lru_v[index]
                        order.remove(way)
                        order.append(way)
                        lr_setw[index] += 1
                        n_lr_fill += 1
                        n_lr_dw += 1
                        if evicted:
                            # the LR victim returns to HR through the
                            # LR->HR buffer
                            if lr_pow2:
                                victim_no = (victim_tag << lr_bits) | index
                            else:
                                victim_no = victim_tag * lr_nsets + index
                            migration_j += lr_r_en
                            if len(l2h_entries) >= l2h_cap:
                                n_l2h_over += 1
                                if l2h_pop()[1]:
                                    wb_total += 1
                                    n_wb_tot += 1
                            if now2 > l2h_free:
                                l2h_free = now2
                            l2h_free += l2h_service
                            l2h_entries.append((victim_no << off2, True, l2h_free))
                            n_l2h_push += 1
                            if len(l2h_entries) > l2h_peak:
                                l2h_peak = len(l2h_entries)
                            n_to_hr += 1
                            # dirty HR fill into the victim way (the parts
                            # are exclusive: HR holds no copy of the line)
                            if hr_pow2:
                                hr_tag = victim_no >> hr_bits
                                hr_index = victim_no & hr_smask
                            else:
                                hr_tag, hr_index = divmod(victim_no, hr_nsets)
                            base = hr_index * hr_assoc
                            tag_map = hr_t2w[hr_index]
                            for hr_way in range(hr_assoc):
                                if not hr_valid_v[base + hr_way]:
                                    break
                            else:
                                hr_way = hr_lru_v[hr_index][0]
                            hr_slot = base + hr_way
                            if hr_valid_v[hr_slot]:
                                if hr_dirty_v[hr_slot]:
                                    n_hr_evd += 1
                                    wb_total += 1
                                    n_wb_tot += 1
                                else:
                                    n_hr_evc += 1
                                del tag_map[hr_tags_v[hr_slot]]
                            hr_tags_v[hr_slot] = hr_tag
                            hr_valid_v[hr_slot] = True
                            hr_dirty_v[hr_slot] = True
                            hr_wc[hr_slot] = 1
                            hr_tw[hr_slot] = 1
                            hr_tr[hr_slot] = 0
                            hr_lwt[hr_slot] = now2
                            hr_lat_v[hr_slot] = now2
                            hr_ins[hr_slot] = now2
                            tag_map[hr_tag] = hr_way
                            hr_setw[hr_index] += 1
                            n_hr_fill += 1
                            order = hr_lru_v[hr_index]
                            order.remove(hr_way)
                            order.append(hr_way)
                            migration_j += hr_w_en
                            n_hr_dw += 1
                        demand_j += energy
                        migration_j += mig_en
                        latency = tag_latency + lr_w_lat
                else:
                    # miss: the HR array's demand access and victim fill
                    # (the line is absent from both parts: always a fill)
                    if l2_write:
                        n_hr_w += 1
                    else:
                        n_hr_r += 1
                    base = hr_index * hr_assoc
                    fway = -1
                    for candidate in range(hr_assoc):
                        if not hr_valid_v[base + candidate]:
                            fway = candidate
                            break
                    if fway < 0:
                        fway = hr_lru_v[hr_index][0]
                    fslot = base + fway
                    tag_map = hr_t2w[hr_index]
                    evicted_dirty = False
                    if hr_valid_v[fslot]:
                        evicted_dirty = hr_dirty_v[fslot]
                        if evicted_dirty:
                            n_hr_evd += 1
                        else:
                            n_hr_evc += 1
                        del tag_map[hr_tags_v[fslot]]
                    hr_tags_v[fslot] = hr_tag
                    hr_valid_v[fslot] = True
                    hr_dirty_v[fslot] = l2_write
                    initial = 1 if l2_write else 0
                    hr_wc[fslot] = initial
                    hr_tw[fslot] = initial
                    hr_tr[fslot] = 0
                    hr_lwt[fslot] = now2 if l2_write else 0.0
                    hr_lat_v[fslot] = now2
                    hr_ins[fslot] = now2
                    tag_map[hr_tag] = fway
                    order = hr_lru_v[hr_index]
                    order.remove(fway)
                    order.append(fway)
                    if l2_write:
                        hr_setw[hr_index] += 1
                    n_hr_fill += 1
                    n_hr_dw += 1
                    if evicted_dirty:
                        wb_total += 1
                        n_wb_tot += 1
                    demand_j += energy
                    fill_j += hr_fill_en
                    latency = tag_latency + hr_r_lat
                    dram_fetch = True
                # bank + DRAM + stall accounting (the object replay loop's
                # per-request block)
                l2_requests += 1
                l2_service_sum_s += latency
                bank = (raddr >> bank_shift) & bank_mask
                busy = bank_busy[bank]
                start = busy if busy > now else now
                wait = start - now
                bank_busy[bank] = start + latency
                bank_req += 1
                bankv_req[bank] += 1
                if wait > 0:
                    bank_conf += 1
                    bank_wait_sum += wait
                    bankv_conf[bank] += 1
                    bankv_wait[bank] += wait
                wait_cap = wait_cap_factor * (
                    latency if latency >= cycle_s else cycle_s
                )
                if wait > wait_cap:
                    wait = wait_cap
                total = wait + latency
                if dram_fetch:
                    t_req = now + total
                    channel = (raddr >> dram_line_shift) % dram_channels
                    row = raddr // dram_row_size
                    n_dram_r += 1
                    if dram_open[channel] == row:
                        n_dram_rh += 1
                        d_lat = dram_rowhit_lat
                    else:
                        d_lat = dram_base_lat
                        dram_open[channel] = row
                    busy = dram_busy[channel]
                    d_start = busy if busy > t_req else t_req
                    d_wait = d_start - t_req
                    if d_wait > dram_max_wait:
                        d_wait = dram_max_wait
                    dram_busy[channel] = d_start + dram_service
                    dram_busy_s[channel] += dram_service
                    dram_wait_s += d_wait
                    total += d_wait + d_lat
                if wb_total:
                    n_dram_w += wb_total
                    dram_writebacks += wb_total
                if kind == 0:
                    total += noc_rt_s
                    stall_sum_s += total
                    read_latency_sum_s += total
                    entry = pend[sm].get(raddr)
                    if entry is not None and entry[0] is None:
                        ready = now + total
                        entry[0] = ready
                        if ready < min_ready[sm]:
                            min_ready[sm] = ready
                elif kind == 1:
                    stall_sum_s += wait + latency

        # --- flush local state back into the component objects ------------
        self.end_time_s = now
        hr_stats = hr.stats
        hr_stats.reads += n_hr_r
        hr_stats.read_hits += n_hr_rh
        hr_stats.writes += n_hr_w
        hr_stats.write_hits += n_hr_wh
        hr_stats.evictions_dirty += n_hr_evd
        hr_stats.evictions_clean += n_hr_evc
        hr_stats.fills += n_hr_fill
        led = l2._energy
        if twopart:
            sel = l2._sel_stats
            sel.accesses += n_sel_acc
            sel.first_probe_hits += n_sel_first
            sel.second_probes += n_sel_second
            lr_stats = lr.stats
            lr_stats.writes += n_lr_w
            lr_stats.write_hits += n_lr_wh
            lr_stats.reads += n_lr_r
            lr_stats.read_hits += n_lr_rh
            lr_stats.evictions_dirty += n_lr_evd
            lr_stats.fills += n_lr_fill
            l2._mon_stats.writes_observed += n_mon_w
            l2._mon_stats.migrations_triggered += n_mon_mig
            l2.lr_data_writes += n_lr_dw
            l2.hr_data_writes += n_hr_dw
            l2.dram_writebacks_total += n_wb_tot
            l2.migrations_to_lr += n_to_lr
            l2.returns_to_hr += n_to_hr
            h2l_stats.pushes += n_h2l_push
            h2l_stats.overflows += n_h2l_over
            h2l_stats.peak_occupancy = h2l_peak
            l2.hr_to_lr._port_free_at = h2l_free
            l2h_stats.pushes += n_l2h_push
            l2h_stats.overflows += n_l2h_over
            l2h_stats.peak_occupancy = l2h_peak
            l2.lr_to_hr._port_free_at = l2h_free
            led.migration_j = migration_j
        else:
            l2.data_writes += n_hr_dw
        led.demand_j = demand_j
        led.fill_j = fill_j
        dram_stats = self.dram.stats
        dram_stats.reads += n_dram_r
        dram_stats.row_hits += n_dram_rh
        dram_stats.writes += n_dram_w
        dram_stats.total_wait_s = dram_wait_s
        bank_stats = self.banks.stats
        bank_stats.requests += bank_req
        bank_stats.conflicts += bank_conf
        bank_stats.total_wait += bank_wait_sum
        for b, per in enumerate(self.banks.per_bank):
            per.requests += bankv_req[b]
            per.conflicts += bankv_conf[b]
            per.total_wait += bankv_wait[b]
        for s in range(S):
            l1 = self.l1s[s]
            array_stats = l1.array.stats
            array_stats.reads += ar_reads[s]
            array_stats.writes += ar_writes[s]
            array_stats.read_hits += ar_rh[s]
            array_stats.write_hits += ar_wh[s]
            array_stats.fills += ar_fills[s]
            array_stats.evictions_clean += ar_evc[s]
            array_stats.evictions_dirty += ar_evd[s]
            array_stats.invalidations += ar_inv[s]
            gpu_stats = l1.gpu_stats
            gpu_stats.global_reads += g_gr[s]
            gpu_stats.global_writes += g_gw[s]
            gpu_stats.local_reads += g_lr[s]
            gpu_stats.local_writes += g_lw[s]
            gpu_stats.write_evictions += g_wev[s]
            gpu_stats.local_writebacks += g_lwb[s]
            gpu_stats.coalesced_misses += g_coal[s]
            gpu_stats.mshr_stalls += g_stall[s]
            mshr_stats = l1.mshr.stats
            mshr_stats.allocations += m_alloc[s]
            mshr_stats.coalesced += m_coal[s]
            mshr_stats.stalls += m_stall[s]
            mshr_stats.completions += m_comp[s]
            l1.mshr._entries.update(mshr_map[s])
            l1._pending.update(pend[s])
            if min_ready[s] < l1._min_ready:
                l1._min_ready = min_ready[s]
        first_group = 0
        for cache in self.const_caches + self.texture_caches:
            end = first_group + cache.array.num_sets
            hits = sum(ro_hits[first_group:end])
            fills = sum(ro_fills[first_group:end])
            ro_stats = cache.array.stats
            ro_stats.reads += hits + fills  # every read-only miss fills
            ro_stats.read_hits += hits
            ro_stats.fills += fills
            ro_stats.evictions_clean += sum(ro_evictions[first_group:end])
            first_group = end

        return self._finish({
            "reads": reads,
            "stall_sum_s": stall_sum_s,
            "read_latency_sum_s": read_latency_sum_s,
            "l2_requests": l2_requests,
            "l2_service_sum_s": l2_service_sum_s,
            "dram_writebacks": dram_writebacks,
        })

    def _check_sm_ids(self) -> None:
        """Reject a trace whose SM ids exceed the configured SM count."""
        sm_ids = self.workload.trace.sm
        num_sms = self.config.num_sms
        if int(sm_ids.max()) >= num_sms:
            bad = int(sm_ids[int(np.argmax(sm_ids >= num_sms))])
            raise SimulationError(
                f"trace SM id {bad} exceeds configured {num_sms} SMs"
            )

    def _read_only_ways(self) -> list:
        """Associativity of each read-only set group, const caches first.

        Empty when no record is read-only, so the loop builds no
        read-only state it would never touch.
        """
        ro_flags = FLAG_CONST | FLAG_TEXTURE
        if not any(
            (flags & ro_flags).any()
            for _, _, flags in self.workload.trace.chunks()
        ):
            return []
        return [
            cache.array.associativity
            for cache in self.const_caches + self.texture_caches
            for _ in range(cache.array.num_sets)
        ]

    def _decoded_chunks(self):
        """The fused loop's records, decoded by NumPy one trace chunk at a time.

        Yields one iterator per :meth:`~repro.workloads.trace.Trace.chunks`
        chunk over ``(sm, is_write, is_local, ro_group, line, l1_tag,
        l1_set)`` records.  The const and texture caches of every SM share
        one read-only state, laid out back to back: one set group per
        (cache, set), the const caches' groups first.  A read-only record
        carries its group in ``ro_group`` and its line address in that
        cache's geometry in ``line``; every other record has group -1 and
        its L1 line address.  A record with both read-only flags goes to
        const (the object loop tests FLAG_CONST first).
        """
        l1_geom = self.l1s[0].array.mapper
        num_sms = self.config.num_sms
        for sm_np, addr_np, flags_np in self.workload.trace.chunks():
            line_np, l1_tag_np, l1_set_np = l1_geom.split_columns(addr_np)
            const_np = (flags_np & FLAG_CONST) != 0
            texture_np = ((flags_np & FLAG_TEXTURE) != 0) & ~const_np
            ro_group_np = np.full(len(sm_np), -1, dtype=np.int32)
            first_group = 0
            for records, caches in (
                (const_np, self.const_caches),
                (texture_np, self.texture_caches),
            ):
                array = caches[0].array
                if records.any():
                    ro_lines, _, ro_sets = array.mapper.split_columns(
                        addr_np[records]
                    )
                    ro_group_np[records] = (
                        first_group
                        + sm_np[records].astype(np.int32) * array.num_sets
                        + ro_sets
                    )
                    line_np[records] = ro_lines
                first_group += num_sms * array.num_sets
            yield zip(
                sm_np.tolist(),
                ((flags_np & FLAG_WRITE) != 0).tolist(),
                ((flags_np & FLAG_LOCAL) != 0).tolist(),
                ro_group_np.tolist(),
                line_np.tolist(),
                l1_tag_np.tolist(),
                l1_set_np.tolist(),
            )
