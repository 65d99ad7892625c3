"""Fused structure-of-arrays replay loop (the ``soa`` engine's simulator).

:class:`SoaGPUSimulator` subclasses
:class:`repro.gpu.simulator.GPUSimulator` and overrides only :meth:`run`:
the trace is decoded with NumPy per chunk of
:data:`~repro.workloads.trace.CHUNK_RECORDS` records (flags, L1
tag/set/line splits), so replay memory does not grow with the trace, and
the per-record work — L1 write policies, MSHR coalescing, deferred fills,
the L2 serve paths, bank scheduling and DRAM — is fused into one
interpreter loop over flat per-SM state with zero per-access object
allocation.  Each L1 set is one ``tag -> dirty`` dict whose insertion
order is its LRU order (LRU first), the rule the SoA L2 arrays' tag maps
follow too (docs/engine.md, ``tag_to_way``).  The L2 state lives
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

* Scalar *integer* counters (cache stats, buffer and migration tallies,
  DRAM row hits) accumulate in loop locals and fold into the component
  objects after the loop -- integer addition commutes with the sweep's
  direct mutations of the same fields.  Counters that exact integer
  identities determine (selector and monitor tallies, buffer pushes, LR
  fills, data writes, DRAM reads and writes, bank requests) are not
  counted at all; the fold derives them (docs/engine.md, "Counter fold").
* *Float* accumulators (L2 demand/fill/migration energy, DRAM total wait)
  are order-sensitive; they live in loop locals and are written back to
  the owning objects after the loop.  The sweep adds only to the refresh
  energy, which the loop never holds, so the accumulation order is
  exactly the object engine's.

The one intentional divergence: *wear* counters that nothing reads are
not kept.  The L1s keep no per-line wear counters
(``set_writes``/``frame_writes``/``set_evictions``) or per-block
timestamps, and the flat L2 arrays keep no per-frame write or per-set
eviction counts (:class:`~repro.engine.soa_array.SoaCacheArray` has no
``per_frame_write_counts`` or ``per_set_eviction_counts``; endurance
analyses run on the object arrays).  The loop also leaves the L2 arrays'
``total_writes_vec`` and ``set_writes_vec`` and the LR
``write_count_vec`` as they were: only the standalone COV arrays of
Fig. 3 and the surrogate read the first two, and no LR line migrates.
Aggregate ``CacheStats``, ``L1Stats``, ``MSHRStats``, bank and DRAM
counters are flushed back into the real component objects at the end of
the run; the L1s' MSHR and pending-fill state is not.  L2 vectors, tag
maps, buffer deques and the LR due queue are mutated in place; the swap
buffers' port times and peak occupancies fold back with the counters.

Not supported (the registry raises and names the object engine, see
``repro.engine._soa_blockers``): tracing, invariant checkers and
externally built L2s, which is how fault injection arrives.
"""

from __future__ import annotations

from itertools import chain
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
from repro.workloads.trace import FLAG_LOCAL, FLAG_WRITE, Workload


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
        # per-(SM, set) tag -> dirty maps, LRU first
        l1_sets = [dict() for _ in range(S * l1_nsets)]
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

        # --- shared-component locals -------------------------------------
        bank_busy = self.banks._busy_until
        bank_shift = self.banks._line_shift
        bank_mask = self.banks._bank_mask
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
        n_dram_rh = 0
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
            lr_t2w = lr.tag_to_way
            lr_tags_v = lr.tag_vec; lr_valid_v = lr.valid_vec
            lr_dirty_v = lr.dirty_vec
            lr_lwt = lr.last_write_time_vec; lr_ins = lr.insert_time_vec
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
        hr_t2w = hr.tag_to_way
        hr_tags_v = hr.tag_vec; hr_valid_v = hr.valid_vec
        hr_dirty_v = hr.dirty_vec; hr_wc = hr.write_count_vec
        hr_lwt = hr.last_write_time_vec; hr_ins = hr.insert_time_vec
        off2 = hr._offset_bits  # both parts share the line size
        hr_pow2 = hr._pow2; hr_bits = hr._set_bits
        hr_smask = hr._set_mask; hr_nsets = hr.num_sets
        hr_assoc = hr.associativity
        hr_sat = hr.write_counter_saturation
        # scalar counter accumulators (see the module docstring); the
        # counters these determine are derived in the fold
        n_lr_rh = n_lr_wh = n_lr_evd = 0
        n_hr_r = n_hr_rh = n_hr_w = n_hr_wh = 0
        n_hr_evd = n_hr_evc = n_mig = n_wb_tot = 0
        n_h2l_over = n_l2h_over = 0

        # --- the fused replay loop ---------------------------------------
        # A record first runs its L1 step, which queues the L2 requests it
        # makes in ``reqs``: the write-backs of landed fills, then at most
        # one request of its own (0 fetch, 1 write, 2 wb).  The L2 block
        # at the bottom serves them in that order.
        for sm, is_write, is_local, line, tag, set_index in (
            chain.from_iterable(self._decoded_chunks())
        ):
            now += dt
            if not is_write:
                reads += 1
                stall_sum_s += l1_hit_s
                read_latency_sum_s += l1_hit_s

            # ---- L1 data cache ------------------------------------------
            pend_sm = pend[sm]
            reqs = None
            # deferred fills whose fetch landed install first; their
            # dirty evictions queue as L2 write-backs, in landed order.
            # Every pending fetch got its ready time when it was served.
            if pend_sm and now >= min_ready[sm]:
                landed = []
                new_min = inf
                for pending_line, entry in pend_sm.items():
                    ready = entry[0]
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
                    l1_set = l1_sets[sm * l1_nsets + fill_set]
                    dirty = l1_set.pop(fill_tag, None)
                    evicted_line = -1
                    if dirty is not None:
                        # already present: OR in the dirty intent, touch
                        l1_set[fill_tag] = dirty or fill_dirty
                    else:
                        if len(l1_set) >= l1_assoc:
                            victim_tag = next(iter(l1_set))
                            if l1_set.pop(victim_tag):
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
                        l1_set[fill_tag] = fill_dirty
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

            l1_set = l1_sets[sm * l1_nsets + set_index]
            if is_local:
                # conventional write-back/write-allocate for local data
                if is_write:
                    g_lw[sm] += 1
                    ar_writes[sm] += 1
                else:
                    g_lr[sm] += 1
                    ar_reads[sm] += 1
                dirty = l1_set.pop(tag, None)
                if dirty is not None:
                    if is_write:
                        ar_wh[sm] += 1
                        l1_set[tag] = True
                    else:
                        ar_rh[sm] += 1
                        l1_set[tag] = dirty
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
                if l1_set.pop(tag, None) is not None:
                    ar_wh[sm] += 1
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
                dirty = l1_set.pop(tag, None)
                if dirty is not None:
                    ar_rh[sm] += 1
                    l1_set[tag] = dirty
                    if reqs is None:
                        continue
                    kind = -1
                else:
                    kind = 0
                    dirty_intent = False

            if kind == 0:
                # shared read/local miss path: register in the MSHR file;
                # ``entry`` stays bound for the fetch's ready time below
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
                    entry = pend_sm[line] = [None, dirty_intent]
            if reqs is None:
                reqs = ((kind, line),)
            elif kind >= 0:
                reqs.append((kind, line))

            # ---- the L2: each queued request end to end -----------------
            # An inline transcription of SoaTwoPartL2.access with
            # _serve_miss and _migrate_and_write unrolled into it, which also
            # serves a uniform L2 (UniformL2.access) through the HR names;
            # only the two-part L2's buffer drains, due sweeps, LR probe
            # and search-selector costs are skipped for it.  The
            # bank/DRAM/stall block after it is the object replay loop's.
            for kind, raddr in reqs:
                l2_write = kind != 0
                now2 = now * time_dilation
                lineno = raddr >> off2
                wb_total = 0
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
                    lr_map = lr_t2w[index]
                    way = lr_map.get(tag)
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
                    hr_map = hr_t2w[hr_index]
                    hr_way = hr_map.get(hr_tag)
                    if hr_way is not None:
                        hr_slot = hr_index * hr_assoc + hr_way
                        part = 2
                if twopart:
                    # search-selector costs: a sequential search that hits
                    # the part it probes first makes one probe
                    if sequential and part == (1 if l2_write else 2):
                        tag_latency = tag_lat1
                        energy = pe_w1 if l2_write else pe_r1
                    else:
                        tag_latency = tag_lat2 if sequential else tag_lat1
                        energy = pe_w2 if l2_write else pe_r2
                else:
                    # a uniform hit's energy and latency are whole; a miss
                    # costs the tag probe and the read latency
                    tag_latency = 0.0
                    energy = 0.0 if part else probe_en
                # serve
                if part == 1:
                    del lr_map[tag]
                    lr_map[tag] = way
                    if l2_write:
                        n_lr_wh += 1
                        lr_dirty_v[slot] = True
                        lr_lwt[slot] = now2
                        if lr_queued:
                            due_push((now2, slot))
                        energy += lr_w_en
                        latency = tag_latency + lr_w_lat
                    else:
                        n_lr_rh += 1
                        energy += lr_r_en
                        latency = tag_latency + lr_r_lat
                    demand_j += energy
                elif part == 2:
                    del hr_map[hr_tag]
                    hr_map[hr_tag] = hr_way
                    if not l2_write:
                        n_hr_r += 1
                        n_hr_rh += 1
                        energy += hr_r_en
                        latency = tag_latency + hr_r_lat
                        demand_j += energy
                    elif hr_wc[hr_slot] < threshold:
                        n_hr_w += 1
                        n_hr_wh += 1
                        hr_dirty_v[hr_slot] = True
                        if hr_sat <= 0 or hr_wc[hr_slot] < hr_sat:
                            hr_wc[hr_slot] += 1
                        hr_lwt[hr_slot] = now2
                        energy += hr_w_en
                        latency = tag_latency + hr_w_lat
                        demand_j += energy
                    else:
                        # ---- migration: SoaTwoPartL2._migrate_and_write --
                        n_mig += 1
                        # HR demand write hit, then extract: the extract
                        # zeroes every per-line field the hit sets
                        n_hr_w += 1
                        n_hr_wh += 1
                        del hr_map[hr_tag]
                        hr_tags_v[hr_slot] = -1
                        hr_valid_v[hr_slot] = False
                        hr_dirty_v[hr_slot] = False
                        hr_wc[hr_slot] = 0
                        hr_lwt[hr_slot] = 0.0
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
                        if len(h2l_entries) > h2l_peak:
                            h2l_peak = len(h2l_entries)
                        # dirty LR fill into the victim way (the locate
                        # left the LR set and tag; LR holds no copy)
                        base = index * lr_assoc
                        evicted = len(lr_map) >= lr_assoc
                        if evicted:
                            # every LR line is dirty: its only way in is
                            # a migrating write
                            victim_tag = next(iter(lr_map))
                            way = lr_map.pop(victim_tag)
                            n_lr_evd += 1
                        else:
                            for way in range(lr_assoc):
                                if not lr_valid_v[base + way]:
                                    break
                        slot = base + way
                        lr_tags_v[slot] = tag
                        lr_valid_v[slot] = True
                        lr_dirty_v[slot] = True
                        lr_lwt[slot] = now2
                        lr_ins[slot] = now2
                        if lr_queued:
                            due_push((now2, slot))
                        lr_map[tag] = way
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
                            if len(l2h_entries) > l2h_peak:
                                l2h_peak = len(l2h_entries)
                            # dirty HR fill into the victim way (the parts
                            # are exclusive: HR holds no copy of the line)
                            if hr_pow2:
                                hr_tag = victim_no >> hr_bits
                                hr_index = victim_no & hr_smask
                            else:
                                hr_tag, hr_index = divmod(victim_no, hr_nsets)
                            base = hr_index * hr_assoc
                            hr_map = hr_t2w[hr_index]
                            if len(hr_map) < hr_assoc:
                                for hr_way in range(hr_assoc):
                                    if not hr_valid_v[base + hr_way]:
                                        break
                                hr_slot = base + hr_way
                            else:
                                hr_way = hr_map.pop(next(iter(hr_map)))
                                hr_slot = base + hr_way
                                if hr_dirty_v[hr_slot]:
                                    n_hr_evd += 1
                                    wb_total += 1
                                    n_wb_tot += 1
                                else:
                                    n_hr_evc += 1
                            hr_tags_v[hr_slot] = hr_tag
                            hr_valid_v[hr_slot] = True
                            hr_dirty_v[hr_slot] = True
                            hr_wc[hr_slot] = 1
                            hr_lwt[hr_slot] = now2
                            hr_ins[hr_slot] = now2
                            hr_map[hr_tag] = hr_way
                            migration_j += hr_w_en
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
                    if len(hr_map) < hr_assoc:
                        for hr_way in range(hr_assoc):
                            if not hr_valid_v[base + hr_way]:
                                break
                        hr_slot = base + hr_way
                    else:
                        hr_way = hr_map.pop(next(iter(hr_map)))
                        hr_slot = base + hr_way
                        if hr_dirty_v[hr_slot]:
                            n_hr_evd += 1
                            wb_total += 1
                            n_wb_tot += 1
                        else:
                            n_hr_evc += 1
                    hr_tags_v[hr_slot] = hr_tag
                    hr_valid_v[hr_slot] = True
                    hr_dirty_v[hr_slot] = l2_write
                    hr_wc[hr_slot] = 1 if l2_write else 0
                    hr_lwt[hr_slot] = now2 if l2_write else 0.0
                    hr_ins[hr_slot] = now2
                    hr_map[hr_tag] = hr_way
                    demand_j += energy
                    fill_j += hr_fill_en
                    latency = tag_latency + hr_r_lat
                # bank + DRAM + stall accounting (the object replay loop's
                # per-request block)
                l2_requests += 1
                l2_service_sum_s += latency
                bank = (raddr >> bank_shift) & bank_mask
                busy = bank_busy[bank]
                start = busy if busy > now else now
                wait = start - now
                bank_busy[bank] = start + latency
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
                if not part:
                    # a miss fetches the line from DRAM
                    t_req = now + total
                    channel = (raddr >> dram_line_shift) % dram_channels
                    row = raddr // dram_row_size
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
                dram_writebacks += wb_total
                if kind == 0:
                    total += noc_rt_s
                    stall_sum_s += total
                    read_latency_sum_s += total
                    if entry is not None:
                        # the fetch registered by this record lands then
                        ready = now + total
                        entry[0] = ready
                        if ready < min_ready[sm]:
                            min_ready[sm] = ready
                elif kind == 1:
                    stall_sum_s += wait + latency

        # --- flush local state back into the component objects ------------
        # Counters that exact integer identities determine were not kept
        # in the loop; they are derived here (docs/engine.md, "Counter
        # fold"; tests/test_counter_identities.py holds each identity on
        # the object engine).
        self.end_time_s = now
        hr_misses = n_hr_r + n_hr_w - n_hr_rh - n_hr_wh
        # an HR fill is a miss or an LR victim returning to HR
        n_hr_fill = hr_misses + n_lr_evd
        hr_stats = hr.stats
        hr_stats.reads += n_hr_r
        hr_stats.read_hits += n_hr_rh
        hr_stats.writes += n_hr_w
        hr_stats.write_hits += n_hr_wh
        hr_stats.evictions_dirty += n_hr_evd
        hr_stats.evictions_clean += n_hr_evc
        hr_stats.fills += n_hr_fill
        # every HR write hit writes HR data unless it migrates; so does
        # every fill
        hr_data_writes = n_hr_wh - n_mig + n_hr_fill
        led = l2._energy
        if twopart:
            # a sequential search's first probe is LR for a write and HR
            # for a read; a parallel search always probes both parts
            first_hits = n_lr_wh + n_hr_rh
            sel = l2._sel_stats
            sel.accesses += l2_requests
            sel.first_probe_hits += first_hits
            sel.second_probes += (
                l2_requests - first_hits if sequential else l2_requests
            )
            # LR is reached only by hits, and filled only by migrations
            lr_stats = lr.stats
            lr_stats.writes += n_lr_wh
            lr_stats.write_hits += n_lr_wh
            lr_stats.reads += n_lr_rh
            lr_stats.read_hits += n_lr_rh
            lr_stats.evictions_dirty += n_lr_evd
            lr_stats.fills += n_mig
            # the monitor sees every HR write hit; each migration pushes
            # one line HR->LR, and each LR victim returns one LR->HR
            l2._mon_stats.writes_observed += n_hr_wh
            l2._mon_stats.migrations_triggered += n_mig
            l2.lr_data_writes += n_lr_wh + n_mig
            l2.hr_data_writes += hr_data_writes
            l2.dram_writebacks_total += n_wb_tot
            l2.migrations_to_lr += n_mig
            l2.returns_to_hr += n_lr_evd
            h2l_stats.pushes += n_mig
            h2l_stats.overflows += n_h2l_over
            h2l_stats.peak_occupancy = h2l_peak
            l2.hr_to_lr._port_free_at = h2l_free
            l2h_stats.pushes += n_lr_evd
            l2h_stats.overflows += n_l2h_over
            l2h_stats.peak_occupancy = l2h_peak
            l2.lr_to_hr._port_free_at = l2h_free
            led.migration_j = migration_j
        else:
            l2.data_writes += hr_data_writes
        led.demand_j = demand_j
        led.fill_j = fill_j
        # one DRAM read per L2 miss; every write-back is one DRAM write
        dram_stats = self.dram.stats
        dram_stats.reads += hr_misses
        dram_stats.row_hits += n_dram_rh
        dram_stats.writes += dram_writebacks
        dram_stats.total_wait_s = dram_wait_s
        bank_stats = self.banks.stats
        bank_stats.requests += l2_requests
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

    def _decoded_chunks(self):
        """The fused loop's records, decoded by NumPy one trace chunk at a time.

        Yields one iterator per :meth:`~repro.workloads.trace.Trace.chunks`
        chunk over ``(sm, is_write, is_local, line, l1_tag, l1_set)``
        records, ``line`` being the record's L1 line address.
        """
        l1_geom = self.l1s[0].array.mapper
        for sm_np, addr_np, flags_np in self.workload.trace.chunks():
            line_np, l1_tag_np, l1_set_np = l1_geom.split_columns(addr_np)
            yield zip(
                sm_np.tolist(),
                ((flags_np & FLAG_WRITE) != 0).tolist(),
                ((flags_np & FLAG_LOCAL) != 0).tolist(),
                line_np.tolist(),
                l1_tag_np.tolist(),
                l1_set_np.tolist(),
            )
