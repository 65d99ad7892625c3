"""SoA-backed L2 models: monolithic hot paths over flat state vectors.

:class:`SoaTwoPartL2` and :class:`SoaUniformL2` subclass the object-model
L2 classes, swapping the behavioural array for
:class:`~repro.engine.soa_array.SoaCacheArray` through the
``ARRAY_FACTORY`` seam.  The two-part L2's demand path, its HR->LR
migration (with the LR victim's return to HR) and its buffer drains and
due refresh sweeps are flat transcriptions of the object code over the
vectors and buffer deques: no per-line views, no per-event objects.  An
LR sweep visits only the slots its due queue names, not every LR slot.
The fused loop in :mod:`repro.engine.soa_sim` inlines both L2s' demand
paths and the migration, and calls only the due sweeps.  What stays
inherited runs against the SoA arrays through their API: the uniform L2's
``access``, the two-part miss path of :meth:`SoaTwoPartL2.access`,
snapshots and the roll-up properties (docs/engine.md explains the proof
protocol).  :meth:`SoaTwoPartL2.access` keeps the object engine's
access-path retention expiry; the fused loop drops it, because its
forward-moving clock lets no line reach its retention unswept.

Each transcribed path preserves the object model's exact operation order,
including float accumulation order, so results are byte-identical, not
just statistically equivalent.

Unsupported features raise at construction instead of silently diverging:
enabled tracers (per-access trace hooks would have to be replicated in
every inlined path) and fault injectors (per-access fault hooks likewise).
The engine registry (:mod:`repro.engine`) refuses those configurations
unless the object engine is named.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from itertools import count

from repro.core.interface import L2AccessResult
from repro.core.refresh import RefreshActions, _next_on_grid
from repro.core.twopart import TwoPartSTTL2
from repro.core.uniform import UniformL2
from repro.engine.soa_array import SoaCacheArray
from repro.errors import ConfigurationError, GeometryError, SimulationError


class SoaUniformL2(UniformL2):
    """Uniform (SRAM / naive STT) L2 over a SoA array.

    The fused loop inlines its demand path; the inherited
    :meth:`UniformL2.access` serves direct callers over the same array.
    """

    ARRAY_FACTORY = SoaCacheArray

    def __init__(self, *args, **kwargs) -> None:
        """Same signature as :class:`UniformL2`; rejects enabled tracers."""
        tracer = kwargs.get("tracer")
        if tracer is not None and tracer.enabled:
            raise ConfigurationError(
                "the soa engine does not support per-access tracing; "
                "use the object engine"
            )
        super().__init__(*args, **kwargs)


class SoaTwoPartL2(TwoPartSTTL2):
    """The paper's two-part L2 with a monolithic SoA demand path.

    ``access`` fuses maintenance gating, the HR/LR locate (with retention
    expiry), the search-selector accounting and the three hit serve paths
    into one function over the flat vectors.  Migrations
    (:meth:`_migrate_and_write`) and due refresh sweeps (:meth:`maintenance`)
    are flat too; only misses delegate to the inherited object-model
    method, which runs on the SoA arrays through their compatible API.
    """

    ARRAY_FACTORY = SoaCacheArray

    def __init__(self, *args, **kwargs) -> None:
        """Same signature as :class:`TwoPartSTTL2`; rejects tracers/faults."""
        tracer = kwargs.get("tracer")
        if tracer is not None and tracer.enabled:
            raise ConfigurationError(
                "the soa engine does not support per-access tracing; "
                "use the object engine"
            )
        if kwargs.get("faults") is not None:
            raise ConfigurationError(
                "the soa engine does not support fault injection; "
                "use the object engine"
            )
        super().__init__(*args, **kwargs)

        lr, hr = self.lr_array, self.hr_array
        # geometry scalars (both parts share the line size / offset bits)
        self._soa_offset_bits = hr.mapper.offset_bits
        self._lr_pow2 = lr.mapper.pow2_sets
        self._lr_bits = lr.mapper._set_bits
        self._lr_mask = lr.mapper._set_mask
        self._lr_nsets = lr.num_sets
        self._lr_assoc = lr.associativity
        self._hr_pow2 = hr.mapper.pow2_sets
        self._hr_bits = hr.mapper._set_bits
        self._hr_mask = hr.mapper._set_mask
        self._hr_nsets = hr.num_sets
        self._hr_assoc = hr.associativity
        self._line_low_mask = ~(self.line_size - 1)
        # physics scalars (fixed at construction, hoisted from the models)
        self._lr_w_en = self.lr_model.data_write_energy
        self._lr_r_en = self.lr_model.data_read_energy
        self._lr_w_lat = self.lr_model.data_array.write_latency
        self._lr_r_lat = self.lr_model.data_array.read_latency
        self._hr_w_en = self.hr_model.data_write_energy
        self._hr_r_en = self.hr_model.data_read_energy
        self._hr_w_lat = self.hr_model.data_array.write_latency
        self._hr_r_lat = self.hr_model.data_array.read_latency
        # retention thresholds (None disables LR expiry: SRAM LR part)
        self._lr_ret = None if self.lr_spec is None else self.lr_spec.retention_s
        self._hr_ret = self.hr_spec.retention_s
        # selector / monitor state
        self._sel_stats = self.selector.stats
        self._sequential = self.selector.sequential
        self._mon_stats = self.monitor.stats
        self._threshold = self.monitor.threshold
        self._hr_sat = hr.write_counter_saturation
        # refresh schedule and thresholds (the refresh engine keeps the
        # schedule and counters; maintenance() runs its sweeps)
        self._hr_tick = self.hr_spec.tick_s
        self._hr_refresh_age = self.hr_spec.refresh_age_s
        if self.lr_spec is not None:
            self._lr_tick = self.lr_spec.tick_s
            self._lr_refresh_age = self.lr_spec.refresh_age_s
        # one LR refresh reads the line out and writes it back
        self._lr_refresh_en = self._lr_r_en + self._lr_w_en
        #: LR due queue: ``(stamp, slot)`` in nondecreasing stamp order,
        #: one entry each time a slot's retention clock
        #: ``max(insert, last_write)`` is set (empty for an SRAM LR part)
        self._lr_due = deque()

    def _queue_due(self, stamp: float, slot: int) -> None:
        """Queue an LR slot whose retention clock now reads ``stamp``.

        The fused loop's clock only moves forward, so it appends; a direct
        caller may step back in time, and an early stamp is inserted in
        order, never appended behind a later one a sweep would stop at.
        """
        due = self._lr_due
        if due and stamp < due[-1][0]:
            insort(due, (stamp, slot))
        else:
            due.append((stamp, slot))

    def _check_due_before(self, start: float) -> None:
        """Raise unless every queued LR stamp is at or before ``start``.

        A replay that appends its own clock's stamps from ``start`` on
        keeps the queue sorted only if nothing already queued is later.
        """
        due = self._lr_due
        if due and due[-1][0] > start:
            raise SimulationError(
                f"LR due queue holds a stamp at {due[-1][0]!r} s, "
                f"later than the replay's start at {start!r} s"
            )

    def _migrate_and_write(
        self, line: int, now: float, energy: float, tag_latency: float
    ) -> L2AccessResult:
        """HR write hit above threshold: move the line to LR, write there.

        Flat transcription of :meth:`TwoPartSTTL2._migrate_and_write`: the
        whole chain is unrolled over the vectors and buffer deques -- the
        HR demand write hit and extract, the HR->LR push (forcing the
        oldest entry out when the buffer is full), the dirty LR fill and,
        when that fill evicts, :meth:`TwoPartSTTL2._return_to_hr` (LR->HR
        push, HR fill, dirty HR eviction).  The caller located the line in
        HR, so LR holds no copy of it; the parts are exclusive and a line
        enters LR only by this migrating write, so the LR victim is dirty
        and HR holds no copy of it either.  The fused replay loop runs an
        inline copy of this method, so a change here must be made there
        too.
        """
        off = self._soa_offset_bits
        lineno = line >> off
        led = self._energy
        writebacks = 0

        # --- HR demand write hit, then extract ----------------------------
        # The extract zeroes every per-line field the write hit sets and
        # drops the tag from the set's recency order, so only the hit's
        # stats and wear counters remain.
        hr = self.hr_array
        if self._hr_pow2:
            tag = lineno >> self._hr_bits
            index = lineno & self._hr_mask
        else:
            tag, index = divmod(lineno, self._hr_nsets)
        way = hr.tag_to_way[index][tag]
        stats = hr.stats
        stats.writes += 1
        stats.write_hits += 1
        hr.set_writes_vec[index] += 1
        hr._reset_slot(index, way)

        # --- HR->LR push; a full buffer first forces its oldest entry out -
        buffer = self.hr_to_lr
        entries = buffer._entries
        stats = buffer.stats
        if len(entries) >= buffer.capacity_lines:
            stats.overflows += 1
            if entries.popleft()[1]:
                writebacks += 1
                self.dram_writebacks_total += 1
        ready = buffer._port_free_at
        if now > ready:
            ready = now
        ready += buffer.drain_service_time
        buffer._port_free_at = ready
        entries.append((line, True, ready))
        stats.pushes += 1
        if len(entries) > stats.peak_occupancy:
            stats.peak_occupancy = len(entries)
        self.migrations_to_lr += 1

        # --- dirty LR fill into the victim way ----------------------------
        lr = self.lr_array
        if self._lr_pow2:
            tag = lineno >> self._lr_bits
            index = lineno & self._lr_mask
        else:
            tag, index = divmod(lineno, self._lr_nsets)
        base = index * self._lr_assoc
        valid = lr.valid_vec
        tag_map = lr.tag_to_way[index]
        stats = lr.stats
        evicted = len(tag_map) >= self._lr_assoc
        if evicted:
            # every LR line is dirty: its only way in is a migrating write
            victim_tag = next(iter(tag_map))
            way = tag_map.pop(victim_tag)
            stats.evictions_dirty += 1
            if self._lr_pow2:
                victim_lineno = (victim_tag << self._lr_bits) | index
            else:
                victim_lineno = victim_tag * self._lr_nsets + index
        else:
            for way in range(self._lr_assoc):
                if not valid[base + way]:
                    break
        slot = base + way
        lr.tag_vec[slot] = tag
        valid[slot] = True
        lr.dirty_vec[slot] = True
        lr.write_count_vec[slot] = 1
        lr.total_writes_vec[slot] = 1
        lr.last_write_time_vec[slot] = now
        lr.insert_time_vec[slot] = now
        if self._lr_ret is not None:
            self._queue_due(now, slot)
        tag_map[tag] = way
        lr.set_writes_vec[index] += 1
        stats.fills += 1
        # read out of HR, written into LR
        migration_energy = self._hr_r_en + self._lr_w_en
        self.lr_data_writes += 1

        if evicted:
            # --- the LR victim returns to HR through the LR->HR buffer ----
            victim_line = victim_lineno << off
            led.migration_j += self._lr_r_en
            buffer = self.lr_to_hr
            entries = buffer._entries
            stats = buffer.stats
            if len(entries) >= buffer.capacity_lines:
                stats.overflows += 1
                if entries.popleft()[1]:
                    writebacks += 1
                    self.dram_writebacks_total += 1
            ready = buffer._port_free_at
            if now > ready:
                ready = now
            ready += buffer.drain_service_time
            buffer._port_free_at = ready
            entries.append((victim_line, True, ready))
            stats.pushes += 1
            if len(entries) > stats.peak_occupancy:
                stats.peak_occupancy = len(entries)
            self.returns_to_hr += 1
            # dirty HR fill into the victim way; the parts are exclusive,
            # so HR holds no copy of the returning line
            if self._hr_pow2:
                tag = victim_lineno >> self._hr_bits
                index = victim_lineno & self._hr_mask
            else:
                tag, index = divmod(victim_lineno, self._hr_nsets)
            base = index * self._hr_assoc
            tag_map = hr.tag_to_way[index]
            valid = hr.valid_vec
            stats = hr.stats
            if len(tag_map) < self._hr_assoc:
                for way in range(self._hr_assoc):
                    if not valid[base + way]:
                        break
                slot = base + way
            else:
                way = tag_map.pop(next(iter(tag_map)))
                slot = base + way
                if hr.dirty_vec[slot]:
                    stats.evictions_dirty += 1
                    writebacks += 1
                    self.dram_writebacks_total += 1
                else:
                    stats.evictions_clean += 1
            hr.tag_vec[slot] = tag
            valid[slot] = True
            hr.dirty_vec[slot] = True
            hr.write_count_vec[slot] = 1
            hr.total_writes_vec[slot] = 1
            hr.last_write_time_vec[slot] = now
            hr.insert_time_vec[slot] = now
            tag_map[tag] = way
            hr.set_writes_vec[index] += 1
            stats.fills += 1
            led.migration_j += self._hr_w_en
            self.hr_data_writes += 1
        led.demand_j += energy
        led.migration_j += migration_energy
        return L2AccessResult(
            hit=True,
            part="lr",
            latency_s=tag_latency + self._lr_w_lat,
            energy_j=energy + migration_energy,
            dram_writebacks=writebacks,
            migrated=True,
        )

    def maintenance(self, now: float) -> int:
        """Drain buffers and run due retention sweeps; returns write-backs.

        Flat transcription of :meth:`TwoPartSTTL2.maintenance` and
        :meth:`~repro.core.refresh.RefreshEngine.sweep`.  The drains are
        inlined deque pops and the due check is two float compares.

        A due LR sweep visits only the due queue ``_lr_due``.  Its
        invariant: the queue is sorted by stamp, and every valid LR slot
        whose retention clock ``max(insert, last_write)`` reads ``t`` has
        an entry ``(t, slot)`` in it.  Every site that sets a clock queues
        its new value (demand write hit, migration fill, refresh), and an
        entry leaves the queue only in a sweep, where its slot is acted on
        if the entry is still current.  Entries whose slot was since
        rewritten, refilled or invalidated are stale and dropped.  The
        sweep pops the stamps with ``now - stamp >= refresh_age``, which
        for a sorted queue is exactly the prefix a full scan would select,
        keeps the current ones once per slot, and applies them in slot
        order: the object engine's scan order.

        The HR sweep walks the flat vectors in that scan order too (sets in
        index order, ways in way order).  Both sweeps apply each decision as
        they make it -- LR refresh, lost-LR invalidation, HR expiry --
        where the object engine collects every decision first.  Each
        decision reads and writes only its own slot, so the outcome is the
        same, and refresh joules are still added LR refreshes first, then
        HR write-backs, each in scan order.  The decisions are recorded in
        ``refresh_engine.last_actions`` exactly as the object engine
        records them.
        """
        buffer = self.hr_to_lr
        entries = buffer._entries
        if entries:
            stats = buffer.stats
            while entries and entries[0][2] <= now:
                entries.popleft()
                stats.drains += 1
        buffer = self.lr_to_hr
        entries = buffer._entries
        if entries:
            stats = buffer.stats
            while entries and entries[0][2] <= now:
                entries.popleft()
                stats.drains += 1
        engine = self.refresh_engine
        # an SRAM LR part schedules no LR sweep (its next scan is inf)
        sweep_lr = now >= engine._next_lr_scan
        sweep_hr = now >= engine._next_hr_scan
        if not (sweep_lr or sweep_hr):
            return 0
        actions = RefreshActions()
        counters = engine.stats
        refresh_j = self._energy.refresh_j
        off = self._soa_offset_bits
        writebacks = 0
        if sweep_lr:
            counters.scans += 1
            refresh_age = self._lr_refresh_age
            due = self._lr_due
            if due and now - due[0][0] >= refresh_age:
                lr = self.lr_array
                valid = lr.valid_vec
                ins = lr.insert_time_vec
                written = lr.last_write_time_vec
                # pop every stamp past the refresh age; keep each slot that
                # is still valid with the clock its stamp recorded
                slots = set()
                pop = due.popleft
                while due and now - due[0][0] >= refresh_age:
                    stamp, slot = pop()
                    if valid[slot]:
                        last = ins[slot]
                        if written[slot] > last:
                            last = written[slot]
                        if last == stamp:
                            slots.add(slot)
                tags = lr.tag_vec
                dirty = lr.dirty_vec
                reset = lr._reset_slot
                retention = self._lr_ret
                refresh_en = self._lr_refresh_en
                assoc = self._lr_assoc
                pow2 = self._lr_pow2
                bits = self._lr_bits
                nsets = self._lr_nsets
                lost = actions.lr_lost
                refresh = actions.lr_refresh
                for slot in sorted(slots):
                    last = ins[slot]
                    if written[slot] > last:
                        last = written[slot]
                    index, way = divmod(slot, assoc)
                    tag = tags[slot]
                    line = (tag << bits) | index if pow2 else tag * nsets + index
                    if now - last >= retention:
                        lost.append(line << off)
                        if dirty[slot]:
                            self.data_losses += 1
                        reset(index, way)
                        lr.stats.invalidations += 1
                    else:
                        refresh.append(line << off)
                        ins[slot] = now
                        refresh_j += refresh_en
                        # _queue_due, inlined: this is its busiest caller
                        last = written[slot]
                        stamp = now if now > last else last
                        if due and stamp < due[-1][0]:
                            insort(due, (stamp, slot))
                        else:
                            due.append((stamp, slot))
                counters.lr_expiries += len(lost)
                counters.lr_refreshes += len(refresh)
                self.refresh_writes += len(refresh)
            engine._next_lr_scan = _next_on_grid(now, self._lr_tick)
        if sweep_hr:
            hr = self.hr_array
            valid = hr.valid_vec
            tags = hr.tag_vec
            dirty = hr.dirty_vec
            reset = hr._reset_slot
            refresh_age = self._hr_refresh_age
            read_en = self._hr_r_en
            assoc = self._hr_assoc
            pow2 = self._hr_pow2
            bits = self._hr_bits
            nsets = self._hr_nsets
            drop_dirty = actions.hr_drop_dirty
            drop_clean = actions.hr_drop_clean
            for slot, last, written in zip(
                count(), hr.insert_time_vec, hr.last_write_time_vec
            ):
                if written > last:
                    last = written
                if now - last >= refresh_age and valid[slot]:
                    index, way = divmod(slot, assoc)
                    tag = tags[slot]
                    line = (tag << bits) | index if pow2 else tag * nsets + index
                    if dirty[slot]:
                        # forced write-back before the data decays
                        drop_dirty.append(line << off)
                        refresh_j += read_en
                        writebacks += 1
                    else:
                        drop_clean.append(line << off)
                    reset(index, way)
                    hr.stats.invalidations += 1
            counters.hr_expirations_dirty += len(drop_dirty)
            counters.hr_expirations_clean += len(drop_clean)
            engine._next_hr_scan = _next_on_grid(now, self._hr_tick)
        engine.last_actions = actions
        self._energy.refresh_j = refresh_j
        self.dram_writebacks_total += writebacks
        return writebacks

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        """Monolithic transcription of :meth:`TwoPartSTTL2.access`.

        The locate keeps the object engine's access-path retention expiry,
        which the fused loop drops.  A caller that steps time forward, as
        the loop does, never reaches it: the due sweep at the same time
        refreshes or drops each line two ticks before it expires.  A direct
        caller may step time backwards, and then a line can be located at
        or past its retention (``tests/test_due_queue.py`` does).
        """
        if address < 0:
            raise GeometryError(f"address must be non-negative, got {address}")
        line = address & self._line_low_mask
        writebacks = self.maintenance(now)
        lineno = line >> self._soa_offset_bits

        # --- locate (with access-path retention expiry) -------------------
        part = None
        lr = self.lr_array
        if self._lr_pow2:
            tag = lineno >> self._lr_bits
            index = lineno & self._lr_mask
        else:
            tag, index = divmod(lineno, self._lr_nsets)
        lr_map = lr.tag_to_way[index]
        way = lr_map.get(tag)
        if way is not None:
            slot = index * self._lr_assoc + way
            retention = self._lr_ret
            if retention is not None:
                last = lr.insert_time_vec[slot]
                written = lr.last_write_time_vec[slot]
                if written > last:
                    last = written
                if now - last >= retention:
                    if lr.dirty_vec[slot]:
                        self.data_losses += 1
                    lr.invalidate(line)
                    way = None
            if way is not None:
                part = "lr"
        if part is None:
            hr = self.hr_array
            if self._hr_pow2:
                hr_tag = lineno >> self._hr_bits
                hr_index = lineno & self._hr_mask
            else:
                hr_tag, hr_index = divmod(lineno, self._hr_nsets)
            hr_map = hr.tag_to_way[hr_index]
            hr_way = hr_map.get(hr_tag)
            if hr_way is not None:
                hr_slot = hr_index * self._hr_assoc + hr_way
                last = hr.insert_time_vec[hr_slot]
                written = hr.last_write_time_vec[hr_slot]
                if written > last:
                    last = written
                if now - last >= self._hr_ret:
                    if hr.dirty_vec[hr_slot]:
                        self.data_losses += 1
                    hr.invalidate(line)
                else:
                    part = "hr"

        # --- search-selector accounting (sequential or parallel) ----------
        selector = self._sel_stats
        selector.accesses += 1
        first_hit = part == ("lr" if is_write else "hr")
        if not self._sequential:
            if first_hit:
                selector.first_probe_hits += 1
            selector.second_probes += 1
            probes = 2
            tag_latency = self._hr_tag_access_latency
        elif first_hit:
            selector.first_probe_hits += 1
            probes = 1
            tag_latency = self._hr_tag_access_latency
        else:
            selector.second_probes += 1
            probes = 2
            tag_latency = 2 * self._hr_tag_access_latency
        energy = self._probe_energy_table[is_write][1 if probes < 2 else 2]

        # --- serve --------------------------------------------------------
        if part == "lr":
            stats = lr.stats
            if is_write:
                if self.track_intervals:
                    written = lr.last_write_time_vec[slot]
                    if written > 0:
                        self.rewrite_intervals.append(now - written)
                stats.writes += 1
                stats.write_hits += 1
                lr.dirty_vec[slot] = True
                lr.total_writes_vec[slot] += 1
                lr.write_count_vec[slot] += 1  # LR array never saturates
                lr.last_write_time_vec[slot] = now
                if retention is not None:
                    last = lr.insert_time_vec[slot]
                    self._queue_due(now if now > last else last, slot)
                lr.set_writes_vec[index] += 1
                del lr_map[tag]
                lr_map[tag] = way
                energy += self._lr_w_en
                latency = tag_latency + self._lr_w_lat
                self.lr_data_writes += 1
            else:
                stats.reads += 1
                stats.read_hits += 1
                del lr_map[tag]
                lr_map[tag] = way
                energy += self._lr_r_en
                latency = tag_latency + self._lr_r_lat
            self._energy.demand_j += energy
            result = L2AccessResult(
                hit=True, part="lr", latency_s=latency, energy_j=energy
            )
        elif part == "hr":
            stats = hr.stats
            if not is_write:
                stats.reads += 1
                stats.read_hits += 1
                del hr_map[hr_tag]
                hr_map[hr_tag] = hr_way
                energy += self._hr_r_en
                self._energy.demand_j += energy
                result = L2AccessResult(
                    hit=True, part="hr",
                    latency_s=tag_latency + self._hr_r_lat,
                    energy_j=energy,
                )
            else:
                monitor = self._mon_stats
                monitor.writes_observed += 1
                if hr.write_count_vec[hr_slot] >= self._threshold:
                    monitor.migrations_triggered += 1
                    result = self._migrate_and_write(line, now, energy, tag_latency)
                else:
                    stats.writes += 1
                    stats.write_hits += 1
                    hr.dirty_vec[hr_slot] = True
                    hr.total_writes_vec[hr_slot] += 1
                    saturate_at = self._hr_sat
                    if saturate_at <= 0 or hr.write_count_vec[hr_slot] < saturate_at:
                        hr.write_count_vec[hr_slot] += 1
                    hr.last_write_time_vec[hr_slot] = now
                    hr.set_writes_vec[hr_index] += 1
                    del hr_map[hr_tag]
                    hr_map[hr_tag] = hr_way
                    energy += self._hr_w_en
                    latency = tag_latency + self._hr_w_lat
                    self.hr_data_writes += 1
                    self._energy.demand_j += energy
                    result = L2AccessResult(
                        hit=True, part="hr", latency_s=latency, energy_j=energy
                    )
        else:
            result = self._serve_miss(line, is_write, now, energy, tag_latency)
        result.dram_writebacks += writebacks
        result.probes = probes
        return result
