"""The proposed two-part (LR + HR) STT-RAM L2 cache.

Architecture recap (paper section 5):

* Two parallel arrays: a large **HR** part (high retention, 7-way in the
  paper) and a small **LR** part (low retention, 2-way) with swap buffers
  between them.
* A write hit on an HR line whose write counter has reached the threshold
  (default 1 — the modified bit) *migrates* the line to LR; the incoming
  write is performed in LR.  Lines evicted from LR return to HR through the
  LR->HR buffer.
* Misses fill into HR (a first write is "single write traffic into the HR
  part").
* Sequential search: writes probe LR tags first, reads probe HR tags first;
  the second array is probed only on a first-probe miss.
* Retention counters drive LR refresh (through the LR->HR buffer) and HR
  expiry (invalidate clean / write back dirty) — see
  :mod:`repro.core.refresh`.

The behavioural state (which line lives where) is updated eagerly; the swap
buffers model drain-port timing and overflow-to-DRAM behaviour.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.areapower.cache_model import CacheEnergyModel
from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.cache.array import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.core.buffers import MigrationBuffer
from repro.core.interface import EnergyLedger, L2AccessResult, L2Interface
from repro.core.monitor import WWSMonitor
from repro.core.refresh import RefreshEngine, cell_age
from repro.core.retention_counter import RetentionCounterSpec
from repro.core.search import SearchSelector
from repro.errors import ConfigurationError
from repro.sttram.ewt import EWTModel
from repro.sttram.retention import retention_catalogue
from repro.tracing import NULL_TRACER, TraceCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults imports core)
    from repro.faults.injector import FaultInjector

#: Retention-counter widths from the paper: 4-bit LR, 2-bit HR.
LR_COUNTER_BITS = 4
HR_COUNTER_BITS = 2


class TwoPartSTTL2(L2Interface):
    """The paper's two-part STT-RAM last-level cache."""

    #: Behavioural cache-array class used for both parts.  Engine backends
    #: (``repro.engine``) subclass this L2 and swap in an array with the
    #: same constructor signature and access semantics (docs/engine.md).
    ARRAY_FACTORY = SetAssociativeCache

    def __init__(
        self,
        hr_capacity_bytes: int,
        hr_associativity: int,
        lr_capacity_bytes: int,
        lr_associativity: int,
        line_size: int = 256,
        write_threshold: int = 1,
        hr_retention_s: float = 40e-3,
        lr_retention_s: float = 40e-6,
        buffer_lines: int = 20,
        sequential_search: bool = True,
        tech: TechnologyNode = TECH_40NM,
        track_intervals: bool = True,
        early_write_termination: bool = False,
        lr_technology: str = "stt",
        name: str = "twopart",
        tracer: Optional[TraceCollector] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        if not 0 < lr_retention_s < hr_retention_s:
            raise ConfigurationError("need 0 < LR retention < HR retention")
        if lr_technology not in ("stt", "sram"):
            raise ConfigurationError(
                f"unknown LR technology {lr_technology!r} (stt or sram)"
            )
        self.name = name
        self.line_size = line_size
        #: "stt" is the paper's design; "sram" models the hybrid
        #: SRAM+NVM organization of related work (Wu et al., ref [16])
        self.lr_technology = lr_technology
        levels = retention_catalogue(
            hr_retention_s=hr_retention_s, lr_retention_s=lr_retention_s
        )
        ewt = EWTModel() if early_write_termination else None
        #: trace collector every subcomponent reports into (no-op when off)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: optional fault injector (repro.faults); None keeps the happy
        #: path byte-identical — every hook site is guarded on it
        self.faults = faults
        self.monitor = WWSMonitor(threshold=write_threshold)
        self.selector = SearchSelector(
            sequential=sequential_search, tracer=self.tracer
        )

        self.hr_array = self.ARRAY_FACTORY(
            hr_capacity_bytes, hr_associativity, line_size,
            name=f"{name}-hr",
            write_counter_saturation=self.monitor.saturation,
            tracer=self.tracer,
        )
        self.lr_array = self.ARRAY_FACTORY(
            lr_capacity_bytes, lr_associativity, line_size, name=f"{name}-lr",
            tracer=self.tracer,
        )
        self.hr_model = CacheEnergyModel(
            hr_capacity_bytes, hr_associativity, line_size,
            sram_data=False, retention_level=levels["hr"],
            extra_status_bits=HR_COUNTER_BITS + self.monitor.counter_bits,
            tech=tech,
            ewt=ewt,
        )
        lr_is_sram = lr_technology == "sram"
        self.lr_model = CacheEnergyModel(
            lr_capacity_bytes, lr_associativity, line_size,
            sram_data=lr_is_sram,
            retention_level=None if lr_is_sram else levels["lr"],
            extra_status_bits=0 if lr_is_sram else LR_COUNTER_BITS,
            tech=tech,
            ewt=None if lr_is_sram else ewt,
        )
        # an SRAM LR part never expires and needs no retention counters
        self.lr_spec = (
            None if lr_is_sram
            else RetentionCounterSpec(LR_COUNTER_BITS, lr_retention_s)
        )
        self.hr_spec = RetentionCounterSpec(HR_COUNTER_BITS, hr_retention_s)
        self.refresh_engine = RefreshEngine(
            self.lr_array, self.hr_array, self.lr_spec, self.hr_spec,
            tracer=self.tracer, faults=faults,
        )
        self.hr_to_lr = MigrationBuffer(
            buffer_lines, self.lr_model.data_array.write_latency, name="hr->lr",
            tracer=self.tracer,
        )
        self.lr_to_hr = MigrationBuffer(
            buffer_lines, self.hr_model.data_array.write_latency, name="lr->hr",
            tracer=self.tracer,
        )
        if self.tracer.enabled:
            # make the emitted trace self-describing (docs/metrics.md)
            self.tracer.metadata["l2"] = {
                "name": name,
                "lr_technology": lr_technology,
                "write_threshold": write_threshold,
                "buffer_lines": buffer_lines,
                "sequential_search": sequential_search,
                "hr_spec": self.hr_spec.as_dict(),
                "lr_spec": (
                    self.lr_spec.as_dict() if self.lr_spec is not None else None
                ),
            }

        # Hot-path scalars: the physical figures are fixed at construction,
        # so resolve the per-access probe-energy sums and the tag latency
        # once (the additions keep _probe_energy's first+second order, so
        # the floats are bit-identical to per-access recomputation).
        self._hr_tag_access_latency = self.hr_model.tag_array.access_latency
        # bound methods / part internals resolved once for the access path
        self._line_address = self.hr_array.mapper.line_address
        self._lr_split = self.lr_array.mapper.split
        self._hr_split = self.hr_array.mapper.split
        models = {"lr": self.lr_model, "hr": self.hr_model}
        self._probe_energy_table: Dict[bool, Dict[int, float]] = {}
        for write_access in (False, True):
            order = self.selector.probe_order(write_access)
            first = models[order[0]].tag_probe_energy
            self._probe_energy_table[write_access] = {
                1: first,
                2: first + models[order[1]].tag_probe_energy,
            }

        self._energy = EnergyLedger()
        #: data-array write operations per part (Fig. 4 inputs)
        self.lr_data_writes = 0
        self.hr_data_writes = 0
        self.refresh_writes = 0
        self.migrations_to_lr = 0
        self.returns_to_hr = 0
        self.dram_writebacks_total = 0
        self.data_losses = 0
        self.track_intervals = track_intervals
        #: demand rewrite intervals observed in LR (Fig. 6 input), seconds
        self.rewrite_intervals: List[float] = []

    # ------------------------------------------------------------------
    # location / expiry
    # ------------------------------------------------------------------

    def _locate(self, line: int, now: float) -> tuple:
        """Find the part (and block) holding a line, expiring stale residents.

        Returns ``(part, block)`` — ``("lr", block)``, ``("hr", block)`` or
        ``(None, None)`` — so the serve paths reuse the located block rather
        than re-probing the array.  The split/lookup chain is inlined (the
        two probes run on every single L2 access).

        With a fault injector attached, the demand probe doubles as the
        detection read: a block whose sampled lifetime already elapsed is
        treated like a deterministic expiry (dirty data is lost but
        *accounted*), while a hit served without consulting the injector
        would be an undetected corruption — the injector's
        ``on_hit_served`` audit records exactly that case.
        """
        faults = self.faults
        block = None
        tag, index = self._lr_split(line)
        cache_set = self.lr_array.sets[index]
        way = cache_set.lookup(tag)
        if way is not None:
            block = cache_set.blocks[way]
        if block is not None:
            expired = (
                self.lr_spec is not None
                and cell_age(block, now) >= self.lr_spec.retention_s
            )
            if not expired and faults is not None:
                expired = faults.collapsed("lr", line, now)
            if expired:
                dirty = block.dirty
                if dirty:
                    self.data_losses += 1
                    self.tracer.count("l2.data_losses")
                if faults is not None:
                    faults.on_invalidated("lr", line, dirty, now)
                self.lr_array.invalidate(line)
                self.tracer.count("l2.expiry.access_path_invalidations")
            else:
                if faults is not None:
                    faults.on_hit_served("lr", line, now)
                return "lr", block
        block = None
        tag, index = self._hr_split(line)
        cache_set = self.hr_array.sets[index]
        way = cache_set.lookup(tag)
        if way is not None:
            block = cache_set.blocks[way]
        if block is not None:
            expired = cell_age(block, now) >= self.hr_spec.retention_s
            if not expired and faults is not None:
                expired = faults.collapsed("hr", line, now)
            if expired:
                dirty = block.dirty
                if dirty:
                    self.data_losses += 1
                    self.tracer.count("l2.data_losses")
                if faults is not None:
                    faults.on_invalidated("hr", line, dirty, now)
                self.hr_array.invalidate(line)
                self.tracer.count("l2.expiry.access_path_invalidations")
            else:
                if faults is not None:
                    faults.on_hit_served("hr", line, now)
                return "hr", block
        return None, None

    # ------------------------------------------------------------------
    # maintenance: buffer drains + retention sweeps
    # ------------------------------------------------------------------

    def maintenance(self, now: float) -> int:
        """Drain buffers and run due retention sweeps; returns DRAM write-backs."""
        # draining an empty buffer is a no-op; skip the call on the hot path
        # (the deque is read directly — __len__ would cost a call per access)
        if self.hr_to_lr._entries:
            self.hr_to_lr.drain_ready(now)
        if self.lr_to_hr._entries:
            self.lr_to_hr.drain_ready(now)
        writebacks = 0
        if not self.refresh_engine.due(now):
            return 0
        faults = self.faults
        actions = self.refresh_engine.sweep(now)
        for address in actions.lr_refresh:
            block = self.lr_array.block_at(address)
            if block is None:
                continue
            if faults is not None and faults.collapsed("lr", address, now):
                # the refresh read arrives after the cells collapsed; the
                # line cannot be rewritten — drop it, dirty data is lost
                dirty = block.dirty
                if dirty:
                    self.data_losses += 1
                    self.tracer.count("l2.data_losses")
                faults.on_invalidated("lr", address, dirty, now)
                self.lr_array.invalidate(address)
                self.tracer.count("l2.expiry.refresh_path_invalidations")
                continue
            # buffer-assisted refresh: read out, write back, clock restarts
            block.insert_time = now
            self._energy.refresh_j += (
                self.lr_model.data_read_energy + self.lr_model.data_write_energy
            )
            self.refresh_writes += 1
            self.tracer.count("l2.refresh_writes")
            if faults is not None:
                # the refresh rewrite re-samples the cells' lifetimes and
                # is itself subject to MTJ write errors (retry energy)
                attempts = faults.on_data_write("lr", address, now)
                if attempts > 1:
                    self._energy.refresh_j += (
                        (attempts - 1) * self.lr_model.data_write_energy
                    )
        for address in actions.lr_lost:
            block = self.lr_array.block_at(address)
            dirty = block is not None and block.dirty
            if dirty:
                self.data_losses += 1
                self.tracer.count("l2.data_losses")
            if faults is not None and block is not None:
                faults.on_invalidated("lr", address, dirty, now)
            self.lr_array.invalidate(address)
        for address in actions.hr_drop_clean:
            if faults is not None:
                faults.on_invalidated("hr", address, False, now)
            self.hr_array.invalidate(address)
        for address in actions.hr_drop_dirty:
            # forced write-back before the data decays
            self._energy.refresh_j += self.hr_model.data_read_energy
            if faults is not None:
                # the write-back read verifies the block on its way out
                faults.on_invalidated("hr", address, True, now)
            self.hr_array.invalidate(address)
            writebacks += 1
        self.dram_writebacks_total += writebacks
        if writebacks and self.tracer.enabled:
            self.tracer.count("l2.expiry.hr_writebacks", writebacks)
        return writebacks

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool, now: float) -> L2AccessResult:
        line = self._line_address(address)
        writebacks = self.maintenance(now)
        part, block = self._locate(line, now)
        probes = self.selector.record(is_write, part or "miss")
        energy = self._probe_energy(is_write, probes)
        tag_latency = self.selector.latency_factor(probes) * (
            self._hr_tag_access_latency
        )

        if part == "lr":
            result = self._serve_lr(line, is_write, now, energy, tag_latency, block)
        elif part == "hr":
            result = self._serve_hr(line, is_write, now, energy, tag_latency, block)
        else:
            result = self._serve_miss(line, is_write, now, energy, tag_latency)
        result.dram_writebacks += writebacks
        result.probes = probes
        if self.tracer.enabled:
            self.tracer.count(f"l2.serve.{part or 'miss'}")
        return result

    def _probe_energy(self, is_write: bool, probes: int) -> float:
        """Tag-probe energy for this access (precomputed per probe count)."""
        return self._probe_energy_table[is_write][1 if probes < 2 else 2]

    def _serve_lr(
        self, line: int, is_write: bool, now: float, energy: float,
        tag_latency: float, block=None,
    ) -> L2AccessResult:
        if is_write and self.track_intervals:
            if block is None:
                block = self.lr_array.block_at(line)
            if block is not None and block.last_write_time > 0:
                self.rewrite_intervals.append(now - block.last_write_time)
        self.lr_array.access(line, is_write, now)
        if is_write:
            energy += self.lr_model.data_write_energy
            latency = tag_latency + self.lr_model.data_array.write_latency
            self.lr_data_writes += 1
            if self.faults is not None:
                attempts = self.faults.on_data_write("lr", line, now)
                if attempts > 1:
                    # retries serialise on the write port
                    energy += (attempts - 1) * self.lr_model.data_write_energy
                    latency += (
                        (attempts - 1) * self.lr_model.data_array.write_latency
                    )
        else:
            energy += self.lr_model.data_read_energy
            latency = tag_latency + self.lr_model.data_array.read_latency
        self._energy.demand_j += energy
        return L2AccessResult(hit=True, part="lr", latency_s=latency, energy_j=energy)

    def _serve_hr(
        self, line: int, is_write: bool, now: float, energy: float,
        tag_latency: float, block=None,
    ) -> L2AccessResult:
        if not is_write:
            self.hr_array.access(line, is_write, now)
            energy += self.hr_model.data_read_energy
            self._energy.demand_j += energy
            return L2AccessResult(
                hit=True, part="hr",
                latency_s=tag_latency + self.hr_model.data_array.read_latency,
                energy_j=energy,
            )
        if block is None:
            block = self.hr_array.block_at(line)
        assert block is not None
        if self.monitor.should_migrate(block):
            return self._migrate_and_write(line, now, energy, tag_latency)
        # below threshold: the write is served by the HR array
        self.hr_array.access(line, True, now)
        energy += self.hr_model.data_write_energy
        latency = tag_latency + self.hr_model.data_array.write_latency
        self.hr_data_writes += 1
        if self.faults is not None:
            attempts = self.faults.on_data_write("hr", line, now)
            if attempts > 1:
                energy += (attempts - 1) * self.hr_model.data_write_energy
                latency += (attempts - 1) * self.hr_model.data_array.write_latency
        self._energy.demand_j += energy
        return L2AccessResult(
            hit=True, part="hr",
            latency_s=latency,
            energy_j=energy,
        )

    def _migrate_and_write(
        self, line: int, now: float, energy: float, tag_latency: float
    ) -> L2AccessResult:
        """HR write hit above threshold: move the line to LR, write there."""
        writebacks = 0
        migration_energy = self.hr_model.data_read_energy  # read out of HR
        # account the HR demand write-hit before the line leaves (keeps the
        # merged hit/miss statistics exact)
        self.hr_array.access(line, True, now)
        self.hr_array.extract(line)
        if self.faults is not None:
            # the migration read vacates any armed fault on the HR copy
            self.faults.discard("hr", line)
        writebacks += self._buffer_push(self.hr_to_lr, line, True, now)
        self.migrations_to_lr += 1
        if self.tracer.enabled:
            self.tracer.count("l2.migrations_to_lr")
            self.tracer.event(
                "l2.migrate", now, component="l2",
                line=line, hr_to_lr_occupancy=len(self.hr_to_lr),
            )

        fill = self.lr_array.fill(line, now, dirty=True)
        migration_energy += self.lr_model.data_write_energy
        self.lr_data_writes += 1
        if self.faults is not None:
            attempts = self.faults.on_data_write("lr", line, now)
            if attempts > 1:
                migration_energy += (
                    (attempts - 1) * self.lr_model.data_write_energy
                )
        if fill.evicted_address is not None:
            writebacks += self._return_to_hr(
                fill.evicted_address, fill.evicted_dirty, now
            )
        self._energy.demand_j += energy
        self._energy.migration_j += migration_energy
        return L2AccessResult(
            hit=True, part="lr",
            latency_s=tag_latency + self.lr_model.data_array.write_latency,
            energy_j=energy + migration_energy,
            dram_writebacks=writebacks,
            migrated=True,
        )

    def _return_to_hr(self, victim_line: int, victim_dirty: bool, now: float) -> int:
        """An LR eviction returns to HR through the LR->HR buffer."""
        writebacks = 0
        self._energy.migration_j += self.lr_model.data_read_energy
        if self.faults is not None:
            # the migration read verifies the victim on its way out of LR
            self.faults.on_invalidated("lr", victim_line, victim_dirty, now)
        writebacks += self._buffer_push(self.lr_to_hr, victim_line, victim_dirty, now)
        self.returns_to_hr += 1
        self.tracer.count("l2.returns_to_hr")
        outcome = self.hr_array.fill(victim_line, now, dirty=victim_dirty)
        self._energy.migration_j += self.hr_model.data_write_energy
        self.hr_data_writes += 1
        if self.faults is not None:
            attempts = self.faults.on_data_write("hr", victim_line, now)
            if attempts > 1:
                self._energy.migration_j += (
                    (attempts - 1) * self.hr_model.data_write_energy
                )
            if outcome.evicted_address is not None:
                self.faults.on_invalidated(
                    "hr", outcome.evicted_address, outcome.evicted_dirty, now
                )
        if outcome.evicted_dirty:
            # _buffer_push already accounted any overflow write-back in
            # dram_writebacks_total; only the HR eviction is new here
            # (adding the summed ``writebacks`` double-counted overflows)
            writebacks += 1
            self.dram_writebacks_total += 1
        return writebacks

    def _buffer_push(
        self, buffer: MigrationBuffer, line: int, dirty: bool, now: float
    ) -> int:
        """Push into a swap buffer, forcing the oldest entry to DRAM if full."""
        writebacks = 0
        if buffer.full:
            _, popped_dirty = buffer.force_pop()
            if popped_dirty:
                writebacks += 1
                self.dram_writebacks_total += 1
            if self.faults is not None:
                self.faults.on_buffer_overflow(buffer.name, popped_dirty)
            if self.tracer.enabled:
                if popped_dirty:
                    self.tracer.count("l2.buffer_overflow_writebacks")
                self.tracer.event(
                    "l2.buffer_overflow", now,
                    component=f"l2.buffer.{buffer.name}",
                    buffer=buffer.name, dirty=popped_dirty,
                )
        buffer.push(line, dirty, now)
        return writebacks

    def _serve_miss(
        self, line: int, is_write: bool, now: float, energy: float, tag_latency: float
    ) -> L2AccessResult:
        outcome = self.hr_array.access(line, is_write, now)
        fill_energy = self.hr_model.fill_energy if outcome.filled else 0.0
        if outcome.filled:
            self.hr_data_writes += 1
        writebacks = 1 if outcome.evicted_dirty else 0
        self.dram_writebacks_total += writebacks
        if self.faults is not None:
            if outcome.evicted_address is not None:
                # the eviction read verifies the departing block
                self.faults.on_invalidated(
                    "hr", outcome.evicted_address, outcome.evicted_dirty, now
                )
            if outcome.filled:
                attempts = self.faults.on_data_write("hr", line, now)
                if attempts > 1:
                    fill_energy += (
                        (attempts - 1) * self.hr_model.data_write_energy
                    )
        self._energy.demand_j += energy
        self._energy.fill_j += fill_energy
        return L2AccessResult(
            hit=False, part="miss",
            latency_s=tag_latency + self.hr_model.data_array.read_latency,
            energy_j=energy + fill_energy,
            dram_fetch=True,
            dram_writebacks=writebacks,
        )

    # ------------------------------------------------------------------
    # roll-ups
    # ------------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """Canonical JSON-safe dump of the architectural state.

        One entry per resident line (keyed by line address rendered in hex
        so JSON keys sort stably) with the retention-relevant metadata,
        plus both migration-buffer snapshots.  The differential oracle
        compares this against its reference model's snapshot; invariant
        checkers and bug reports can embed it as-is.
        """
        parts = {}
        for part_name, array in (("lr", self.lr_array), ("hr", self.hr_array)):
            rebuild = array.mapper.rebuild
            lines = {}
            for index, _, block in array.iter_blocks():
                if not block.valid:
                    continue
                lines[f"{rebuild(block.tag, index):#x}"] = {
                    "dirty": block.dirty,
                    "write_count": block.write_count,
                    "insert_time": block.insert_time,
                    "last_write_time": block.last_write_time,
                }
            parts[part_name] = lines
        return {
            "parts": parts,
            "buffers": {
                "hr_to_lr": self.hr_to_lr.snapshot(),
                "lr_to_hr": self.lr_to_hr.snapshot(),
            },
        }

    def dirty_lines(self) -> int:
        """Dirty residents across both parts (eventual write-back debt)."""
        return self.lr_array.dirty_count() + self.hr_array.dirty_count()

    @property
    def stats(self) -> CacheStats:
        """Demand statistics summed over both parts."""
        hr = self.hr_array.stats
        return CacheStats(**{
            name: count + getattr(hr, name)
            for name, count in vars(self.lr_array.stats).items()
        })

    @property
    def energy(self) -> EnergyLedger:
        return self._energy

    @property
    def leakage_power(self) -> float:
        return self.hr_model.leakage_power + self.lr_model.leakage_power

    @property
    def area(self) -> float:
        return self.hr_model.area + self.lr_model.area

    @property
    def lr_write_share(self) -> float:
        """Fraction of demand/migration data writes served by the LR part."""
        total = self.lr_data_writes + self.hr_data_writes
        return self.lr_data_writes / total if total else 0.0

    @property
    def total_data_writes(self) -> int:
        """All data-array write operations (demand, fills, migrations)."""
        return self.lr_data_writes + self.hr_data_writes
