"""Lockstep differential runner: optimized L2 vs the naive reference.

The runner replays one access sequence through a
:class:`~repro.core.twopart.TwoPartSTTL2` (the device under test) and a
:class:`~repro.oracle.reference.ReferenceTwoPartL2` simultaneously and
diffs, after every access:

* the :class:`~repro.core.interface.L2AccessResult` fields (hit, part,
  latency, energy, DRAM traffic, probes, migration flag) — floats compared
  for **exact** equality, since the reference mirrors the DUT's
  accumulation order;
* the full flat counter surface (per-part cache stats, buffer stats,
  refresh/monitor/search stats, the energy ledger);
* the most recent refresh-sweep decisions (via the
  ``RefreshEngine.last_actions`` seam).

At end of sequence the two architectural state snapshots (resident lines
with dirty/write-count/retention clocks, plus both migration buffers) are
compared as well.  The first mismatch stops the run and is reported as a
divergence record naming every differing field.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import GPUConfig, L2Config
from repro.core.factory import twopart_kwargs
from repro.core.twopart import TwoPartSTTL2
from repro.errors import OracleError
from repro.oracle.reference import ReferenceTwoPartL2
from repro.tracing import NULL_TRACER, TraceCollector

#: One lockstep access: ``(byte_address, is_write, now_seconds)``.
Access = Tuple[int, bool, float]

#: Default lockstep timestep.  The paper-default LR retention tick is
#: 40us / 2**4 = 2.5us, so a 2us step makes an LR sweep due between most
#: consecutive accesses — maximal refresh-timing pressure per access.
DEFAULT_DT_S = 2e-6

_RESULT_FIELDS = (
    "hit", "part", "latency_s", "energy_j",
    "dram_fetch", "dram_writebacks", "probes", "migrated",
)


def l2_kwargs_from_config(l2: L2Config) -> Dict[str, Any]:
    """Constructor keywords shared by the DUT and the reference model.

    Only the paper's plain two-part organization is diffable: the
    reference deliberately does not re-implement the SRAM-LR hybrid or
    early-write-termination variants.
    """
    if l2.kind != "twopart":
        raise OracleError(
            f"the differential oracle needs a two-part L2 config, "
            f"got kind {l2.kind!r}"
        )
    if l2.lr_technology != "stt":
        raise OracleError("the oracle reference models only the STT LR part")
    if l2.early_write_termination:
        raise OracleError("the oracle reference does not model EWT")
    kwargs = twopart_kwargs(l2)
    # the refusals above leave both at the DUT's defaults; the reference
    # takes neither
    del kwargs["early_write_termination"], kwargs["lr_technology"]
    return kwargs


def pressure_config(name: str = "oracle-small") -> GPUConfig:
    """A deliberately tiny two-part config for fast mutant hunting.

    Same architecture and paper-default retention/threshold parameters as
    C1-C3, but a 16 KB 4-way HR and a 2 KB 2-way LR (4 sets), so capacity
    pressure — LR evictions, HR migrations, buffer traffic — builds within
    tens of accesses instead of thousands.  The mutant self-tests and the
    shrinker run against this; production zero-divergence checks use the
    real Table 2 configurations.
    """
    from repro.config import L2Config, L2PartConfig
    from repro.units import KB

    return GPUConfig(
        name=name,
        l2=L2Config(
            kind="twopart",
            main=L2PartConfig(capacity_bytes=16 * KB, associativity=4),
            lr=L2PartConfig(capacity_bytes=2 * KB, associativity=2),
        ),
    )


def dut_counters(l2: TwoPartSTTL2) -> Dict[str, float]:
    """The DUT's counter surface, flattened to the reference's key space."""
    flat: Dict[str, float] = {
        "l2.lr_data_writes": l2.lr_data_writes,
        "l2.hr_data_writes": l2.hr_data_writes,
        "l2.refresh_writes": l2.refresh_writes,
        "l2.migrations_to_lr": l2.migrations_to_lr,
        "l2.returns_to_hr": l2.returns_to_hr,
        "l2.dram_writebacks_total": l2.dram_writebacks_total,
        "l2.data_losses": l2.data_losses,
        "l2.rewrite_intervals": len(l2.rewrite_intervals),
    }
    for part, array in (("lr", l2.lr_array), ("hr", l2.hr_array)):
        stats = array.stats
        flat[f"{part}.reads"] = stats.reads
        flat[f"{part}.writes"] = stats.writes
        flat[f"{part}.read_hits"] = stats.read_hits
        flat[f"{part}.write_hits"] = stats.write_hits
        flat[f"{part}.fills"] = stats.fills
        flat[f"{part}.evictions_clean"] = stats.evictions_clean
        flat[f"{part}.evictions_dirty"] = stats.evictions_dirty
        flat[f"{part}.invalidations"] = stats.invalidations
    for name, buffer in (("hr_to_lr", l2.hr_to_lr), ("lr_to_hr", l2.lr_to_hr)):
        stats = buffer.stats
        flat[f"buffer.{name}.pushes"] = stats.pushes
        flat[f"buffer.{name}.drains"] = stats.drains
        flat[f"buffer.{name}.overflows"] = stats.overflows
        flat[f"buffer.{name}.peak_occupancy"] = stats.peak_occupancy
        flat[f"buffer.{name}.occupancy"] = len(buffer)
    refresh = l2.refresh_engine.stats
    flat["refresh.scans"] = refresh.scans
    flat["refresh.lr_refreshes"] = refresh.lr_refreshes
    flat["refresh.lr_expiries"] = refresh.lr_expiries
    flat["refresh.hr_expirations_clean"] = refresh.hr_expirations_clean
    flat["refresh.hr_expirations_dirty"] = refresh.hr_expirations_dirty
    monitor = l2.monitor.stats
    flat["monitor.writes_observed"] = monitor.writes_observed
    flat["monitor.migrations_triggered"] = monitor.migrations_triggered
    search = l2.selector.stats
    flat["search.accesses"] = search.accesses
    flat["search.first_probe_hits"] = search.first_probe_hits
    flat["search.second_probes"] = search.second_probes
    energy = l2.energy
    flat["energy.demand_j"] = energy.demand_j
    flat["energy.migration_j"] = energy.migration_j
    flat["energy.refresh_j"] = energy.refresh_j
    flat["energy.fill_j"] = energy.fill_j
    return flat


def _dut_sweep_decisions(l2: TwoPartSTTL2) -> Optional[dict]:
    actions = l2.refresh_engine.last_actions
    return actions.as_dict() if actions is not None else None


def _ref_sweep_decisions(ref: ReferenceTwoPartL2) -> Optional[dict]:
    actions = ref.last_sweep_actions
    if actions is None:
        return None
    return {key: sorted(lines) for key, lines in actions.items()}


def _diff_snapshots(dut_snap: dict, ref_snap: dict) -> List[dict]:
    """Field-level differences between two state snapshots."""
    fields: List[dict] = []
    for part in ("lr", "hr"):
        dut_lines = dut_snap["parts"][part]
        ref_lines = ref_snap["parts"][part]
        only_dut = sorted(set(dut_lines) - set(ref_lines))
        only_ref = sorted(set(ref_lines) - set(dut_lines))
        if only_dut or only_ref:
            fields.append({
                "field": f"state.{part}.residents",
                "dut": only_dut,
                "ref": only_ref,
            })
        for line in sorted(set(dut_lines) & set(ref_lines)):
            if dut_lines[line] != ref_lines[line]:
                fields.append({
                    "field": f"state.{part}.line.{line}",
                    "dut": dut_lines[line],
                    "ref": ref_lines[line],
                })
    for name in ("hr_to_lr", "lr_to_hr"):
        if dut_snap["buffers"][name] != ref_snap["buffers"][name]:
            fields.append({
                "field": f"state.buffer.{name}",
                "dut": dut_snap["buffers"][name],
                "ref": ref_snap["buffers"][name],
            })
    return fields


class LockstepRunner:
    """Drives one DUT/reference pair through an access sequence.

    Parameters
    ----------
    dut:
        The optimized two-part L2 under test (possibly a mutant subclass).
    ref:
        The naive reference model, built with identical parameters.
    tracer:
        Optional :class:`~repro.tracing.TraceCollector`.  The runner
        counts every checked access (``oracle.accesses_checked``) and, on
        divergence, emits one ``oracle.divergence`` instant event at the
        simulated time of the diverging access — so the oracle's verdict
        lands on the same timeline as the DUT's own ``l2.*`` trace events
        and the divergence can be scrubbed to in Perfetto.
    """

    def __init__(
        self,
        dut: TwoPartSTTL2,
        ref: ReferenceTwoPartL2,
        tracer: Optional[TraceCollector] = None,
    ) -> None:
        self.dut = dut
        self.ref = ref
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _step_divergence(
        self, index: int, access: Access,
        dut_result, ref_result,
    ) -> Optional[dict]:
        """Compare one access's observable outcomes; None when identical."""
        fields: List[dict] = []
        for name in _RESULT_FIELDS:
            dut_value = getattr(dut_result, name)
            ref_value = getattr(ref_result, name)
            if dut_value != ref_value:
                fields.append(
                    {"field": f"result.{name}", "dut": dut_value, "ref": ref_value}
                )
        dut_counts = dut_counters(self.dut)
        ref_counts = self.ref.counters()
        for name in sorted(set(dut_counts) | set(ref_counts)):
            dut_value = dut_counts.get(name)
            ref_value = ref_counts.get(name)
            if dut_value != ref_value:
                fields.append(
                    {"field": f"counter.{name}", "dut": dut_value, "ref": ref_value}
                )
        dut_sweep = _dut_sweep_decisions(self.dut)
        ref_sweep = _ref_sweep_decisions(self.ref)
        if dut_sweep != ref_sweep:
            fields.append(
                {"field": "refresh.last_actions", "dut": dut_sweep, "ref": ref_sweep}
            )
        if not fields:
            return None
        address, is_write, now = access
        return {
            "index": index,
            "now_s": now,
            "address": address,
            "is_write": is_write,
            "fields": fields,
        }

    def run(self, sequence: List[Access]) -> Optional[dict]:
        """Replay ``sequence`` through both models; first divergence or None.

        The end-of-sequence architectural state comparison reports its
        divergence at ``index == len(sequence)`` with the last access's
        timestamp (or 0.0 for an empty sequence).
        """
        tracer = self.tracer
        last_now = 0.0
        for index, (address, is_write, now) in enumerate(sequence):
            last_now = now
            dut_result = self.dut.access(address, is_write, now)
            ref_result = self.ref.access(address, is_write, now)
            tracer.count("oracle.accesses_checked")
            divergence = self._step_divergence(
                index, (address, is_write, now), dut_result, ref_result
            )
            if divergence is not None:
                self._trace_divergence(divergence)
                return divergence
        fields = _diff_snapshots(
            self.dut.state_snapshot(), self.ref.state_snapshot()
        )
        if fields:
            divergence = {
                "index": len(sequence),
                "now_s": last_now,
                "address": None,
                "is_write": None,
                "fields": fields,
            }
            self._trace_divergence(divergence)
            return divergence
        return None

    def _trace_divergence(self, divergence: dict) -> None:
        if not self.tracer.enabled:
            return
        self.tracer.count("oracle.divergences")
        self.tracer.event(
            "oracle.divergence", divergence["now_s"], component="oracle",
            index=divergence["index"],
            address=divergence["address"],
            fields=[f["field"] for f in divergence["fields"]],
        )


def make_pair(
    config: GPUConfig,
    mutant: Optional[str] = None,
    tracer: Optional[TraceCollector] = None,
    engine: str = "object",
) -> Tuple[TwoPartSTTL2, ReferenceTwoPartL2]:
    """Build a (DUT, reference) pair from one Table 2 configuration.

    ``mutant`` selects a deliberately broken DUT variant from
    :data:`repro.oracle.mutants.MUTANTS` (oracle self-tests); ``None``
    builds the production DUT.  ``engine`` picks which production model is
    the DUT: the ``object`` :class:`TwoPartSTTL2` or the ``soa``
    structure-of-arrays subclass (see docs/engine.md).  Mutants are
    object-engine subclasses, so ``mutant`` requires ``engine="object"``,
    and so does an enabled ``tracer``.
    """
    if engine not in ("object", "soa"):
        raise OracleError(f"unknown engine {engine!r}; expected object or soa")
    kwargs = l2_kwargs_from_config(config.l2)
    if engine == "soa" and tracer is not None and tracer.enabled:
        raise OracleError(
            "the soa engine does not support per-access tracing; "
            "drop --engine soa or --trace-out"
        )
    if mutant is None:
        if engine == "soa":
            from repro.engine.soa_l2 import SoaTwoPartL2

            dut: TwoPartSTTL2 = SoaTwoPartL2(tracer=tracer, **kwargs)
        else:
            dut = TwoPartSTTL2(tracer=tracer, **kwargs)
    elif engine != "object":
        raise OracleError(
            f"mutant {mutant!r} is an object-engine variant; "
            "drop --engine soa to run it"
        )
    else:
        from repro.oracle.mutants import build_mutant

        dut = build_mutant(mutant, tracer=tracer, **kwargs)
    ref = ReferenceTwoPartL2(**kwargs)
    return dut, ref


def diverges(
    config: GPUConfig,
    sequence: List[Access],
    mutant: Optional[str] = None,
    engine: str = "object",
) -> bool:
    """Does ``sequence`` make a fresh DUT/reference pair diverge?

    This is the shrinker's test predicate: every evaluation rebuilds both
    models so candidate subsequences are judged from a clean state.
    """
    dut, ref = make_pair(config, mutant=mutant, engine=engine)
    return LockstepRunner(dut, ref).run(sequence) is not None


def run_diff(
    profile: str,
    config: GPUConfig,
    seed: int = 0,
    accesses: int = 4000,
    dt_s: float = DEFAULT_DT_S,
    shrink: bool = False,
    mutant: Optional[str] = None,
    tracer: Optional[TraceCollector] = None,
    shrink_predicate: Optional[Callable[[List[Access]], bool]] = None,
    engine: str = "object",
) -> dict:
    """Run the full differential check for one workload profile.

    Builds the seeded synthetic workload, replays it in lockstep, and
    returns a divergence report document (see
    :func:`repro.oracle.report.build_report`).  With ``shrink=True`` a
    divergence is reduced to a minimal reproducing access sequence via
    :func:`repro.oracle.shrink.shrink_sequence` before reporting.
    ``engine`` selects the DUT backend diffed against the naive
    reference (see :func:`make_pair`).
    """
    from repro.oracle.report import build_report
    from repro.oracle.shrink import shrink_sequence
    from repro.workloads.suite import build_workload

    if accesses < 1:
        raise OracleError(f"need at least one access, got {accesses}")
    workload = build_workload(profile, num_accesses=accesses, seed=seed)
    sequence = workload.trace.lockstep_sequence(dt_s)
    dut, ref = make_pair(config, mutant=mutant, tracer=tracer, engine=engine)
    runner = LockstepRunner(dut, ref, tracer=tracer)
    divergence = runner.run(sequence)

    shrunk: Optional[dict] = None
    if divergence is not None and shrink:
        predicate = shrink_predicate or (
            lambda candidate: diverges(
                config, candidate, mutant=mutant, engine=engine
            )
        )
        # everything after the diverging access is irrelevant by definition
        prefix = sequence[: min(divergence["index"] + 1, len(sequence))]
        minimal = shrink_sequence(prefix, predicate)
        dut_min, ref_min = make_pair(config, mutant=mutant, engine=engine)
        shrunk = {
            "accesses": [[a, w, t] for a, w, t in minimal],
            "divergence": LockstepRunner(dut_min, ref_min).run(minimal),
        }
    return build_report(
        profile=profile,
        config=config.name,
        seed=seed,
        accesses=accesses,
        dt_s=dt_s,
        mutant=mutant,
        engine=engine,
        checked_accesses=(
            len(sequence) if divergence is None
            else min(divergence["index"] + 1, len(sequence))
        ),
        divergence=divergence,
        shrunk=shrunk,
        counters=dut_counters(dut),
    )
