"""Named fault-injection campaigns and their deterministic JSON reports.

A campaign pins everything stochastic — workload, configuration, trace
length, the :class:`~repro.faults.FaultPlan` and its seed — so one
``(campaign, seed)`` pair always produces a byte-identical report (no
timestamps, no host metadata; :func:`repro.io.canonical_json` of two runs
compares equal).  Each campaign shortens the L2's retention windows and/or
shrinks its migration buffers so faults actually manifest inside the short
dilated-time span a CI-sized trace covers.

The four campaigns map to the four failure stories of the paper's
architecture:

``retention``
    Stochastic retention-bit collapse in both parts; the checker must
    prove every collapsed dirty block was detected (never silently
    served) and accounted as a data loss or saved by a write-back.
``buffer-overflow``
    Migration buffers shrunk to a single line; overflows must fall back
    to DRAM write-backs instead of dropping dirty data.
``write-error``
    MTJ write failures with a bounded retry budget; exhausted budgets
    leave corrupt cells the read paths must catch.
``refresh-starvation``
    Sweeps rescheduled late so LR blocks race their retention window;
    losses must surface as accounted expiries, not corrupt hits.

``repro-sttgpu inject <campaign>`` is the CLI surface; ``docs/faults.md``
documents the report schema.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.config import all_configs
from repro.core.factory import twopart_kwargs
from repro.core.twopart import TwoPartSTTL2
from repro.errors import FaultInjectionError
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.invariants import DEFAULT_CHECK_INTERVAL, InvariantChecker
from repro.gpu.simulator import TIME_DILATION, GPUSimulator
from repro.io import write_json_atomic
from repro.tracing import TraceCollector
from repro.workloads import build_workload

#: Schema version stamped into every campaign report.
REPORT_SCHEMA_VERSION = 1

#: Document ``kind`` marker (guards against validating the wrong JSON).
REPORT_KIND = "fault-campaign"

#: Default trace length: long enough (on the dilated L2 clock) for several
#: LR retention periods under the campaign overrides, short enough for CI.
DEFAULT_TRACE_LENGTH = 6000


@dataclass(frozen=True)
class CampaignSpec:
    """One named campaign: pinned inputs plus the fault plan template.

    ``plan.seed`` is a placeholder — :func:`run_campaign` replaces it with
    the caller's seed.  ``l2_overrides`` are applied to the configuration's
    :class:`~repro.config.L2Config` with :func:`dataclasses.replace`
    (shortened retentions, shrunken buffers).
    """

    name: str
    description: str
    workload: str
    config: str
    plan: FaultPlan
    l2_overrides: Mapping[str, Any] = field(default_factory=dict)
    trace_length: int = DEFAULT_TRACE_LENGTH
    #: L2-clock dilation for the run; the overflow campaign slows the L2
    #: clock below the buffers' drain latency so entries pile up
    time_dilation: float = TIME_DILATION


#: Campaign-speed retention windows: a few LR periods and at least one HR
#: period fit inside a DEFAULT_TRACE_LENGTH run's dilated time span.
_FAST_RETENTION = {"lr_retention_s": 4e-6, "hr_retention_s": 8e-5}

#: The campaign catalog (name -> spec); ``docs/faults.md`` mirrors this.
CAMPAIGNS: Dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        CampaignSpec(
            name="retention",
            description=(
                "stochastic retention-bit collapse in both parts; dirty "
                "data must never be lost without detection"
            ),
            workload="bfs",
            config="C1",
            plan=FaultPlan(retention_collapse=True, collapse_scale=1.0),
            l2_overrides=_FAST_RETENTION,
        ),
        CampaignSpec(
            name="buffer-overflow",
            description=(
                "migration buffers shrunk to one line; every overflow must "
                "fall back to a DRAM write-back"
            ),
            workload="bfs",
            config="C1",
            plan=FaultPlan(),
            l2_overrides={"migration_buffer_lines": 1},
            time_dilation=0.01,
        ),
        CampaignSpec(
            name="write-error",
            description=(
                "MTJ write errors with a bounded retry budget; exhausted "
                "budgets corrupt cells the read paths must catch"
            ),
            workload="bfs",
            config="C1",
            plan=FaultPlan(
                write_errors=True,
                write_error_rate=0.2,
                max_write_retries=2,
            ),
            l2_overrides=_FAST_RETENTION,
        ),
        CampaignSpec(
            name="refresh-starvation",
            description=(
                "refresh sweeps rescheduled 8x late; LR blocks race their "
                "retention window and losses must stay accounted"
            ),
            workload="bfs",
            config="C1",
            plan=FaultPlan(
                retention_collapse=True,
                collapse_scale=2.0,
                sweep_delay_factor=8.0,
            ),
            l2_overrides=_FAST_RETENTION,
        ),
    )
}


def run_campaign(
    name: str,
    seed: int = 0,
    trace_length: Optional[int] = None,
    check_interval: int = DEFAULT_CHECK_INTERVAL,
) -> Dict[str, Any]:
    """Run one named campaign; returns its deterministic JSON-safe report.

    Builds the campaign's two-part L2 with a seeded
    :class:`~repro.faults.FaultInjector` and an enabled trace collector,
    attaches an :class:`~repro.faults.InvariantChecker`, replays the pinned
    workload, and rolls everything into the report documented in
    ``docs/faults.md``.  Equal ``(name, seed, trace_length)`` inputs yield
    byte-identical reports.
    """
    spec = CAMPAIGNS.get(name)
    if spec is None:
        raise FaultInjectionError(
            f"unknown campaign {name!r} (have: {', '.join(sorted(CAMPAIGNS))})"
        )
    if trace_length is None:
        trace_length = spec.trace_length
    if trace_length < 1:
        raise FaultInjectionError(f"trace length must be >= 1, got {trace_length}")
    plan = dataclasses.replace(spec.plan, seed=seed)
    gpu_config = all_configs()[spec.config]
    l2_config = dataclasses.replace(gpu_config.l2, **dict(spec.l2_overrides))
    if l2_config.kind != "twopart":
        raise FaultInjectionError(
            f"campaign {name!r} needs a two-part L2, got kind {l2_config.kind!r}"
        )
    gpu_config = dataclasses.replace(gpu_config, l2=l2_config)

    tracer = TraceCollector()
    retention_by_part = {"hr": l2_config.hr_retention_s}
    if l2_config.lr_technology != "sram":
        retention_by_part["lr"] = l2_config.lr_retention_s
    injector = FaultInjector(plan, retention_by_part, tracer=tracer)
    l2 = TwoPartSTTL2(
        **twopart_kwargs(l2_config),
        tech=gpu_config.tech,
        tracer=tracer,
        faults=injector,
    )
    checker = InvariantChecker(l2, tracer=tracer, interval=check_interval)
    workload = build_workload(
        spec.workload,
        num_accesses=trace_length,
        num_sms=gpu_config.num_sms,
        seed=seed,
    )
    simulator = GPUSimulator(
        gpu_config,
        workload,
        l2=l2,
        tracer=tracer,
        time_dilation=spec.time_dilation,
        invariant_checker=checker,
    )
    result = simulator.run()

    stats = injector.stats
    faults_injected = (
        stats.retention_armed
        + stats.write_errors
        + stats.buffer_overflows
        + stats.sweeps_delayed
    )
    undetected = stats.undetected_corrupt_serves
    report: Dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "kind": REPORT_KIND,
        "campaign": spec.name,
        "description": spec.description,
        "workload": spec.workload,
        "config": spec.config,
        "trace_length": trace_length,
        "seed": seed,
        "plan": plan.as_dict(),
        "l2_overrides": {k: spec.l2_overrides[k] for k in sorted(spec.l2_overrides)},
        "summary": {
            "faults_injected": faults_injected,
            "faults_detected": stats.retention_detected,
            "faults_recovered": stats.retention_recovered,
            "faults_vacated": stats.retention_vacated,
            "faults_pending": injector.pending,
            "data_losses_detected": stats.retention_data_loss,
            "undetected_data_loss": undetected,
            "accounting_balanced": injector.accounting_balanced(),
        },
        "faults": stats.as_dict(),
        "fault_counters": tracer.counters_with_prefix("faults."),
        "invariants": checker.summary(),
        "l2": {
            "data_losses": l2.data_losses,
            "dram_writebacks_total": l2.dram_writebacks_total,
            "refresh_writes": l2.refresh_writes,
            "migrations_to_lr": l2.migrations_to_lr,
            "returns_to_hr": l2.returns_to_hr,
            "dirty_lines": l2.dirty_lines(),
            "buffer_overflow_writebacks": int(
                tracer.counters_dict().get("l2.buffer_overflow_writebacks", 0)
            ),
            "monitor": l2.monitor.stats.as_dict(),
        },
        "result": {
            "ipc": result.ipc,
            "l2_hit_rate": result.l2_hit_rate,
            "dram_writebacks": result.dram_writebacks,
        },
        "ok": checker.ok and undetected == 0,
    }
    return report


#: Required top-level report keys and their types.
_REPORT_FIELDS = {
    "campaign": str,
    "workload": str,
    "config": str,
    "trace_length": int,
    "seed": int,
    "plan": Mapping,
    "summary": Mapping,
    "faults": Mapping,
    "invariants": Mapping,
    "l2": Mapping,
    "ok": bool,
}

#: Required summary keys (all integer counts except the balance flag).
_SUMMARY_FIELDS = (
    "faults_injected",
    "faults_detected",
    "faults_recovered",
    "faults_vacated",
    "faults_pending",
    "data_losses_detected",
    "undetected_data_loss",
    "accounting_balanced",
)


def validate_report(report: Mapping[str, Any]) -> None:
    """Validate a campaign report; raises :class:`FaultInjectionError`."""
    if not isinstance(report, Mapping):
        raise FaultInjectionError(
            f"report must be an object, got {type(report).__name__}"
        )
    if report.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise FaultInjectionError(
            f"unsupported report schema {report.get('schema_version')!r} "
            f"(expected {REPORT_SCHEMA_VERSION})"
        )
    if report.get("kind") != REPORT_KIND:
        raise FaultInjectionError(
            f"not a fault-campaign report: kind={report.get('kind')!r}"
        )
    for name, types in _REPORT_FIELDS.items():
        if name not in report:
            raise FaultInjectionError(f"report missing field {name!r}")
        value = report[name]
        if not isinstance(value, types) or (types is int and isinstance(value, bool)):
            raise FaultInjectionError(
                f"report field {name!r} has wrong type: {value!r}"
            )
    summary = report["summary"]
    for name in _SUMMARY_FIELDS:
        if name not in summary:
            raise FaultInjectionError(f"report summary missing {name!r}")
    for name in _SUMMARY_FIELDS[:-1]:
        value = summary[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise FaultInjectionError(
                f"summary field {name!r} must be a non-negative int: {value!r}"
            )


def write_report(report: Mapping[str, Any], path) -> None:
    """Validate and atomically write a campaign report as JSON."""
    validate_report(report)
    write_json_atomic(dict(report), path)
