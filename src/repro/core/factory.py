"""Build any of the Table 2 L2 organizations from an :class:`L2Config`."""

from __future__ import annotations

from typing import Optional

from repro.areapower.technology import TECH_40NM, TechnologyNode
from repro.config import L2Config
from repro.core.interface import L2Interface
from repro.core.twopart import TwoPartSTTL2
from repro.core.uniform import UniformL2
from repro.errors import ConfigurationError
from repro.tracing import TraceCollector


def build_l2(
    config: L2Config,
    track_intervals: bool = False,
    tech: TechnologyNode = TECH_40NM,
    tracer: Optional[TraceCollector] = None,
    engine: str = "object",
) -> L2Interface:
    """Instantiate the L2 described by ``config`` at technology ``tech``.

    ``track_intervals`` enables LR rewrite-interval recording (Fig. 6); it
    costs memory proportional to the write count, so it is off by default.
    ``tracer`` (a :class:`~repro.tracing.TraceCollector`) threads the
    observability layer through the built cache and its subcomponents;
    ``None`` keeps every instrumentation site on the shared no-op
    collector.  ``engine`` selects the simulation backend: ``"object"``
    (the reference per-block model) or ``"soa"`` (the batched
    structure-of-arrays model, see docs/engine.md); both produce
    byte-identical results where the SoA engine is supported.
    """
    if engine == "object":
        uniform_cls = UniformL2
        twopart_cls = TwoPartSTTL2
    elif engine == "soa":
        # imported lazily: repro.engine depends on this module
        from repro.engine.soa_l2 import SoaTwoPartL2, SoaUniformL2

        uniform_cls = SoaUniformL2
        twopart_cls = SoaTwoPartL2
    else:
        raise ConfigurationError(f"unknown engine {engine!r}")
    if config.kind == "sram":
        return uniform_cls(
            config.main.capacity_bytes,
            config.main.associativity,
            config.main.line_size,
            technology="sram",
            tech=tech,
            tracer=tracer,
        )
    if config.kind == "stt":
        return uniform_cls(
            config.main.capacity_bytes,
            config.main.associativity,
            config.main.line_size,
            technology="stt",
            tech=tech,
            early_write_termination=config.early_write_termination,
            tracer=tracer,
        )
    if config.kind == "twopart":
        assert config.lr is not None  # validated by L2Config
        return twopart_cls(
            hr_capacity_bytes=config.main.capacity_bytes,
            hr_associativity=config.main.associativity,
            lr_capacity_bytes=config.lr.capacity_bytes,
            lr_associativity=config.lr.associativity,
            line_size=config.main.line_size,
            write_threshold=config.write_threshold,
            hr_retention_s=config.hr_retention_s,
            lr_retention_s=config.lr_retention_s,
            buffer_lines=config.migration_buffer_lines,
            sequential_search=config.sequential_search,
            tech=tech,
            track_intervals=track_intervals,
            early_write_termination=config.early_write_termination,
            lr_technology=config.lr_technology,
            tracer=tracer,
        )
    raise ConfigurationError(f"unknown L2 kind {config.kind!r}")
