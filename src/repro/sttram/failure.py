"""Retention-failure statistics and refresh-interval sizing.

A relaxed-retention MTJ loses its state by thermal activation; the survival
probability of one bit over a time ``t`` is exponential::

    P(bit survives t) = exp(-t / t_retention)

The paper's refresh machinery (retention counters + buffer-assisted refresh)
exists precisely because, once a block's age approaches the retention time,
many bits collapse at once and ECC-style recovery becomes hopeless ("Error
prevention or data recovery ... are not applicable here because of numerous
bit collapses").  These helpers quantify that cliff and size the refresh
interval for a target block failure rate.

Two views of "retention time" coexist in the literature and in this package:

* the **device view** used here — ``t_retention`` is the Arrhenius *mean*
  lifetime ``tau0 * exp(Delta)`` (the convention of Sun MICRO'11 / Jog
  DAC'12, whose Delta ~ 40 for "10 years" matches ``ln(10yr/1ns)``).  Under
  this view, meeting a small per-block failure target requires refreshing
  orders of magnitude before the mean lifetime, which is what
  :func:`max_refresh_interval` computes;
* the **architectural view** used by the cache model
  (:mod:`repro.core.retention_counter`) — the quoted retention is a *safe
  operating window* with the failure margin already built in (i.e. the real
  Delta is somewhat higher than the mean-lifetime convention implies), and
  data is treated as valid until the window expires, lost afterwards.  This
  deterministic abstraction is exactly how the paper's retention counters
  behave.
"""

from __future__ import annotations

import math

from repro.errors import DeviceModelError


def bit_failure_probability(elapsed_s: float, retention_s: float) -> float:
    """Probability that one bit has flipped after ``elapsed_s`` seconds."""
    if retention_s <= 0:
        raise DeviceModelError(f"retention must be positive, got {retention_s}")
    if elapsed_s < 0:
        raise DeviceModelError(f"elapsed time must be non-negative, got {elapsed_s}")
    return 1.0 - math.exp(-elapsed_s / retention_s)


def block_failure_probability(
    elapsed_s: float, retention_s: float, block_bits: int
) -> float:
    """Probability that *any* bit of a ``block_bits``-bit block has flipped."""
    if block_bits <= 0:
        raise DeviceModelError(f"block size must be positive, got {block_bits}")
    p_bit = bit_failure_probability(elapsed_s, retention_s)
    if p_bit >= 1.0:
        return 1.0
    # log-space to stay accurate for tiny p_bit and large blocks
    log_survive = block_bits * math.log1p(-p_bit)
    return 1.0 - math.exp(log_survive)


def max_refresh_interval(
    retention_s: float, block_bits: int, target_block_failure: float = 1e-9
) -> float:
    """Longest refresh interval keeping block failure under the target.

    Solves ``block_failure_probability(t, retention, bits) <= target`` for
    ``t``.  For the tiny targets of interest this is essentially
    ``t = retention * target / bits``, but we invert exactly.
    """
    if not 0.0 < target_block_failure < 1.0:
        raise DeviceModelError(
            f"target failure must be in (0, 1), got {target_block_failure}"
        )
    if block_bits <= 0:
        raise DeviceModelError(f"block size must be positive, got {block_bits}")
    if retention_s <= 0:
        raise DeviceModelError(f"retention must be positive, got {retention_s}")
    # P_block = 1 - (1 - p)^n  =>  p = 1 - (1 - P_block)^(1/n)
    p_bit = 1.0 - (1.0 - target_block_failure) ** (1.0 / block_bits)
    # p = 1 - exp(-t/tau)  =>  t = -tau * ln(1 - p)
    return -retention_s * math.log1p(-p_bit)


def sample_lifetime(mean_lifetime_s: float, u: float) -> float:
    """Inverse-CDF sample of one block's survival time (device view).

    Under the exponential survival model above, a block whose cells have
    mean lifetime ``mean_lifetime_s`` survives for ``-mean * ln(1 - u)``
    seconds when ``u`` is a uniform draw in ``[0, 1)``.  The RNG stays with
    the caller (:class:`repro.faults.FaultInjector` owns a seeded stream so
    campaigns are deterministic); this function is the pure math.
    """
    if mean_lifetime_s <= 0:
        raise DeviceModelError(
            f"mean lifetime must be positive, got {mean_lifetime_s}"
        )
    if not 0.0 <= u < 1.0:
        raise DeviceModelError(f"uniform draw must be in [0, 1), got {u}")
    return -mean_lifetime_s * math.log1p(-u)
