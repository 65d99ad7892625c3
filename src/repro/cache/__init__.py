"""Generic cache substrate.

Behavioural (trace-driven) cache machinery shared by the GPU L1s, the SRAM
L2 baseline, the naive STT-RAM L2 baseline, and the two-part LR/HR arrays of
the paper's proposal:

* :mod:`repro.cache.address` — address slicing and bank hashing.
* :mod:`repro.cache.block` — per-line state (tag, dirty, write counters,
  last-write timestamps for retention analysis).
* :mod:`repro.cache.replacement` — LRU replacement, the one policy every
  cache level uses.
* :mod:`repro.cache.cacheset` / :mod:`repro.cache.array` — set-associative
  behavioural array with full statistics.
* :mod:`repro.cache.mshr` — miss-status holding registers with coalescing.
* :mod:`repro.cache.banked` — address-interleaved banking with conflict
  accounting.
"""

from repro.cache.address import AddressMapper
from repro.cache.block import CacheBlock
from repro.cache.replacement import LRUPolicy
from repro.cache.cacheset import CacheSet
from repro.cache.array import AccessOutcome, SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.mshr import MSHRFile
from repro.cache.banked import BankedCache
from repro.cache.wearlevel import WearLevelingCache

__all__ = [
    "AddressMapper",
    "CacheBlock",
    "LRUPolicy",
    "CacheSet",
    "AccessOutcome",
    "SetAssociativeCache",
    "CacheStats",
    "MSHRFile",
    "BankedCache",
    "WearLevelingCache",
]
