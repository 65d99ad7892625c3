"""The tier-1 digest table: every absolute result digest the suite pins.

Result digests (:func:`repro.benchmarks.result_digest`, the SHA-256 of a
result's canonical JSON) are the behaviour contract: a change that moves
one changed *results*.  This module is their one home in the test suite;
the repo benchmark pins its own, longer workloads in
``bench/digests.json``.

* :data:`PINNED_SCENARIOS` cover every L2 access path (two-part C1, naive
  STT, SRAM); :data:`QUICK_SCENARIOS` are short variants of two of them.
* :data:`RESULT_DIGESTS` holds, per scenario key, the ``exact`` digest that
  the ``object`` and ``soa`` engines and the sharded engine at one shard
  must all produce, and the ``shards4`` digest of the sharded engine at
  four shards, a documented approximation (docs/sharding.md).
* :data:`BRANCH_DIGESTS` holds the ``exact`` digests of three runs that
  reach fused-loop branches the pinned scenarios never take.
* :data:`SERVICE_DIGESTS` holds the service's coalescing digest and
  payload SHA-256 for six ``(benchmark, config)`` requests on ``soa`` at
  :data:`SERVICE_TRACE_LENGTH` accesses, seed 0.

A deliberate model change that moves a digest re-pins it here in the same
change, with the reason in CHANGES.md.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Scenario:
    """One pinned simulation: fixed workload, config, length and seed."""

    workload: str
    config: str
    trace_length: int
    seed: int = 0

    @property
    def key(self) -> str:
        """Stable identifier; keys :data:`RESULT_DIGESTS` and test ids."""
        return f"{self.workload}/{self.config}/{self.trace_length}/s{self.seed}"


PINNED_SCENARIOS = (
    Scenario("bfs", "C1", 30000),
    Scenario("backprop", "stt-baseline", 30000),
    Scenario("stencil", "baseline", 30000),
)

QUICK_SCENARIOS = (
    Scenario("bfs", "C1", 8000),
    Scenario("stencil", "baseline", 8000),
)

ALL_SCENARIOS = PINNED_SCENARIOS + QUICK_SCENARIOS

RESULT_DIGESTS = {
    "bfs/C1/30000/s0": {
        "exact": "55210d1ae62c37dd23f8d28aab2e75cd9dca816bfb74e0f01f4aef4827b59b29",
        "shards4": "806cea97d66a1167d63defde383d7081b8db4a7076a5f868715c21f3061e345f",
    },
    "backprop/stt-baseline/30000/s0": {
        "exact": "9b1350f55440f5a354617461bdb43f3d5575ad714092d6f6dad28c6519e41a48",
        "shards4": "a193362db309fce13db4b1c889c9326f26f0fe0b6a2c09029123f54bdf79f403",
    },
    "stencil/baseline/30000/s0": {
        "exact": "ed4819b4d6223731c53d4c8349e7fce90659c697b5eae824882cc8ad52fb2c17",
        "shards4": "8f6ac7ba4c91b19e465a3dc09f622a356ae12496d11e604f66dc0e15226e5dbe",
    },
    "bfs/C1/8000/s0": {
        "exact": "fd1669447f96056dbdffd94c7afa3e9cf5f828ec0936ba7f3b6c122699adf2d3",
        "shards4": "f419b27411909cc1dc357dec582e2a3e3593122fc6cd2436a04830c16dfb1fca",
    },
    "stencil/baseline/8000/s0": {
        "exact": "f51ffc6dca2c8c00c3cc0d3a25298ec421877c77bd5d7f68d2060fa80f187188",
        "shards4": "cfba33a5d046961f422ffdbe6304f2e5b2efcbefb67078b9abf595c44c72730f",
    },
}

#: ``exact`` digests of runs that take fused-loop branches no pinned
#: scenario reaches: the const/texture-heavy ``consty`` kernel of
#: tests/test_gpu_readonly.py (every calibrated profile issues no
#: read-only-cache reads) and bfs/C1 with parallel tag search
#: (``sequential_search=False``, as the ablation study runs it).
BRANCH_DIGESTS = {
    "consty/baseline/4000/s0": (
        "66fce1d7c4b8b5c6521fe78581df790960861494f731e22b2356220c8c803962"
    ),
    "consty/C1/4000/s0": (
        "dcd2c5c04895ce18444afb4f983bf5a06474af7d96708e7fec9445f3e60238f8"
    ),
    "bfs/C1-parallel/8000/s0": (
        "de531173ac2d89c152edf16faffdfb16a1dba87d420317883dcec9c2a56ec256"
    ),
}

SERVICE_TRACE_LENGTH = 4000

SERVICE_DIGESTS = {
    ("backprop", "stt-baseline"): {
        "request": "2c06e5024207643356ac77116ff4de33b414e8f1b5670559a60099744f029428",
        "payload": "ed192b225fa2a352dc0a999d9e094f353f16711b198ec61d02cce1e3851a05d6",
    },
    ("bfs", "C1"): {
        "request": "977812d7fef86503e2ea22361568adc3d8c67339775f77dafe13d727c45071fc",
        "payload": "9cc051e8372934736c4c856b0be5a903320be342ac2f1ec6aea9d3741ca0d295",
    },
    ("kmeans", "C1"): {
        "request": "b5ebdfdbcfff127c6de478602b5b8590f60cd634179ac76524ff3b61f9e2fb96",
        "payload": "9e53e520540975145590d88f1d1deda9771313848135712c13c0e423bc0af459",
    },
    ("lbm", "C3"): {
        "request": "cbfd489ad47485e501cb5de2e303483c35e27b850e7cb3da98ca9f1356d75c0e",
        "payload": "1b6096277a0e33eca6f5d787b6dceca5d45d3e4a6d99099823278892ce1ffee2",
    },
    ("nn", "C2"): {
        "request": "efa9f40fe63e6bc97b95b77853d7faee480e32ca2fad1ecdf62041188d70d335",
        "payload": "7599b8763ffb53cd533aee0e71f6fd79addf77cee09e21027cc52a88bd47bb05",
    },
    ("stencil", "baseline"): {
        "request": "7e509d501e46e924224faa1003971221cc6229e5e2f9d7e4cb39e382027fd34e",
        "payload": "e3832145e54bee8afae4f92903e7b322a1cbad4c4e134eee9eba43213ee2d253",
    },
}
