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
* :data:`BRANCH_DIGESTS` holds the ``exact`` digest of a run that
  reaches a fused-loop branch the pinned scenarios never take.
* :data:`SERVICE_DIGESTS` holds the service's coalescing digest and
  payload SHA-256 for six ``(benchmark, config)`` requests on ``soa`` at
  :data:`SERVICE_TRACE_LENGTH` accesses, seed 0.
* :data:`EXPERIMENT_DIGESTS` pins five characterization experiments'
  merged results on :data:`EXPERIMENT_BENCHMARKS`.
* :data:`TRACE_DIGESTS` pins the generated traces themselves, the input of
  every digest above.
* :data:`SUBSTREAM_DIGESTS` pins the sharded engine's per-shard
  sub-streams (:func:`repro.shard.partition_trace`), the input of every
  ``shards4`` digest.

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
#: scenario reaches: bfs/C1 with parallel tag search
#: (``sequential_search=False``, as the ablation study runs it).
BRANCH_DIGESTS = {
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

#: Benchmarks and trace length of :data:`EXPERIMENT_DIGESTS`.
EXPERIMENT_BENCHMARKS = ("bfs", "lbm")
EXPERIMENT_TRACE_LENGTH = 3000

#: SHA-256 of the canonical JSON of ``experiment_result_to_dict`` for each
#: experiment's ``run_battery`` result, seed 0.
EXPERIMENT_DIGESTS = {
    "fig3": "5c870d88d1713639cb16960e600caadf55cc082251ea1b23a6072517864e69e7",
    "fig4": "6c423e825d4d6d228ebf97b2e467f69a36f645409c8e0ac354454fd4b73b8980",
    "fig5": "d1701e8e5962a2fd365bdfddb8d879307930aea0dd9eb1a49d02800dda55bbe9",
    "fig6": "53b6e6d0be8463a4a96f0a65d9b01cf9ef4390cdb951e5a246fdb20fbbee5ff2",
    "energy": "1196884ad8c6e1c6faf55b590dc097f6203933174c2bbcf425f724c7d48ba9ce",
}

#: SHA-256 of generated traces (``build_workload``, 15 SMs), over the raw
#: bytes of the ``sm``, ``address`` and ``flags`` columns in that order,
#: keyed ``benchmark/length/sseed``: all sixteen benchmarks at lengths
#: that straddle one 8192-record generator chunk plus 25000, seeds 0 and
#: 3, and bfs at 250000.  The generator must produce these traces
#: whatever its chunk size.
TRACE_DIGESTS = {
    "cfd/1/s0": "7724142b8bb5806825a7f7fc241089368bd1d5b8b58ccb99d5e99248408fa3d5",
    "cfd/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "cfd/8191/s0": "7c9773ff7dd30c8aa9db9cfa203ec763ce2c026925ecd96dd1b075309b1a62a6",
    "cfd/8191/s3": "88b8559dfba2a969c9f8ad77a0cc8c2fe316dcb845b43f0860a2fe721353267c",
    "cfd/8193/s0": "5edd37a8557a06f7e04f19ec2208abad9a3f1db2ebcfeec1ca9baa1da316667f",
    "cfd/8193/s3": "7ea5a2d046540df7694f88c82a703bc1e7d50b6249bf70dc48ec706b07087744",
    "cfd/25000/s0": "42d6c572f54c9dacc28cb2309fb81afac90e5b1b51ba6cb5414f051e11d227e4",
    "cfd/25000/s3": "36424828197e038418c57274279bdba5d1e8225bb6f349a60d6b3138e19f6212",
    "lbm/1/s0": "7724142b8bb5806825a7f7fc241089368bd1d5b8b58ccb99d5e99248408fa3d5",
    "lbm/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "lbm/8191/s0": "39d36daca06d543307a10b3c438bb1a17df5f008d0d5c90d6270f03e580ea2c4",
    "lbm/8191/s3": "55abc13de1d2e55d8919f04ec70d191cce05e7c7c532077f97f2d24f728f5249",
    "lbm/8193/s0": "bd49cd9ca95e51454f38c5df5badae403385086b02e5eb2e0bb90c47ef4f7a1e",
    "lbm/8193/s3": "7e304b73d57c664bed8109243b1698729aae55a8d9e4c0807d64fa567ac0361f",
    "lbm/25000/s0": "39cb9a76f78aea72ceb20e943b04541c7aac5a21daa6ad36b9e9af7b06e50667",
    "lbm/25000/s3": "58025bd7287fe3cff0f63bdaff91e467b6858cf4f06bc59f13a4d7aa10ac916d",
    "nn/1/s0": "46d9169838c9abcfd93699c0c67f8e8768b9dce29bd701297619465fd76de6ce",
    "nn/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "nn/8191/s0": "5ed74ce0c98666abd8a4d01e15f72ead7dcc6b52cca51cfd6b604f7174c56f80",
    "nn/8191/s3": "8f988e991700f16c2ea4d1921d63c5c8078b7af145e019ca26455fa904be93e1",
    "nn/8193/s0": "b33b1355e939e6e52a339afc5164914293d91962523f9e657498653877e49097",
    "nn/8193/s3": "00678a56b92d4fcaeca8de3a52b766bbccb9ff73ae26f055d78784674c09cdcd",
    "nn/25000/s0": "bae23e8819f769e69dd07ecc428de516b927794010994674d020d5dfa19dc205",
    "nn/25000/s3": "78fda6e41e7475e178fc07e2ed852f82b1add70fcdde82862e64bbb761423e6d",
    "sgemm/1/s0": "d889243beeeb9854ec3db5830bd1f2a69cd4ccbf89ed61903ccf17b30461b051",
    "sgemm/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "sgemm/8191/s0": "da266fddad34035879c186aeac20f2b341b77cb0e70b3926417aba71e77b7c41",
    "sgemm/8191/s3": "19eabe23dcd4944c80b9a4fae07bb4e7b6f1d83798975ae68cb5c52ae9f7a006",
    "sgemm/8193/s0": "4ebfb6f8d2958d658a1cad007a6dadfe4149cccc5c6fb75e55b47c642037ae01",
    "sgemm/8193/s3": "0786b6c793f43ed2355ab002426397596a3fa9df9344710bfe15c8e3661c9a5c",
    "sgemm/25000/s0": "97237f46f060243754617cc85268447920ff733baba9d69fa5945472d5ee3cd9",
    "sgemm/25000/s3": "80bafcf7a78529b56316d36c7feca0ead628e38a1093153a51b0d82fa2313bf3",
    "stencil/1/s0": "7724142b8bb5806825a7f7fc241089368bd1d5b8b58ccb99d5e99248408fa3d5",
    "stencil/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "stencil/8191/s0": "1922e0c909f56a14b85ef0bdfb1022c2486df912136715dfb99eaf4eda964c81",
    "stencil/8191/s3": "75d5f2556054ceba6aaf1707f94f9533e35da98b4a41af38b9a6dab796ffcf4d",
    "stencil/8193/s0": "21ec2af0c9a083397a3d5fc0ba124f06df7f524c8bd56552d1c93a7150a0a0d6",
    "stencil/8193/s3": "24fcb79f6d32f435469cef1036308fee9df9eec88a727da46c0e275af51a3f92",
    "stencil/25000/s0": "c12bd9b8c608497de515ce11676ad138c51c59ab40f5c9e0b2da146ab42323e6",
    "stencil/25000/s3": "ed17781ee68446e147b85c427563cfa6d009a80ae1478e7b97f259313ab9c0d3",
    "lps/1/s0": "556dd73ce47fcf8876881665e6a751ca7e4b4c6a634a91e576871f7778ede344",
    "lps/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "lps/8191/s0": "6991ba78064fbbb4d5a162bcbfb964a6cd5770329e56e84ac580477c7c832ddf",
    "lps/8191/s3": "4684caa51d4eca4a8fdf3c97e6781cbe196970181bb7b3784e333052d61621c2",
    "lps/8193/s0": "7fc038a4f1db570a5d5571f986bdc1f215346e3a78fc1514686403ef3109c654",
    "lps/8193/s3": "edb62aa716bbfa1d72310fe3a861b4f893251e0fcec909361510400499b0c6e2",
    "lps/25000/s0": "436d0bba15e03d4aa89a86e8a917c58de97f766a8ef84ea28f2bc6a524f45f0c",
    "lps/25000/s3": "bf4458f342ac2d4d583052899c21ba270d620e26279099eb4d4c963c8395e96f",
    "mri-gridding/1/s0": "556dd73ce47fcf8876881665e6a751ca7e4b4c6a634a91e576871f7778ede344",
    "mri-gridding/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "mri-gridding/8191/s0": "f3d5a668c632bcb6a657405d00cfe2915e882f0566f30dfa436b6cd1a41affe1",
    "mri-gridding/8191/s3": "852274bc8d9d0d32d7d1422fb8b11a1de4e79e7b21b734c99fe1caa960a360c9",
    "mri-gridding/8193/s0": "9a62a082de9df6a5503434e7f2eddcd43a267ee0e78b4f2c568c3c96c8f55c87",
    "mri-gridding/8193/s3": "8ab51589f44368fbbd40d453f4f703f55c0a0cb6cd5335837b1eeb7351aac6ee",
    "mri-gridding/25000/s0": "946ab8641bfead50e2351f53e401de7cbc9279cb5b76fc7a76d6ca6689687615",
    "mri-gridding/25000/s3": "ce1545acbbc6e5f763fbb460c9f1fc52978efdc91514bb85e26de8bb8d108966",
    "mummergpu/1/s0": "3e5284f4752b4576d0b0e1521d91b4e8dc34d0b065edf0e155542063b43a8621",
    "mummergpu/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "mummergpu/8191/s0": "d74f584e35e6e5d929c09df13a4dd33b35c08d5fdc9ece8147021beb6870fb02",
    "mummergpu/8191/s3": "3aec486633f61bf80e7355b00c29ac65ea379c41d4621fbeb8a2b7f74db0cd89",
    "mummergpu/8193/s0": "6eb14ac3f566ebe33e7722043280b4809e913740b61b6d06983c9893571b947b",
    "mummergpu/8193/s3": "b730f0efe10497cabc14eec773ba4bc5af925121dde131e9ef4693a23a40d872",
    "mummergpu/25000/s0": "504423f24daf01e2d34f807ed02185e209fdf61ecd38a581e5c0b202b245f409",
    "mummergpu/25000/s3": "55cae5e0b8a2c61e80ad5470609b320dab03ffee319512cb25bf6a924d6db46a",
    "tpacf/1/s0": "9eab1492f6fcb8c197ddf73a62b2417e5ab6bbfa70fd466980b6cb0fa1ad4327",
    "tpacf/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "tpacf/8191/s0": "e87520c5223863cba96401213f950ff19d628e83ff71048f490ee00a6eae5b22",
    "tpacf/8191/s3": "72ade655fe9540a64af44492aee4c23b8bf7e1def70f8d8bce984829b9d8c409",
    "tpacf/8193/s0": "1ade6487326093c1ecce2f1aacf84ad6bdf731d008cb374af60254b4817698b2",
    "tpacf/8193/s3": "25329f9cecdf95fb34e11d205a1a71d45e34bd3e63ad4177120eb071ea026c14",
    "tpacf/25000/s0": "c6c030fe879ac5e4d9aff8d3c034b7ed2e9ba3e2d707c74f87cba38fd3513675",
    "tpacf/25000/s3": "f99fb129c2f295453cd008d807a98ab9fa751f9c84fc1c872d0d9c2e5f71487b",
    "backprop/1/s0": "9844dc5950630fa379f5160725777408d821606097ac2e4777ea36784bf44e22",
    "backprop/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "backprop/8191/s0": "c50bd34c4fd669a59ae8c0276fb34c9b76d0754917d60b76e3eca09692fbc8fe",
    "backprop/8191/s3": "1589c16ed19ef755a8158ae758a58afae472f77e8eaa63de927f50aff4124adb",
    "backprop/8193/s0": "b6bfe94bc5f63108dccf6dcb99adf3d374b2ff93d1dfb9696f18d4e3ea1ce4d8",
    "backprop/8193/s3": "ce7bb1a21d53ab47dbee0995bca277d5d2d2ef5b8ee007f71fb1c7a7bb0c47a4",
    "backprop/25000/s0": "40c5b4cb8a629ff273e6d1fdd4659861a39c0da7895478fd8bef25cd11e0c19e",
    "backprop/25000/s3": "4351dd0c7a8754c4f5137c9675262cb6027df26520b1315e6324b5d136976674",
    "kmeans/1/s0": "f39a04d047793ce1899dd25b5ee4461cb57f909c254b27babd66a30f2a44a6d7",
    "kmeans/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "kmeans/8191/s0": "4dd2a65f28a26a8668adfda8873938176321f1e5ca8a5411cb9f55a4a4b2550c",
    "kmeans/8191/s3": "0e6affaef0ed3fea099bf9cf4fc6b6a1f16a9182c0dbf2c8dcad098b338f0eef",
    "kmeans/8193/s0": "0fa6ec2bde125a2203e02d1cd0723c56a58ed74dd0c6a974f37a9ed156be29e5",
    "kmeans/8193/s3": "91f2c2bbb93b25bdc234ef8056dd6c05dd36590735c3079a8219fd36d0b1a52f",
    "kmeans/25000/s0": "05d8eb80fe53f71b760d2e917c7da35d644722659e24dec7b5788b7842d39811",
    "kmeans/25000/s3": "247bd126ee2a6b18ff0bf6e86b5238f51781e6299ca54c0916996b5aa6780c6f",
    "srad_v2/1/s0": "b187bd5ce826c017bc9f22c252ef3cc37a32c71abdb64f750667a145f2569d23",
    "srad_v2/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "srad_v2/8191/s0": "26b7871e0795713f47bf16155fc1422a936934b1c835f44134bc9247210de268",
    "srad_v2/8191/s3": "ddf9669d1251afb71379e161f3de4391d5d791154a086579d98632def4d82b42",
    "srad_v2/8193/s0": "bee02a53bab321c66e0d7067bbf7507e9c12f06c9ec9286f07e859fdc169e22d",
    "srad_v2/8193/s3": "583e68288e824c9e636af9ccc4bfbb31b5117ff111ab550ac4315bfcd9542239",
    "srad_v2/25000/s0": "9f86515064035d53f6ade8fa66955530bf0df7b8e263e1179b2f2fdc283b186d",
    "srad_v2/25000/s3": "47dc40d4dcfdeb07b2bd1d6e8912699d75bf180673c6dd474b535fa6244d6a21",
    "bfs/1/s0": "3aa649cf8e8a6725efd44d1986ca60f03a8d262eea8b70951092b94bb1ed3e65",
    "bfs/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "bfs/8191/s0": "93c2d186188aff1ba731da2861d7a98758e2ca4033da914c041fa274aa5692c0",
    "bfs/8191/s3": "b803ab4d5cf38c71f3f8a6450aca5c41d61ba68b632785d42d6c67773593fa57",
    "bfs/8193/s0": "a861c1f8b140d821248c0f4247987b9b668eec623d5f70b45ef3a0ea78b03898",
    "bfs/8193/s3": "f2d07592ebaf3b8f30cf30b193486d196950054459ca1c834c4f9a7fe36c3941",
    "bfs/25000/s0": "ce81682e3f8ccb08408ba9c71f8a4c2b1b7f49d2eb46f706975b759fc0ca175c",
    "bfs/25000/s3": "841bd869a0f450b2b25a8a6b1687914b17dfd95d64235f5b5a4da31d9571d4f6",
    "hotspot/1/s0": "8697dc253638425410e1c772fc8b69533dd06492dc0e6c596f870aee241117fc",
    "hotspot/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "hotspot/8191/s0": "a73248645998d8a5cd2eb37c4cea08c490841f77858bad8054bcec4400319de2",
    "hotspot/8191/s3": "41f4dca07232f338bb91592fc2e0f53ed5b344f5b5b7ca7b3cecb71ab0e80c5d",
    "hotspot/8193/s0": "f4eacdc8235652c54defcf79358d331ee5e6d1434b23d57cb35a96c8ca60d6a6",
    "hotspot/8193/s3": "b172aec0c493342d8234feb54523fed1eff18caa15b15254e597cb9fd3f2cbfb",
    "hotspot/25000/s0": "d7896a9e7270be345b21d163d4c125f039ef5d413cac4ac8e3e93cd9248fa2ab",
    "hotspot/25000/s3": "f5cacfd2eb41c9335482d8079e2c12f07670ffac4cfa96acca1439e460ce19d8",
    "pathfinder/1/s0": "7ba93e074e72d63acbb72a2245bbaaf384947ae2d9ac995b1f4e0b3a96d684ea",
    "pathfinder/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "pathfinder/8191/s0": "87cea1e0a31d19a429545b95621994f7e6322f16b5476da5d0103a067e18a8e0",
    "pathfinder/8191/s3": "081a3ec4763dde4d3588a01431f9632d26e58bd6ae6dfe49f572456a31c23c7b",
    "pathfinder/8193/s0": "974eb97966454614ce90a51ea823c34fb15f5ab345ad2cb03988a7b84d95d574",
    "pathfinder/8193/s3": "f7ca6ec05c793d00745c3fa35a07463e87575cc6b948205807d01e13cde0bef8",
    "pathfinder/25000/s0": "9725a845f9491d5f0065e2565434c392a4043d29af054e17f92d00e2945899f5",
    "pathfinder/25000/s3": "9e585577f6c6e642668f2e9adf1331bdca04a68f2ab11ed002f3f8091c4ac6fe",
    "streamcluster/1/s0": "23c42e6094188f7d6f9cd53433a80824e6546a59a8fe33fe5b1e0a991f1a8a63",
    "streamcluster/1/s3": "f1003f6f69974a077918cc51b73841c522a5d10b40eba686dc8aba5611e3559a",
    "streamcluster/8191/s0": "b30eb985e25c6058ea1c981208bb8ce4c2fd5b0ee98995169c73fdfa3b20ee86",
    "streamcluster/8191/s3": "f8240f0a45d64443368e681defc3a11ec890df63a7d9572f05009947b1b9b5ca",
    "streamcluster/8193/s0": "32c50999dc03e50471b832fa680685074f73f9fa868084077235f8e236c35c10",
    "streamcluster/8193/s3": "e608ff7ac2bfd5aee2ee13c7a3b4058dbb4716ceca1cfebfb23cdb88a125dc98",
    "streamcluster/25000/s0": "11025f57810bf23f270b5334a4a1976e17bd757504a232d772a2dd6f70f344c0",
    "streamcluster/25000/s3": "423e51cfc880a88f395adeffba296d3f86a0c3fca5e7d1416a85b0316947ea40",
    "bfs/250000/s0": "ffca3536cd6607ce115bd2c9c3976e0840ae0e6b8389c74635af02a259035e84",
}


#: SHA-256 of the per-shard sub-streams :func:`repro.shard.partition_trace`
#: cuts from generated traces (``build_workload``, 15 SMs, seed 0) at the
#: 256-byte line of every Table 2 L2, over the same three columns as
#: :data:`TRACE_DIGESTS`; ``None`` marks an idle shard.  Keyed
#: ``benchmark/length/xshards``: bfs and lbm at lengths that straddle one
#: 8192-record chunk plus 25000 (a 1-access trace leaves all but one
#: shard idle), at 2, 4 and 8 shards.  The partition must cut these
#: sub-streams whatever its chunk size.
SUBSTREAM_DIGESTS = {
    "bfs/1/x2": (
        "e232ec7496daccf2e5358e0e22e91a532ec23dd3928c69534e08ef032098f29f",
        None,
    ),
    "bfs/1/x4": (
        None,
        None,
        "e4e27c1125615054da077cd29d203fb0aebcdc2ad4d53c2b8a37cc0c8091f273",
        None,
    ),
    "bfs/1/x8": (
        None,
        None,
        None,
        None,
        None,
        None,
        "3d9b0bf4d88241a63ecdbd77df810f8ec4007dce37862c1ed205517e78e7de97",
        None,
    ),
    "bfs/8191/x2": (
        "e65baf14a9e1078a3d2a48a6593f66b97bdb62f8a2854da38c26c67f83c8d360",
        "f96cea7a076b8ec5a1f5e5d85d5329d194b34ee348d97d8fbbcc190a2b369a35",
    ),
    "bfs/8191/x4": (
        "aa7db015d6874c95133b0acb831a57fd34b7e64618cc1ea8a63821f4d36f5fe8",
        "6d68fdddaadcfcfae3d1025cf9daa9479e759695643f7a10846558a5826641a5",
        "77616411d7886110c6064dfe99b83aa39eceb173b33f383e7c37626956db6475",
        "4f7b558cad23beef6fa589040391c4664b068b548cd0cc2136b95d11a70037e6",
    ),
    "bfs/8191/x8": (
        "2fe66ae194d05c6c52b9260ed2a288e374f363167ffd390b83a03cb82c884b76",
        "2838f9b74a9bb9bfe912d7fe12ecf67c27917fc5288d17c16f709cc9855837fc",
        "5c303b7461505b306a8bc8a51bae57d9ca56a3ca687d66bcc20530fc5314e7f3",
        "0bfd44e802427dd8028b8fa442e58ed557fd2ff01478861ca7c6aa59422f1e6b",
        "c898d244b5629663dafb961b9b5e9a9aec5a7b17f498dffd4c309832f8ba3d70",
        "3724b74a577e241da15f33a3ebfca0e99e50638bdf71d0cc788dfa3fb90b1871",
        "ab5c9926e91f01d4e8c3b66b15b82a3a0aa7de9ab2a937553da2ef69fd243aa1",
        "6e76d9bad4d744b36eea0369366dc76ded9d19855290d0b0561fffd754a5a7c8",
    ),
    "bfs/8193/x2": (
        "e972452ab1e7940a1986a8afe391805c131fa4f7cb1fbf16d28e8cc570efc634",
        "4a6be96b22525ccbf4de325b5b5f2080501ce258733f8fc2df516acdb19ab91f",
    ),
    "bfs/8193/x4": (
        "179219105de5b735f941be116d892419310e8fca9110a6cc446769035ee08d6c",
        "4b7dc2f015ac335db4cfb435324dddb6bc7b8ae403031141e4fed1cf08f9231d",
        "18b4e164d6c40e790015df2102859467d609dc4321733adbeb4b5220ab1a3ba3",
        "d855b302656adc0cff4635126474bad98d7a52cdee7cd3b80e64e3a7a05551ca",
    ),
    "bfs/8193/x8": (
        "ccd1b45d1418138c32272e10709ab8a96d1a030a70bc7ffe44948634593955c8",
        "5ff4e590f3a7b6cbc5220913c8d127b3bed479c9a392413aa74193161d407989",
        "d5163831f6c980a51afecae25f26010d191c8094e6f0abd39f9e2e3a67991af7",
        "ad727c5c665ef40a85c071b33aebbb892e38a3146b1b3c15fc64e760b79279bf",
        "3ea222cf0c8826fd476bef3928d3b77fe9c7dbbe2f0823ae4753f138a2412055",
        "cf1a9bba4f4b71cda8f343bc7d63f700709e75288b58491dc6d7179efa7eb719",
        "d73cbf5b3bccca4751ff24377fb881fce239f807029551534f976b16e93f5f22",
        "c3bd71332ae327527bbc8a330eae6327350f5bc7020ecd3af61d01bc035559d1",
    ),
    "bfs/25000/x2": (
        "bc866d23c892063ca96f065ad821ce998e78d9dd12709ffc8fff8e2e7690f3ce",
        "9263fd35fa739a196767e277f445d2170bdd62aac6b758efc0f49540cc14f8f6",
    ),
    "bfs/25000/x4": (
        "9c2ba094ebf08f6f444fc5a6342147449cc98ece749b3df2eefe5e7e03a38bf5",
        "54a533f76cc9b66b7c67a598b1c2db6e3dfd440935119c7d9c516f598e1a7c42",
        "2ddb5bcabc7360ae454ba11290cc60eee5c4c378c2e94138287a35bcd2a7ed33",
        "7b2d2b29dc0bdad647304a8ad91145864ffc3c2107002df88f12d380e9cdbb5b",
    ),
    "bfs/25000/x8": (
        "4825a907d0a4e60ebbb04715741bbe914468ece69b336b6ddbf5d0befbcf9078",
        "b74992ac00b469838d9f2efb8594d29e8d4aa16f95d11a89c6a9bdc248395f00",
        "40da64484d02b7767cc784e807e9b7e4577353efc2a677ea6c61a0314dc406f6",
        "b93219830949983467e11e82feebecc5705e89d05b49fee71ccaa1a2c000e05e",
        "f225b1b15ea9cfc8365ce25e3c2cbeabc5b135112852f9f14c996d03336963ce",
        "c56bec31a587e34016d7af5b598ffa640b27b6aba5bebf7e4ddba57237de2c2b",
        "f00c0e00404e657d2d54347d4a421b98317bdd72b89898c0b925ee924fc4e7d6",
        "223361a56c9d990ffed29df2f88e90c3c86ce85c165e438df74691dc71879622",
    ),
    "lbm/1/x2": (
        "7724142b8bb5806825a7f7fc241089368bd1d5b8b58ccb99d5e99248408fa3d5",
        None,
    ),
    "lbm/1/x4": (
        "7724142b8bb5806825a7f7fc241089368bd1d5b8b58ccb99d5e99248408fa3d5",
        None,
        None,
        None,
    ),
    "lbm/1/x8": (
        "7724142b8bb5806825a7f7fc241089368bd1d5b8b58ccb99d5e99248408fa3d5",
        None,
        None,
        None,
        None,
        None,
        None,
        None,
    ),
    "lbm/8191/x2": (
        "e2f64bb0ed5c493c83624d47dc72b2a1d339220da8e6c1dbb8dbd0ba3d2d910b",
        "11282d9f20abec4ac3e323ea3c2c53af5359099dda398577669536167c74873c",
    ),
    "lbm/8191/x4": (
        "729836364af80dab731ade828b1a02f8a13bd669f6eaa278e27540dcc7db8d30",
        "7046502b9ab7d5d84ca56e15a65b4e6c5b5211ea6179cd1217c577bfe3d12a13",
        "3ee0019bb2b5ceaadbdfc1262130c7952803f067a54ede0d117ca2a55fad4f83",
        "9fb667f9a128c605f4acd72baf3a5090d971e84dcb5b48658127b38ea300aada",
    ),
    "lbm/8191/x8": (
        "03d0e82e42a8983fbb4b1c55ec42d1171afad70f25ebc1edc8e737e4e2255421",
        "63e3a1322e73008cb1d24e650444285beeccf0c2878cd94596a9b2b1c95291e9",
        "fae12c8ffad15859a0f78665f3a2e9895569e3bd4ac7e3f07008d0279425b84f",
        "a6e4a5f8f7e9318605de053889470c265c1aac2a9add1a0968bf53b399375fab",
        "fd8be43b10306fea82c970af6ff1932da6bf8e953e86c29e384655b608d01dcb",
        "11b753ec8d3af5285eb6caac3a7176c683917d1d9660a8034aec1852d270efa1",
        "2ade9b7f55b9661b1981d9ad064b1772f506f15a99af0e937c3a2c02794c2ae9",
        "2d9f19931ea16a1e46921e1d4e2066260d3bd08c12c44a483887b97c53f48d9e",
    ),
    "lbm/8193/x2": (
        "e32179cadae580fb7d4ab859ffd21f8148918d080d43f5070bb82da82af2064e",
        "0bfed11524e4cdd505e230e5c49c8ffcd3cb925c9d6589127eda08d35a64a8f3",
    ),
    "lbm/8193/x4": (
        "a130f3f26b72d0a2e7c5dadd2b193cb4741d3f1403098e9c77c196f1cc6ee6ed",
        "f13df9df777556adf3082e816aa6a097559297fa0bf379eb5d2b5c957b4a07b4",
        "989fdd593c2502f4499cf56b54d90e9aed2370ae9c48ab87c08cbe35e625449c",
        "a00e426792322c197fbb2ec46f5e0e510791c718517411fefe8318393d44ac8a",
    ),
    "lbm/8193/x8": (
        "66bdaf6eec418538e31dd2cdb58663bdd175547f479318b3c8d62eb2ac1bf60a",
        "2b00cec34bdf1c9ece74b45ff67b07ba9ed62c9c673bf43ec72882900389cccb",
        "d650ad447035b112f08e07c7062cba523fb600f2abf57154ba84affa4b97b5b0",
        "ad76078bb99089034c4b1d9fec054809a77a0a91f7d76c392d9e9b74107c90e7",
        "50a17eec5db32b58af861c3a3b6524e2e64cf3298e4fc34983a16c01cdb37eba",
        "093971473586b7ec561d03d6e6463640c261e607f0c1e48d6ea017480f5d75dd",
        "481363d9ec3b58ac978fe4726ff71a50ee84c5b817cb32476fd7c1c9ee50035f",
        "c85d978bec524ae49bbf72d77755f88ca6f8f3f10e94ca91b90c18f009224a33",
    ),
    "lbm/25000/x2": (
        "9de6ca6810465475baf7fbffa8a9552e2b203885e5304b050b2f372b481a9c7c",
        "1fcbd2bfc1a3977cfb63676ccfff7fccec8d06f902d4a8708864dbd8210674b3",
    ),
    "lbm/25000/x4": (
        "445ee267e2c1bed6a17e1fe9d960d7d15171e7ce642930fdc028af4f75f8d02c",
        "b888241a044f36b590278a35e5badf44322876970a69b6496033b25e69e1343a",
        "b5eb1769c1805509bd82d89d0096de31ff19b24e6481ce85c6444b9004837891",
        "9b0eda1bb41a399fee81b050f0ac27916b5fcaab34eb0410182bca7fd8d017ea",
    ),
    "lbm/25000/x8": (
        "eb25f7bbfa7ab41ed22b914a658089e260baedc6b317528cd7341d8613f0631e",
        "2064fa86559d93281601dd51af10314e7bb69a332d1c4bd5c6459710fbc61663",
        "02c2bdedf3559f7ed89ca10f21032eecf0da31bc71f9d6626ce0ff8c62b6dd93",
        "33b47d17ac4c3f9457da5c6bda50c7862ad08bc3de707115acff17ac160e003e",
        "aecb2ea3d95f04fd13a8a5b2f844f91bc9df1acf44fe3ee3939afce014590a16",
        "e7cedbdd8eb5c765760712d41ff814fdc822d02c79626a2b42562e9d09a41f80",
        "1d2839e5f17e31ac67b4f6f37e1597e68115e6e985492d3fa7bde718422d4a96",
        "56eafa9b46f2ab89422050997c424ad8e95fece709b11c270f9417ef5fe500f1",
    ),
}
