#!/usr/bin/env python3
"""Regenerate the paper's headline numbers in one run.

Runs the full 16-benchmark suite on all five Table 2 systems and prints the
abstract's claims next to what this reproduction measures:

* "improve IPC ... (16% on average)"  -> C1 gmean speedup
* "reducing the average consumed power by 20%" -> C1 total-L2-power ratio
* the naive STT baseline's +5% IPC / +19% energy
* C2/C3 total-power reductions (63.5% / 42% in the paper)

Takes a minute or two.  Run:  python examples/paper_headline.py
"""

from repro.experiments.runner import run_experiment


def main() -> None:
    print("running the full suite on all five systems (80 simulations)...")
    result = run_experiment("fig8", trace_length=15_000)
    print()
    print(result.render())
    extras = result.extras

    print("\npaper claim vs reproduction (shape comparison):")
    rows = [
        ("C1 average IPC gain", "+16%",
         f"{(extras['gmean_speedup_c1'] - 1) * 100:+.0f}%"),
        ("C1 peak IPC gain", ">100%",
         f"{(extras['max_speedup_c1'] - 1) * 100:+.0f}%"),
        ("STT-baseline average IPC gain", "+5%",
         f"{(extras['gmean_speedup_stt'] - 1) * 100:+.0f}%"),
        ("C1 total L2 power", "-20%",
         f"{(extras['gmean_total_c1'] - 1) * 100:+.0f}%"),
        ("C2 total L2 power", "-63.5%",
         f"{(extras['gmean_total_c2'] - 1) * 100:+.0f}%"),
        ("C3 total L2 power", "-42%",
         f"{(extras['gmean_total_c3'] - 1) * 100:+.0f}%"),
        ("STT-baseline total L2 power", "+19%",
         f"{(extras['gmean_total_stt'] - 1) * 100:+.0f}%"),
    ]
    print(f"{'claim':<32}{'paper':>10}{'measured':>10}")
    print("-" * 52)
    for claim, paper, measured in rows:
        print(f"{claim:<32}{paper:>10}{measured:>10}")


if __name__ == "__main__":
    main()
