"""Case study 1 (paper Section 5.1): flow scheduling with PIAS/SFF.

Runs the search-style request-response workload at ~70% load with
background bulk traffic, under three policies — no prioritization,
PIAS (priorities learned by demotion), and SFF (priorities from
app-declared flow sizes) — each charged as a native policy (a fixed
cost per executed action) and as interpreted bytecode (a cost per
op), and prints the Figure 9 rows.

Run:  python examples/flow_scheduling.py [--quick]
"""

import sys

from repro.experiments import fig9


def main():
    quick = "--quick" in sys.argv
    duration = 60 if quick else 150
    print(f"running 6 configurations x {duration} ms simulated "
          f"(this takes a few minutes)...\n")
    results = []
    for policy in ("baseline", "pias", "sff"):
        for variant in ("native", "eden"):
            result = fig9.run_flow_scheduling(
                policy=policy, variant=variant, seed=1,
                duration_ms=duration)
            results.append(result)
            print(result.row())
    base = results[0]
    pias = results[2]
    print(f"\nPIAS cuts small-flow average FCT by "
          f"{100 * (1 - pias.small_avg_us / base.small_avg_us):.0f}% "
          f"vs baseline (paper: 25-40%).")
    print("Native vs EDEN columns should be statistically "
          "indistinguishable — the whole point of Figure 9.")


if __name__ == "__main__":
    main()
