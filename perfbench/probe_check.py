"""How much the cache state a program leaves behind moves the speed probe.

Usage, from the root of the repository:

    python3 perfbench/probe_check.py

For each working-set size W it makes pairs of probe ticks close together in
time, so both see the same core speed: one right after another tick (warm
caches), one right after a sweep over W MB of Python ints (the caches hold
the sweep's data, as they hold the program's between commands).  It prints
the median, over the pairs, of the ratio of the swept tick to the warm one,
for the first pass of the loop and for the fastest of the PROBE_REPEATS
passes that ``child.py`` keeps.  Scaled ``cpu_s`` reads low by the kept
ratio's excess over 1.
"""

from __future__ import annotations

import statistics

from child import PROBE_REPEATS, probe_pass

PAIRS = 60
SIZES_MB = (0, 1, 4, 16, 64)
INT_BYTES = 36  # an int object and its list slot


def tick() -> tuple[float, float]:
    passes = [probe_pass() for _ in range(PROBE_REPEATS)]
    return passes[0], min(passes)


def main() -> None:
    print(f"{'W (MB)':>7} {'first pass':>11} {'kept':>7}")
    for size in SIZES_MB:
        data = list(range(size * 2**20 // INT_BYTES))
        first, kept = [], []
        for _ in range(PAIRS):
            tick()
            warm = tick()
            sum(data)
            swept = tick()
            first.append(swept[0] / warm[0])
            kept.append(swept[1] / warm[1])
        print(f"{size:>7} {statistics.median(first):>11.3f} {statistics.median(kept):>7.3f}")
        del data


if __name__ == "__main__":
    main()
