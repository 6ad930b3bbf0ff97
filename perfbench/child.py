"""One round of a workload, in its own interpreter: import the CLI, then run its commands.

Usage: python3 perfbench/child.py PLAN.json

PLAN.json holds {"commands": [[argv...], ...], "trace": bool, "report": path,
"spans": path}.  The report records the CPU seconds spent reaching the first
command (set-up) and running the commands, each command's exit code, the peak
resident set, and with tracing the span summary.

CPU seconds are scaled to a reference speed.  The cores this benchmark was
built on switch between speeds some 40-60% apart every few seconds, each core on
its own, so raw CPU time of the same work spread by 20% between runs.  A
fixed pure-Python loop (the probe) is timed on this process's own core every
50 ms of its CPU time; the commands' CPU time, less the probes', is
multiplied by the mean of PROBE_REF_S over the probe's time, which is the
mean speed relative to the reference.  Each tick runs the loop
PROBE_REPEATS times back to back and keeps the fastest pass, so the first
pass warms the caches the commands left cold and the kept one tracks the
core's speed rather than the program's working set (``probe_check.py``
measures what is left of that effect).  The raw figures are reported too.
"""

import json
import resource
import signal
import sys
import time
from fractions import Fraction

PROBE_LOOPS = 2600
PROBE_REF_S = 0.001  # CPU seconds of one probe at the reference speed
PROBE_PERIOD_S = 0.05
PROBE_REPEATS = 3


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe_pass() -> float:
    """CPU seconds of one pass of the fixed loop on this thread."""
    # the kinds of work skelsig does: small ints, tuple indexing, dicts, Fractions
    start = time.thread_time()
    rows, counts, frac, acc = ((1, 2, 3), (2, 3, 1), (3, 1, 2)), {}, Fraction(0), 0
    for i in range(PROBE_LOOPS):
        acc += rows[i % 3][i % 3] * i % 7
        counts[i & 63] = counts.get(i & 63, 0) + 1
        if i % 16 == 0:
            frac += Fraction(1, i + 1)
    return time.thread_time() - start


class SpeedProbe:
    """Times a fixed loop now and then; ``spent`` is the CPU the probes took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def probe(self, *_signal) -> None:
        passes = [probe_pass() for _ in range(PROBE_REPEATS)]
        self.samples.append(min(passes))
        self.spent += sum(passes)

    def scale(self, first: int = 0) -> float:
        """Factor from raw CPU seconds to reference-speed seconds, over samples[first:].

        The ticks come evenly in CPU time, so the mean of the speeds they
        read, not the inverse of their mean time, weights each stretch by its
        length when the core switches speed within a round.
        """
        tail = self.samples[first:]
        return sum(PROBE_REF_S / t for t in tail) / len(tail)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


def _peak_rss_kb() -> int:
    """This process's own RSS high-water mark.

    Not ru_maxrss: Linux carries the parent's high-water mark into a child
    across exec, so ru_maxrss would report the memory of run.py, the parent.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    probe = SpeedProbe()
    for _ in range(5):
        probe.probe()
    import skelsig.cli

    for _ in range(5):
        probe.probe()
    ready = _cpu()
    setup_raw = ready - probe.spent
    report = {"setup_raw_s": setup_raw, "setup_s": setup_raw * probe.scale()}

    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer(clock=lambda: time.process_time() - probe.spent)
        tracer.install()
    first, spent = len(probe.samples), probe.spent
    start = _cpu()
    probe.start()
    codes = [skelsig.cli.main(argv) for argv in plan["commands"]]
    probe.stop()
    commands_raw = _cpu() - start - (probe.spent - spent)
    scale = probe.scale(first) if len(probe.samples) > first else probe.scale()
    report.update({
        "commands_raw_s": commands_raw,
        "commands_s": commands_raw * scale,
        "probe_samples": len(probe.samples) - first,
        "codes": codes,
        "peak_rss_kb": _peak_rss_kb(),
    })
    if tracer is not None:
        report["trace"] = tracer.summary(scale)
        tracer.write(plan["spans"])
    with open(plan["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
