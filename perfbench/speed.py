"""Host-speed sampling, so that timings do not move with a shared host's load.

On a shared VM a core's speed changes from one second to the next (another
tenant on the sibling hyperthread slows it by up to 1.8x) and in steps that
last minutes.  A sampler process pinned to the core the timed work runs on
executes a fixed probe every ``INTERVAL`` seconds and records how much CPU
time the probe took (its own thread CPU time, so waiting for the core does
not count).  A timed interval is then reported in *speed-normalised*
seconds: each slice of wall time between two probes is scaled by
``REFERENCE_PROBE_S / probe``.  The result is the time the work would have
taken on a core that runs the probe in ``REFERENCE_PROBE_S``; work done by
the program under test still counts one for one, so a change that makes it
do more work reads slower by the same share.  The reference is a constant,
not a figure of the run, so that a host that is slower for a whole run is
corrected too.

    python3 perfbench/speed.py --cpu 0

is the sampler process: it prints ``ready``, probes until SIGTERM, then
prints its samples as JSON.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import subprocess
import sys
import time
from typing import List, Tuple

#: Seconds between two probes.
INTERVAL = 0.02
#: Probe time of the reference core: about what the probe takes on an
#: uncontended core of the 2-vCPU 2.1 GHz Xeon VM the bounds were set on.
REFERENCE_PROBE_S = 150e-6
#: Loop iterations of one probe (about 0.1-0.2 ms of interpreter work).
PROBE_ITERATIONS = 400


def probe() -> float:
    """CPU seconds of a fixed mix of interpreter and small-matrix work."""
    import numpy as np

    matrix = np.eye(2, dtype=complex)
    table: dict = {}
    start = time.thread_time()
    for i in range(PROBE_ITERATIONS):
        table[i & 31] = table.get(i & 31, 0) + i
        if i % 10 == 0:
            matrix = matrix @ matrix
    return time.thread_time() - start


def work_cpu() -> int:
    """The core that the timed work and its sampler share."""
    return min(os.sched_getaffinity(0))


class Timeline:
    """Probe samples ``(wall time, probe seconds)``, in wall-time order."""

    def __init__(self, samples: List[Tuple[float, float]]) -> None:
        samples = sorted(s for s in samples if s[1] > 0)
        if len(samples) < 10:
            raise RuntimeError(f"speed sampler recorded only {len(samples)} probes")
        self.times = [t for t, _ in samples]
        self.probes = [p for _, p in samples]
        #: median probe time of the run, for the record
        self.median_probe = sorted(self.probes)[len(self.probes) // 2]
        # cumulative normalised seconds at each sample time: the slice
        # between sample i and i+1 runs at the speed sample i+1 measured.
        self._cumulative = [0.0]
        for i in range(1, len(samples)):
            slice_s = self.times[i] - self.times[i - 1]
            self._cumulative.append(self._cumulative[-1] + slice_s * self._scale(i))

    def _scale(self, i: int) -> float:
        return REFERENCE_PROBE_S / self.probes[i]

    def _at(self, t: float) -> float:
        """Normalised seconds from the first sample to wall time ``t``."""
        i = bisect.bisect_right(self.times, t)
        if i == 0:
            return (t - self.times[0]) * self._scale(0)
        if i == len(self.times):
            return self._cumulative[-1] + (t - self.times[-1]) * self._scale(-1)
        return self._cumulative[i - 1] + (t - self.times[i - 1]) * self._scale(i)

    def seconds(self, start: float, end: float) -> float:
        """Speed-normalised length of the wall-time interval ``[start, end]``."""
        return self._at(end) - self._at(start)


class _Wall:
    """Plain wall time, for runs without a sampler (the benchmark's own tests)."""

    median_probe = 0.0

    @staticmethod
    def seconds(start: float, end: float) -> float:
        return end - start


WALL = _Wall()


class Sampler:
    """The sampler process, pinned to ``cpu``; ``stop()`` returns a :class:`Timeline`."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            if self.proc.stdout.readline().strip() != "ready":
                raise RuntimeError("speed sampler did not start")
        except BaseException:
            self.kill()
            raise

    def stop(self) -> Timeline:
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=60)
        return Timeline([tuple(s) for s in json.loads(out)])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    os.sched_setaffinity(0, {args.cpu})
    probe()  # import numpy and warm the probe before the first sample
    print("ready", flush=True)
    samples: List[Tuple[float, float]] = []
    while not stopping:
        samples.append((time.perf_counter(), probe()))
        time.sleep(INTERVAL)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
