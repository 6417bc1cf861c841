"""Machine-speed reference for timings on a shared, noisy host.

On a host shared with other tenants the same work can take 20-40 %
longer for seconds to minutes at a time, and the process's CPU time
grows with its wall time, so neither tells the program's cost apart
from the neighbours' load.  :class:`Reference` therefore times a fixed
pure-Python loop every SAMPLE_PERIOD_S on the same CPU as the program
(both are pinned to it), and :func:`scaled_times` rescales every timed
job by REFERENCE_S over the loop's median time around that job.  A
job's scaled time reads as its time on a host where the loop takes
REFERENCE_S.

The loop's own cost is measured as its thread CPU time, so it does not
count being descheduled in favour of the job; the same CPU time is what
the job lost to it and is taken back out of the job's wall time.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from array import array
from typing import Dict, List, Sequence, Tuple

#: Size of the reference loop (about 2 ms) and how often it runs.
ITERATIONS = 20000
SAMPLE_PERIOD_S = 0.1

#: Room for the samples of the longest run (PROCESS_TIMEOUT in run.py).
MAX_SAMPLES = 2000

#: Nominal duration of the loop: the unit scaled times are expressed in.
REFERENCE_S = 0.002

#: Loop samples within this many seconds of a job scale its time.
WINDOW_S = 0.5


def pin_to_one_cpu() -> None:
    """Pin this process (and the processes it starts) to its lowest CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Reference(threading.Thread):
    """Samples the reference loop until :meth:`stop`.

    Samples go into preallocated arrays: a sampler that allocated
    objects would shift when the program's garbage collections run,
    and with them its peak RSS.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._starts = array("d", bytes(8 * MAX_SAMPLES))
        self._cpu = array("d", bytes(8 * MAX_SAMPLES))
        self._taken = 0
        self._stopped = threading.Event()

    def run(self) -> None:
        while self._taken < MAX_SAMPLES and not self._stopped.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            cpu = time.thread_time()
            x = 0
            for i in range(ITERATIONS):
                x += i * i % 7
            self._cpu[self._taken] = time.thread_time() - cpu
            self._starts[self._taken] = start
            self._taken += 1

    def stop(self) -> List[Tuple[float, float]]:
        """Stop sampling; the (start, thread CPU seconds) samples."""
        self._stopped.set()
        self.join()
        return list(zip(self._starts[:self._taken], self._cpu[:self._taken]))


def scaled_times(spans: Sequence[Tuple[float, float]],
                 samples: Sequence[Sequence[float]]) -> List[float]:
    """Scale each (start, seconds) span by the reference samples near it."""
    samples = sorted(samples)
    stamps = [stamp for stamp, _ in samples]
    scaled = []
    for start, seconds in spans:
        end = start + seconds
        own = sum(cpu for _, cpu in samples[bisect.bisect_left(stamps, start):
                                            bisect.bisect_right(stamps, end)])
        near = [cpu for _, cpu in samples[
            bisect.bisect_left(stamps, start - WINDOW_S):
            bisect.bisect_right(stamps, end + WINDOW_S)]]
        if not near:
            raise ValueError("no reference sample near a timed span")
        scaled.append((seconds - own) * REFERENCE_S / statistics.median(near))
    return scaled


def per_job_median(keys: Sequence, times: Sequence[float]) -> Dict:
    """Median time of each job key over its repeats."""
    by_key: Dict = {}
    for key, value in zip(keys, times):
        by_key.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in by_key.items()}
