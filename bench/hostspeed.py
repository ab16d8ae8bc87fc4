"""Host-speed probe: how much slower than nominal the host runs right now.

A shared VM's speed drifts by tens of percent, in spells that last from a
fraction of a second to minutes (a neighbour on the same host contending
for the core, its caches and memory bandwidth).  A spell that covers much
of a run moves every timing of that run together.  So the benchmark times a
fixed probe right after each query, outside the query's timed interval, and
reports the query's latency at nominal host speed: its wall-clock latency
divided by the probe's slowdown factor.  The program under test cannot
change the probe: it runs only NumPy, the interpreter and asyncio, on data
of its own, and connects to nothing.

Kinds of work slow down by different amounts in a spell, so the probe has
one kernel per kind of work a round does, and each workload names the
kernels that match where its time goes:

* ``numpy``: an in-place sort of 10^5 doubles, for rounds spent in NumPy
  kernels;
* ``objects``: building a list of small tuples and strings, for rounds
  spent in Python code that allocates objects;
* ``event_loop``: asyncio queue round trips between two tasks, for rounds
  spent in an event loop.

Each kernel runs twice and the second run is timed, so what the query
before it left in the caches does not matter; the garbage collector is off
meanwhile, so the program's heap does not either.  The factor is the
geometric mean, over the named kernels, of each kernel's time over its
nominal time.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time
from typing import Callable, Sequence

import numpy as np

#: Each kernel's time on a calm 2-core x86 VM (Python 3.11, NumPy 2.4), in
#: seconds: the host speed the benchmark reports at.
NOMINAL_S = {
    "numpy": 6.2e-4,
    "objects": 4.0e-4,
    "event_loop": 1.1e-3,
}

KERNELS = tuple(NOMINAL_S)

_SORT_SIZE = 100_000  # 0.8 MB
_OBJECTS = 3_000
_ROUND_TRIPS = 100


class HostSpeedProbe:
    """Times ``kernels`` (default: all of them); :meth:`close` releases the
    event loop the ``event_loop`` kernel runs on.

    ``samples`` keeps every factor :meth:`sample` measured, for the record.
    The probe's data is allocated once, so a NumPy sample allocates nothing.
    """

    def __init__(self, kernels: Sequence[str] = KERNELS) -> None:
        unknown = set(kernels) - set(NOMINAL_S)
        if not kernels or unknown:
            raise ValueError(f"unknown probe kernels {sorted(unknown)}; known: {KERNELS}")
        self.samples: list[float] = []
        self._unsorted = np.random.default_rng(0).random(_SORT_SIZE)
        self._sorting = np.empty_like(self._unsorted)
        self._loop = asyncio.new_event_loop() if "event_loop" in kernels else None
        every: dict[str, Callable[[], object]] = {
            "numpy": self._numpy,
            "objects": self._objects,
            "event_loop": self._event_loop,
        }
        self._kernels = {name: every[name] for name in kernels}

    def close(self) -> None:
        if self._loop is not None:
            self._loop.close()

    def __enter__(self) -> "HostSpeedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _numpy(self) -> None:
        self._sorting[:] = self._unsorted
        self._sorting.sort()

    def _objects(self) -> int:
        return len([(i, str(i)) for i in range(_OBJECTS)])

    def _event_loop(self) -> None:
        self._loop.run_until_complete(_ping_pong(_ROUND_TRIPS))

    def kernel_times(self) -> dict[str, float]:
        """Seconds each kernel took on its second, warm run."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            times = {}
            for name, kernel in self._kernels.items():
                kernel()
                start = time.perf_counter()
                kernel()
                times[name] = time.perf_counter() - start
            return times
        finally:
            if collecting:
                gc.enable()

    def sample(self) -> float:
        """The host's slowdown factor now: 1 at nominal speed, 2 at half speed."""
        times = self.kernel_times()
        logs = [math.log(seconds / NOMINAL_S[name]) for name, seconds in times.items()]
        factor = math.exp(sum(logs) / len(logs))
        self.samples.append(factor)
        return factor


async def _ping_pong(round_trips: int) -> None:
    requests: asyncio.Queue[int] = asyncio.Queue()
    replies: asyncio.Queue[int] = asyncio.Queue()

    async def echo() -> None:
        for _ in range(round_trips):
            await replies.put(await requests.get())

    echoing = asyncio.ensure_future(echo())
    for i in range(round_trips):
        await requests.put(i)
        await replies.get()
    await echoing
