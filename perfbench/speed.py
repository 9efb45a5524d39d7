"""Core-speed probe: times a fixed loop on its core while a measured run goes on.

    python3 perfbench/speed.py

It prints ``ready`` once it is timing, then every PERIOD_S runs LOOP
multiplications and records the loop's own CPU time, until SIGTERM (or
MAX_S); then it prints the recorded times as one JSON list.  Started on
the same CPU as a measured process, it samples how fast that core runs
during the measurement: on a shared host the same code can take 1.5x as
long while another tenant loads the core.  Its loop takes about 1% of
the core.
"""

from __future__ import annotations

import json
import signal
import sys
import time

LOOP = 3000
PERIOD_S = 0.025
MAX_S = 200.0


def main() -> int:
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    times: list[float] = []
    end = time.monotonic() + MAX_S
    print("ready", flush=True)
    while not stop and time.monotonic() < end:
        t0 = time.thread_time()
        x = 0
        for i in range(LOOP):
            x += i * i
        times.append(time.thread_time() - t0)
        time.sleep(PERIOD_S)
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
