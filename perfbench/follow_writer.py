"""Open-loop trace writer for the follow-live workload (run as a script).

    python3 perfbench/follow_writer.py SOURCE WINDOW_ENDS N_WINDOWS PACE DEST

Appends the bytes of window ``w`` of ``SOURCE`` (a JSONL trace; window
``w`` ends at byte ``WINDOW_ENDS[w]``) to ``DEST`` at
``t0 + (w + 1) / PACE`` on the monotonic clock, which every process on the
host shares.  Once its input is loaded it creates ``DEST`` empty, fixes
``t0`` a little ahead and prints ``{"t0": ...}``, so the reader charges
every window from the same origin.  The schedule never waits for the
reader: a writer that falls behind writes every overdue window at once,
and its lateness is printed as a second JSON line at the end.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

START_MARGIN_S = 0.05


def main(source: str, window_ends_path: str, n_windows: int, pace: float, dest: str) -> None:
    window_ends = np.load(window_ends_path)[:n_windows]
    with open(source, "rb") as handle:
        view = memoryview(handle.read(int(window_ends[-1])))
    lateness = np.empty(n_windows, dtype=np.float64)
    # Unbuffered: every write reaches the file when it is due.
    with open(dest, "wb", buffering=0) as out:
        t0 = time.monotonic() + START_MARGIN_S
        print(json.dumps({"t0": t0}), flush=True)
        written = 0
        window = 0
        while window < n_windows:
            due = t0 + (window + 1) / pace
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
                now = time.monotonic()
            # Every window already due goes out in this one write.
            last = window
            while last + 1 < n_windows and t0 + (last + 2) / pace <= now:
                last += 1
            end = int(window_ends[last])
            while written < end:
                written += out.write(view[written:end])
            done = time.monotonic()
            for w in range(window, last + 1):
                lateness[w] = done - (t0 + (w + 1) / pace)
            window = last + 1
    print(
        json.dumps(
            {
                "windows": n_windows,
                "bytes": written,
                "late_p50_ms": float(np.percentile(lateness, 50) * 1e3),
                "late_p99_ms": float(np.percentile(lateness, 99) * 1e3),
                "late_max_ms": float(lateness.max() * 1e3),
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5])
