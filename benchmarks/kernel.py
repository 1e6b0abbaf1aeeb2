"""Reference kernel: fixed interpreter-bound work that scales the timings.

The shared host this benchmark was written on changes speed by up to 2x
within seconds (``simulate_session`` moved between 3.2 and 8 ms over 100 s),
while errandlab's time divided by this kernel's stayed within about 10%.
The kernel does not touch errandlab, so no change to the package moves it.
Only ``json`` and ``time`` are imported here, because fresh interpreters
that measure errandlab's import time load this module first.
"""

import json
import statistics
import time

# Time of reference_kernel() on the quiet 2-core Xeon VM where the benchmark
# was defined; scaled timings are wall times at that speed.
REFERENCE_S = 0.0005

_DOC = {f"k{i:03d}": {"seq": i, "scene": i % 22, "kind": f"Event{i % 7}",
                      "payload": {"x": i * 0.5, "items": [i, i + 1, i + 2]}}
        for i in range(60)}


def reference_kernel() -> float:
    """Seconds taken by about 0.5 ms of JSON, dict, sorting and integer work."""
    start = time.perf_counter()
    doc = json.loads(json.dumps(_DOC, sort_keys=True, separators=(",", ":")))
    rows = sorted((v["scene"], k, v["payload"]["x"]) for k, v in doc.items())
    acc = 0
    for scene, key, x in rows * 4:
        state = {"scene": scene, "key": key, "x": x}
        acc = (acc * 31 + len(f"{state['key']}:{state['scene']}")) % 1000003
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def speed_factor(kernel_seconds) -> float:
    """Scale from this machine, at the time of the kernel runs, to the reference speed."""
    return REFERENCE_S / statistics.median(kernel_seconds)
