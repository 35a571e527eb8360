"""One cold start of a batch workload's client, for ``setup_s``.

Starts the interpreter, imports the package and everything a job calls
(through ``workloads``), and builds the workload's backend (and, for
repeat-tiled, its result cache), then prints ``time.monotonic()`` — the
moment the first job could start — and exits. The caller subtracts its
own monotonic launch time; both read the same system-wide clock.

Usage: python3 perfbench/coldstart.py WORKLOAD WORK_DIR
"""

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)


def main(workload: str, work: str) -> None:
    from common import stop_resource_tracker
    from workloads import PipelineCache, make_backend

    backend = make_backend(workload)
    if workload == "repeat-tiled":
        PipelineCache(os.path.join(work, "coldstart-cache"))
    ready = time.monotonic()
    backend.close()
    stop_resource_tracker()
    print(repr(ready))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
