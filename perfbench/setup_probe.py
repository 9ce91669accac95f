"""Fresh-interpreter set-up probe: ``setup_probe.py WORKLOAD SEED``.

Imports the workload, makes it ready for its first timed call (program
builds; for ``serve_mix`` a daemon spawned through ``hello-ok``),
prints ``ready`` and tears down.  The parent times process start to
that line; see ``harness.setup_seconds``.
"""

import importlib
import sys

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    teardown = importlib.import_module(workload).prepare(seed)
    print("ready", flush=True)
    teardown()
