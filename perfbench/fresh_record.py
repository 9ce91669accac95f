"""Fresh-interpreter recording: ``fresh_record.py WORKLOAD LABEL SEED OUT``.

Records the workload's program *LABEL* with *SEED* to *OUT* through the
workload's own ``record_to`` function, in an interpreter the benchmark's
tracer never touched.  The parent compares the bytes with the ones its
timed (and, in a traced run, span-wrapped) recordings produced; see
``harness.fresh_recording``.
"""

import importlib
import sys

if __name__ == "__main__":
    workload, label, seed, out = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    importlib.import_module(workload).record_to(label, seed, out)
