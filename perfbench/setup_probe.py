"""Time one cold set-up in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD

Builds the workload's input bytes first, then times ``import tubecat`` plus
one ``load_spec`` (parse and full validation) per input, and prints the
CPU seconds.  For a workload with no in-process inputs it times the import alone.
``src`` must be on PYTHONPATH.
"""
import sys
import time
from pathlib import Path

import inputs

if __name__ == "__main__":
    data = inputs.workload_inputs(sys.argv[1], Path(__file__).resolve().parent.parent)
    t0 = time.process_time()
    import tubecat

    for raw in data.values():
        tubecat.load_spec(raw)
    print(repr(time.process_time() - t0))
