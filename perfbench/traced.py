"""Run the ``repro`` CLI with every layer entry point wrapped.

    python3 perfbench/traced.py OUT.json eval all

The whole process, imports included, is one job whose root layer is
``evalharness``; flows, tasks and layer calls nest under it.  Writes
the job's per-layer totals and counter deltas to ``OUT.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    from spans import LayerTotals, Recorder, install_layers

    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.start_job("evalharness")
    install_layers(recorder)
    from inproc import CounterWindow
    from repro.__main__ import main as repro_main

    window = CounterWindow()
    code = repro_main(cli_args)
    sys.stdout.flush()
    totals = LayerTotals()
    totals.add(recorder.finish_job())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"totals": totals.to_dict(), "counters": window.close()},
                  fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
