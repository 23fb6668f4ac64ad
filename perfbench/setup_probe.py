"""Set-up probe: one fresh process times import + config build + parsing.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``. Before the
timer starts it imports only what the interpreter has already loaded plus
``speed`` (which needs ``signal``), so every module the library and the
config builder pull in is inside the timed region. Prints one JSON object.
"""

import os
import sys
from time import perf_counter

import speed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    before = speed.calibrate()
    start = perf_counter()
    sys.path.insert(0, SRC)
    import workloads
    from massey_workbench import config

    for command, doc, _ in workloads.job_calls(workload, seed):
        if command == "massey":
            config.massey_from_json(doc)
        elif command == "axioms":
            config.spec_from_json(doc["decomposition"], doc["rank"])
        else:
            config.qm_from_json(doc["phi"], doc["rank"])
    raw = perf_counter() - start
    after = speed.calibrate()
    import json

    norm = raw * speed.REFERENCE_S * 2 / (before + after)
    print(json.dumps({"setup_raw_s": raw, "setup_s": norm, "module": config.__file__}))


if __name__ == "__main__":
    main()
