"""Write reference.json: each workload's outputs at the reference seed.

The checkers compare these values with every op at that seed, so record
them only at a commit whose numbers are trusted.  Run from the root of a
checkout: ``python3 perfbench/record_reference.py``.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    workloads.setup()
    seed = workloads.REFERENCE_SEED
    ref = {"seed": seed}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for name, wl in workloads.WORKLOADS.items():
            ref[name] = wl.summary(wl.run(wl.make_inputs(seed), Path(tmp)))
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
