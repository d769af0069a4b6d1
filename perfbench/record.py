"""Record pass-0 outputs of every workload into ``expected.json``.

    python3 perfbench/record.py

Run from the root of a checkout whose package the benchmark should hold
later versions to.  Each seed's pass 0 runs in this process, exactly as
a benchmark child runs it.  The file is rewritten whole.  ``check.py``
and the self-test rely on seeds ``range(SEEDS[size])`` being recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = {"full": 64, "tiny": 4}


def main() -> int:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import THREAD_PINS, WORKLOADS

    os.environ.update(THREAD_PINS)  # before numpy loads
    import common_cv

    workdir = HERE / "out" / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    table = {}
    try:
        for size, seeds in SEEDS.items():
            for name, cls in WORKLOADS.items():
                for seed in range(seeds):
                    outputs = cls(common_cv, size, seed, workdir).run_pass(0)[0]
                    table.setdefault(size, {}).setdefault(name, {})[str(seed)] = outputs
                print(f"recorded {size} {name}: {seeds} seeds", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
