"""Record the reference columns of ``results.csv`` that the benchmark's
output checks compare against, for every master seed it can run.

    python3 perfbench/record_references.py

Run it only at a commit whose outputs are accepted as correct: a later
change to the program must reproduce these files byte for byte.
"""

from __future__ import annotations

import os
import sys

from run import OUT, import_package


def main() -> int:
    import_package()
    from workloads import REFERENCE_SEEDS, reference_columns, reference_path, results_csv

    for name in ("trend-grid", "default-column"):
        out_dir = os.path.join(OUT, "record", name)
        os.makedirs(out_dir, exist_ok=True)
        for seed in range(REFERENCE_SEEDS):
            columns = reference_columns(results_csv(name, seed, out_dir))
            path = reference_path(name, seed)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(columns)
            print(f"{name} seed {seed}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
