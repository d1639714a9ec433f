"""Regenerate perfbench/reference.json: one episode per workload and case.

    python3 perfbench/make_reference.py [workload ...]

Only for a change that is argued to move numerics on purpose; a speed-up
must pass against the committed reference. Runs with the BLAS thread count
that run.py pins.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

from run import BLAS_ENV, BLAS_THREADS, HERE, ROOT

for _var in BLAS_ENV:  # before numpy is imported
    os.environ[_var] = str(BLAS_THREADS)

sys.path.insert(0, str(ROOT / "src"))
from worker import MODULES  # noqa: E402
from workloads import CASES, WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    pkg = {m: importlib.import_module(f"orbiconv.{m}") for m in MODULES}
    path = HERE / "reference.json"
    if path.exists():
        reference = json.loads(path.read_text(encoding="utf-8"))
    else:
        reference = {"cases": CASES, "workloads": {}}
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        cases = {}
        for case in range(CASES):
            state = workload.setup(pkg, case)
            cases[str(case)] = workload.episode(pkg, state)
            print(f"{name} case {case}: done", file=sys.stderr)
        reference["workloads"][name] = cases
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
