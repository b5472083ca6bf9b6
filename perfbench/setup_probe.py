"""Child process timed by ``run.py`` for setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports lcc from the checkout's ``src/`` and runs the workload's warm-up op.
"""

import json
import sys

import run


def main(workload: str, seed: int) -> None:
    lcc = run.load_lcc()
    import workloads

    refs = json.loads((run.HERE / "references.json").read_text())
    wl = workloads.WORKLOADS[workload](run.ROOT, refs.get(lcc.kernels.backend_name(), {}), seed)
    _, op = wl.warmup_op()
    op()
    wl.end_pass()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
