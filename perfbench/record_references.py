"""Record the correctness references of the current backend.

    python3 perfbench/record_references.py

Runs every input the workloads can draw once and stores, under the name
of the active backend in ``perfbench/references.json`` (other backends'
entries are kept):

  reproduce  SHA-256 of every file each preset writes
  scan       SS/SU/AU cell counts of each panel
  ensemble   (AAVE, fuel) of every strategy on every heterogeneity draw

``analyze`` needs no recording: it is checked against the paper's
dimension formulas.  Record at a commit whose outputs are trusted; the
benchmark then marks any op whose output differs as failed.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    lcc = run.load_lcc()
    import workloads as w

    refs = {"reproduce": {}, "scan": {}, "ensemble": {}}
    tmp_parent = run.ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=tmp_parent))
    try:
        for name in sorted(lcc.presets.PRESETS):
            lcc.presets.run_preset(name, tmp / name)
            refs["reproduce"][name] = w.file_digests(tmp / name)
    finally:
        shutil.rmtree(tmp)
        tmp_parent.rmdir()
    for panel in sorted(w.SCAN_PANELS):
        spec, (ax1, ax2) = w.scan_inputs(panel)
        refs["scan"][panel] = w.scan_counts(lcc.stability.scan_region(spec, ax1, ax2))
    for draw in range(w.ENSEMBLE_POOL):
        refs["ensemble"][str(draw)] = {
            label: list(w.run_scenario(w.ensemble_scenario(ctl, draw)))
            for label, ctl in w.ensemble_strategies()
        }

    path = run.HERE / "references.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    stored[lcc.kernels.backend_name()] = refs
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
