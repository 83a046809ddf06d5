"""Rebuild the output references in baseline.json from the program as it is.

    python3 perfbench/reference.py

`golden` holds, per workload, what `workloads.golden_values` takes from
GOLDEN_EPISODES episodes on the GOLDEN_SEED input; every benchmark run must
reproduce it within `tolerance.golden_rel`. `band` holds the mean of the
aggregate over REFERENCE_SEEDS; a run's seeded input must land within
`tolerance.band_abs` of it. Only rerun this on purpose, on the commit whose
outputs are the reference; other keys of baseline.json are kept.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
from pathlib import Path

import workloads as W

W.pin_threads()
W.import_program()

from fsosr.pipeline import run_eval  # noqa: E402

REFERENCE_SEEDS = range(1, 9)
BASELINE = Path(__file__).with_name("baseline.json")


def evaluate(workload: str, seed: int, episodes: int, work: Path, **overrides):
    data = W.WORKLOADS[workload]["data"]
    path = work / f"{data}-{seed}.fsof"
    if not path.exists():
        W.write_input(data, seed, path)
    cfg = W.run_config(workload, str(path), seed, episodes, None)
    return run_eval(dataclasses.replace(cfg, **overrides))


def main() -> None:
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    work = W.WORK_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    golden, band = {}, {}
    try:
        for workload in W.WORKLOADS:
            bundle = evaluate(workload, W.GOLDEN_SEED, W.GOLDEN_EPISODES, work, dump_last_bank=True)
            golden[workload] = W.golden_values(bundle)
            runs = [evaluate(workload, s, W.EPISODES_PER_CALL, work).aggregate for s in REFERENCE_SEEDS]
            band[workload] = {"seeds": list(REFERENCE_SEEDS)}
            for key in ("mean_auroc", "mean_accuracy"):
                values = [run[key] for run in runs]
                band[workload][key] = statistics.fmean(values)
                band[workload][f"{key}_range"] = [min(values), max(values)]
            print(workload, band[workload], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            W.WORK_DIR.rmdir()
        except OSError:
            pass
    baseline.update(golden=golden, band=band)
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
