"""Regenerate ``reference.json``, the outputs the benchmark's check expects.

    python3 perfbench/make_reference.py

For every workload it records the outputs of the small fixed instance that
every run checks, and of one full-size unit for each seed in ``REF_SEEDS``,
which a run with that seed compares against. Run it only when the library's
outputs are meant to change, and say why in the change that commits the new
file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import envinfo
from run import OUT, REF_SEED, REF_SEEDS, REFERENCE, ROOT


def main() -> int:
    envinfo.pin_blas_threads(1)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    reference = {}
    for name, wl in WORKLOADS.items():
        entry = {"check_seed": REF_SEED, "seeds": {}}
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT / "tmp") as tmp:
            runs = [("check", REF_SEED, "check")] + [(str(s), s, "full") for s in REF_SEEDS]
            for key, seed, size in runs:
                workdir = Path(tmp) / f"{size}-{seed}"
                workdir.mkdir()
                unit, _ = wl.unit(wl.setup(seed, workdir, size))
                if size == "check":
                    entry["check"] = unit.outputs
                else:
                    entry["seeds"][key] = unit.outputs
                print(name, size, seed, unit.outputs["accuracy_pct"], file=sys.stderr)
        reference[name] = entry
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
