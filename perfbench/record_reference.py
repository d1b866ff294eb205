"""Record the output digests the benchmark checks against.

Run from the repository root when a change alters simulated outputs on
purpose (and say so in that change)::

    python3 perfbench/record_reference.py

It profiles the three Mix-1/Mix-2 curves from an empty store, runs
every Fig. 5 point the cold and warm workloads run and every
adaptive-faults point of ``bench.FAULT_SEEDS``, and writes
``perfbench/reference.json``.  A simulation that raises stops it with
the error.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from bench import (  # noqa: E402
    COLD_SEED,
    FAULT_CONFIGS,
    FAULT_POLICIES,
    FAULT_SEEDS,
    FIG5_SEEDS,
    MIX_BENCHMARKS,
    MIXES,
    REFERENCE_PATH,
    Program,
    canonical_digest,
    faults_key,
    fig5_key,
)


def main() -> int:
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    store = Path(tempfile.mkdtemp(prefix="reference-store-", dir=build))
    os.environ["REPRO_RESULT_STORE_DIR"] = str(build / "results")
    program = Program()
    program.misscache.set_cache_dir(store)
    digests = {}
    try:
        for name in MIX_BENCHMARKS:
            curve = program.curve(name)
            digests[f"curve/{name}"] = canonical_digest(
                program.curve_to_dict(curve)
            )
            print(f"curve {name}", file=sys.stderr)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    points = [("Mix-1", COLD_SEED)] + [
        (mix, seed) for mix in MIXES for seed in FIG5_SEEDS
    ]
    for mix, seed in points:
        for config in program.configurations:
            result = program.run_all_configurations(
                mix, configurations=[config], seed=seed, jobs=1
            )[config]
            digests[fig5_key(mix, seed, config)] = result.fingerprint()
        print(f"fig5 {mix} seed {seed}", file=sys.stderr)

    for seed in FAULT_SEEDS:
        for mix in MIXES:
            for policy in FAULT_POLICIES:
                for config in FAULT_CONFIGS:
                    result = program.fault_sim(mix, config, policy, seed)
                    digests[faults_key(mix, config, policy, seed)] = (
                        result.fingerprint()
                    )
        print(f"fault seed {seed}", file=sys.stderr)

    reference = {"digests": digests}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
