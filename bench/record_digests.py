"""Record the reference output digests for the default seeds.

Usage: python3 bench/record_digests.py [--seeds FIRST LAST]

Runs one pass over every workload's samples for each seed and writes the
per-sample digests to ``bench/digests.json``; ``run.py`` counts any later
mismatch as a failed sample. Record only from a commit whose outputs are
the reference (the seed code, or a change that meant to alter outputs and
says so).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import DIGESTS, SRC, WORK, worker

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, generate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs=2, default=(0, 19),
                    metavar=("FIRST", "LAST"))
    args = ap.parse_args(argv)
    record: dict[str, dict[str, list[str]]] = {}
    for name, wl in WORKLOADS.items():
        record[name] = {}
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            inputs = WORK / f"{name}-{seed}"
            shutil.rmtree(inputs, ignore_errors=True)
            generate(wl, seed, str(inputs))
            res = worker(name, inputs, "--seconds", "0", timeout=600)
            errors = [r["error"] for r in res["samples"] if "error" in r]
            if errors:
                print(f"{name} seed {seed}: {errors[0]}", file=sys.stderr)
                return 1
            record[name][str(seed)] = res["first_digests"]
            print(name, seed, res["first_digests"], flush=True)
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
