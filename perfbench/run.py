"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload small_ladder --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it carry the
environment stamp and per-job details. With --trace 1 the metrics are the
per-layer ones and the spans are written to perfbench/out/. The program
exits with code 2, printing no result, when the checkout holds no amphimax
sources.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "amphimax" / "__init__.py").is_file():
        print(f"error: no amphimax sources under {src}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads its BLAS: a second thread would
    # contend with other processes for the cores and add to the spread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{tag}.spans.jsonl" if args.trace else None
    result, detail = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds, args.trace, spans_path)
    stamp = harness.stamp(args.workload, args.seed, args.trace)
    (OUT / f"{tag}.json").write_text(json.dumps({"stamp": stamp, "detail": detail, "result": result}, indent=2))
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
