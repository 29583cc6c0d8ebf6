"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flood --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Every metric is printed as a line
``name value unit n=<samples>``; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  A run that breaks a monitoring invariant, or that
cannot import the program from ``src/``, exits non-zero without that
line.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flood", "distinct", "tune"))
    parser.add_argument("--seed", type=int, default=None,
                        help="feeds the NREF data and statement generators "
                             "(default: their own defaults)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time of the interleaved loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import harness

    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except harness.InvariantViolation as violation:
        print(f"perfbench: run rejected, monitoring invariant broken: "
              f"{violation}", file=sys.stderr)
        return 3
    for line in harness.format_table(result):
        print(line)
    print(json.dumps(result.final_line()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
