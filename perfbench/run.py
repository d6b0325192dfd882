"""voxtherm benchmark: one workload, one seed, one fresh process.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record-digests

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced print, measured
beside an untraced one. Earlier stdout lines describe the environment, the
input and the run. ``--record-digests`` rewrites the workload's committed
output digests from one print at the default seed. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import env


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    return p.parse_args(argv)


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare_process()
    except env.SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    import measure
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, placement

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(workload, DEFAULT_SEED)

    emit({"fingerprint": env.fingerprint()})
    gcode_path, text = measure.write_input(workload, args.seed)
    expected = measure.committed_digests(workload.name) if args.seed == DEFAULT_SEED else None
    setup_times = [] if args.trace else measure.probe_setup(workload, gcode_path)
    setup = Tracer()
    with setup if args.trace else contextlib.nullcontext():
        case = measure.setup_case(workload, args.seed, text, expected)
    emit({"input": {
        "workload": workload.name,
        "seed": args.seed,
        "shift_xy": placement(workload, args.seed),
        "voxels": len(case.schedule.order),
        "gcode_lines": case.gcode_lines,
        "digests_checked": expected is not None,
    }})

    if args.trace:
        attempted, failed, metrics, detail = measure.run_traced(case, args.seconds, setup)
        units = measure.PER_LAYER
    else:
        attempted, failed, metrics, detail = measure.run_untraced(case, args.seconds, setup_times)
        units = measure.END_TO_END
    emit({"run": detail})
    emit({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })
    return 0


def record_digests(workload, seed: int) -> int:
    import measure

    _, text = measure.write_input(workload, seed)
    case = measure.setup_case(workload, seed, text, expected=None)
    pr = measure.print_once(case)
    problems = measure.check(case, pr)
    if problems:
        print("perfbench: not recording digests of a failing print:", *problems, file=sys.stderr)
        return 1
    data = json.loads(measure.DIGESTS.read_text()) if measure.DIGESTS.exists() else {}
    data[workload.name] = pr.digests
    measure.DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(pr.digests)} digests for {workload.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
