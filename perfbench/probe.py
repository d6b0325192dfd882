"""Set-up probe: a fresh process that imports voxtherm and builds a schedule.

Usage: ``python3 perfbench/probe.py WORKLOAD GCODE_FILE``. Prints the
scheduled voxel count once the schedule is ready, which is where the parent's
``setup_s`` clock stops.
"""

import sys

import env


def main(name: str, path: str) -> None:
    env.prepare_process()
    import voxtherm.cli  # noqa: F401  (the imports a CLI run pays for)
    from workloads import WORKLOADS, prepare

    with open(path) as f:
        _, sched = prepare(WORKLOADS[name], f.read())
    print(len(sched.order), flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
