"""Set-up probe: run a workload's solve up to its first time step, then exit.

``run.py`` starts this script in a fresh interpreter.  It imports shmod
and runs the workload's real solve (``run_study`` or
``estimate_landau_coefficient``) with ``SHStepper.step_spec`` patched: on
its first call, the probe prints ``time.monotonic()`` and exits at once.
On Linux that clock is shared by all processes, so the difference from the
parent's start time covers interpreter start-up, ``import shmod``, config
validation and stepper construction.

    python3 bench/setup_probe.py <workload> <seed> <out_dir>
"""
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports shmod)
from shmod.sh import SHStepper  # noqa: E402


def first_step(*args, **kwargs):
    print(repr(time.monotonic()), flush=True)
    os._exit(0)


def main() -> None:
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    SHStepper.step_spec = first_step
    workloads.WORKLOADS[name].run(seed, out_dir)
    sys.exit("the solve ended without taking a step")


if __name__ == "__main__":
    main()
