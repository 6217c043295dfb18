"""One run of a benchmark workload in a fresh interpreter.

    python child.py SIDE_FD WORKLOAD TRACE RUN_ID

WORKLOAD is one of `workloads.WORKLOADS`, or ``setup`` to stop after the
import.  The workload writes its normal output to stdout.  The child writes
one JSON object to the inherited file descriptor SIDE_FD with two
CLOCK_MONOTONIC times, on the clock the parent took the start time from:
``imported``, when ``import parkhopf`` finished, and ``finished``, when the
workload's output was flushed; and ``peak_rss_kb``, its peak resident set.
With TRACE=1 it adds the tracer's report and writes the spans to
``bench/out/spans-WORKLOAD.tsv``.
"""

import json
import os
import sys
import time


def run(workload: str) -> int:
    from workloads import CLI, KERNELS

    if workload in CLI:
        from parkhopf.cli import main
        return main(CLI[workload])
    for module, name, args in KERNELS:
        fn = getattr(sys.modules[f"parkhopf.{module}"], name)
        value = fn(*args)
        print(json.dumps({"call": name, "value": str(value)}), flush=True)
    return 0


def peak_rss_kb() -> int:
    """VmHWM, the peak RSS of this process image.  The ru_maxrss that wait4
    reports would also count the parent's RSS, inherited through fork."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    side_fd, workload, trace, run_id = sys.argv[1:5]
    import parkhopf  # noqa: F401  (the set-up being timed)
    side = {"imported": time.monotonic()}
    tracer = None
    if trace == "1":
        from tracer import Tracer
        tracer = Tracer(run_id).install()
    code = 0 if workload == "setup" else run(workload)
    sys.stdout.flush()
    side["finished"] = time.monotonic()
    if tracer is not None:
        side["trace"] = tracer.report()
        tracer.write_spans(f"spans-{workload}.tsv")
    side["peak_rss_kb"] = peak_rss_kb()
    with os.fdopen(int(side_fd), "w") as out:
        json.dump(side, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
