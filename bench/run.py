"""The parkhopf benchmark.

    python3 bench/run.py --workload {verify,enumerate,kernels,all}
                         --seed N --seconds S --trace {0,1}

Every run of a workload is a fresh interpreter (`child.py`), so the package's
caches start cold as they do for a user.  Rounds repeat for S seconds; each
round runs the workload once and some set-up probes (interpreters that only
import the package), in an order drawn from the seed.  More probes follow the
last round until the run has `MIN_SETUP_SAMPLES` set-up times.  Every output
is checked by `workloads.check`.

The machine this was written on is a shared VM whose speed drifts by up to
two times over minutes, so raw times of the same code spread too far between
runs.  The parent and its children share one CPU, and while a child runs the
parent times a short fixed speed burst every `BURST_PERIOD_S`.  Each time is
scaled to the reference speed, at which the burst takes `REFERENCE_BURST_S`,
by the child's median burst time (see `SPEED_EXPONENT`).  The raw times are
in the details line.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are
the end-to-end metrics, medians over the run (`E2E`).  With ``--trace 1`` each
round also runs the workload once under the tracer, and the metrics are the
per-layer ones (`LAYER`), with the tracing overhead.  ``--workload all`` runs
the three workloads in alternating order and, with ``--trace 1``, prints every
metric of every workload.  The lines before the last give a table and the run's
details: git sha, Python version, nproc, PYTHONHASHSEED, sample counts, raw
times, burst times and any failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, check

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
PROBES_PER_ROUND = 2
MIN_SETUP_SAMPLES = 20
BURST_LOOPS = 6_000
BURST_PERIOD_S = 0.25
# A time t measured while the burst took b seconds is reported as
# t * (REFERENCE_BURST_S / b) ** SPEED_EXPONENT.  The exponent is below 1
# because the workloads slow less than the burst when the machine slows: 0.7
# gave the least spread of the samples of 24 forty-second runs of the three
# workloads, in fast and slow spells of the machine the benchmark was written
# on (README, "End-to-end metrics").
REFERENCE_BURST_S = 0.005
SPEED_EXPONENT = 0.7
CHILD_TIMEOUT_S = 150.0

# name -> unit; ok_ratio is passed runs over attempted runs (1 - fail ratio).
E2E = {"wall_s": "s", "cpu_s": "s", "first_output_s": "s",
       "peak_rss_mb": "MB", "setup_s": "s", "ok_ratio": "ratio"}
_LAYER_TIMES = {f"{layer}.self_s": "s" for layer in
                ("exact", "hopf", "combinat", "operad", "lagrange", "symfun",
                 "chars", "cli")}
LAYER = {
    **_LAYER_TIMES,
    "exact.poly_mul.calls": "count",
    "exact.ratfun_new.calls": "count",
    "exact.poly_gcd.calls": "count",
    "exact.poly_gcd.s": "s",
    "exact.poly_gcd.trivial_ratio": "ratio",
    "exact.lincomb_add.calls": "count",
    "exact.lincomb_add.copied_terms": "count",
    "exact.span_dimension.s": "s",
    "exact.span_dimension.rows": "count",
    "exact.span_dimension.cols": "count",
    "exact.span_dimension.nnz": "count",
    "hopf.product.calls": "count",
    "hopf.product.terms_out": "count",
    "hopf.wqsym_thirds.used_ratio": "ratio",
    "combinat.items": "count",
    "combinat.cache_hit_ratio": "ratio",
    "operad.eval_trees.items": "count",
    "symfun.evaluate.calls": "count",
    "chars.signed_stats.calls": "count",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


# -- one child ----------------------------------------------------------------


def child_env(hash_seed: int) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "PARKHOPF_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def spawn(workload: str, traced: bool, run_id: str, env: dict) -> dict:
    """Run one child to its end and return its measurements and errors.

    While the child runs, the parent times a speed burst every
    `BURST_PERIOD_S`, and once before and once after the child; `burst_s` is
    their median, and `first_output_burst_s` the median of those timed before
    the first output."""
    bursts = [speed_burst()]
    side_r, side_w = os.pipe()
    start = time.monotonic()
    next_burst = start + BURST_PERIOD_S
    try:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(side_w), workload,
             "1" if traced else "0", run_id],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(side_w,), env=env, cwd=ROOT)
    except BaseException:
        os.close(side_r)
        raise
    finally:
        os.close(side_w)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    data = {out_fd: bytearray(), err_fd: bytearray(), side_r: bytearray()}
    first_output = None
    bursts_before_output = None
    errors = []
    drained = False
    try:
        with selectors.DefaultSelector() as sel:
            for fd in data:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                left = start + CHILD_TIMEOUT_S - time.monotonic()
                if left <= 0:
                    errors.append(f"no exit within {CHILD_TIMEOUT_S} s")
                    proc.kill()
                    break
                now = time.monotonic()
                if now >= next_burst:
                    bursts.append(speed_burst())
                    next_burst = now + BURST_PERIOD_S
                for key, _ in sel.select(min(left, next_burst - now)):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fd)
                        continue
                    if first_output is None and key.fd == out_fd:
                        first_output = time.monotonic()
                        bursts_before_output = len(bursts)
                    data[key.fd] += chunk
        drained = True
    finally:
        if proc.returncode is None:
            if errors or not drained:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        end = time.monotonic()
        proc.stdout.close()
        proc.stderr.close()
        os.close(side_r)
    bursts.append(speed_burst())
    out, err = bytes(data[out_fd]), bytes(data[err_fd])
    try:
        side = json.loads(data[side_r])
    except ValueError:
        side = {}
        errors.append("no report on the side channel")
    errors += check(workload, proc.returncode, out, err)
    return {
        "workload": workload, "traced": traced, "errors": errors,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "first_output_s": (first_output or end) - start,
        "peak_rss_mb": side.get("peak_rss_kb", 0) / 1024,
        "setup_s": side.get("imported", end) - start,
        "finished_s": side.get("finished", end) - start,
        "stdout_bytes": len(out),
        "trace": side.get("trace"),
        "burst_s": statistics.median(bursts),
        "first_output_burst_s": statistics.median(
            bursts[:bursts_before_output]),
        "bursts": len(bursts),
    }


def speed_burst() -> float:
    """CPU seconds of a fixed slice of pure-Python work that does not use the
    package: integer arithmetic, a dict with tuple keys and `Fraction` sums,
    the kinds of work the package does.  It tells the machine's speed at the
    moment apart from the program's."""
    t0 = time.process_time()
    acc, table, total = 0, {}, Fraction(0)
    for i in range(BURST_LOOPS):
        acc += i & 7
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + acc
        if not i % 8:
            total += Fraction(i % 5 + 1, i % 7 + 1)
    return time.process_time() - t0


# -- a run --------------------------------------------------------------------


def measure(workloads, seed: int, seconds: float, traced: bool) -> dict:
    """Rounds of fresh children for `seconds` seconds.

    A child is started only if it is expected to end before the deadline, so
    a run lasts `seconds` and not up to one round more; the first round runs
    whole, so every workload has at least one sample.  The set-up probes are
    spread over the rounds."""
    rng = random.Random(seed)
    hash_seed = seed % 2**32
    env = child_env(hash_seed)
    # The children inherit the affinity: each speed burst then runs on the
    # CPU the child runs on, and measures the speed the child gets.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        return _rounds(workloads, rng, env, seconds, traced) | {
            "hash_seed": hash_seed}
    finally:
        os.sched_setaffinity(0, cpus)


def _rounds(workloads, rng, env, seconds, traced) -> dict:
    # compiles the bytecode caches, so no measured child pays for it
    warm = spawn("setup", False, "warmup", env)
    runs, probes = [], [warm] if warm["errors"] else []
    start = time.monotonic()
    deadline = start + seconds
    last = {}  # (workload, traced) -> wall time of its latest child
    probes_per_round = PROBES_PER_ROUND
    rounds = 0
    while True:
        jobs = [(w, False) for w in workloads]
        jobs += [(w, True) for w in workloads] if traced else []
        jobs += [("setup", False)] * probes_per_round
        rng.shuffle(jobs)
        ran = False
        for workload, job_traced in jobs:
            expected = last.get((workload, job_traced), 0.0)
            if rounds and time.monotonic() + expected > deadline:
                continue
            sample = spawn(workload, job_traced, f"{workload}-{rounds}", env)
            last[workload, job_traced] = sample["wall_s"]
            failed = f" FAILED {sample['errors']}" * bool(sample["errors"])
            print(f"{workload}{' traced' * job_traced}: "
                  f"{sample['wall_s']:.3f} s{failed}", file=sys.stderr)
            if workload == "setup":
                probes.append(sample)
            else:
                runs.append(sample)
                ran = True
        if not ran:
            break
        rounds += 1
        if rounds == 1:
            expected_rounds = seconds / max(time.monotonic() - start, 1e-3)
            probes_per_round = max(PROBES_PER_ROUND, math.ceil(
                MIN_SETUP_SAMPLES / max(expected_rounds, 1.0)))
    while len(runs) + len(probes) < MIN_SETUP_SAMPLES:
        probes.append(spawn("setup", False, "setup", env))
    return {"runs": runs, "probes": probes, "rounds": rounds}


def _median(samples, key):
    return statistics.median(s[key] for s in samples) if samples else 0.0


def _scaled(samples, key, burst="burst_s"):
    """Median of `key` over the samples, each scaled to the reference speed
    by the median speed burst of its child (`burst`)."""
    return statistics.median(
        s[key] * (REFERENCE_BURST_S / s[burst]) ** SPEED_EXPONENT
        for s in samples) if samples else 0.0


def e2e_metrics(runs, probes) -> dict:
    """End-to-end medians from the untraced runs of one workload."""
    passed = [s for s in runs if not s["errors"]] or runs
    setups = [s for s in runs + probes if not s["errors"]] or runs + probes
    values = {key: _scaled(passed, key) for key in ("wall_s", "cpu_s")}
    values["first_output_s"] = _scaled(passed, "first_output_s",
                                       "first_output_burst_s")
    values["peak_rss_mb"] = _median(passed, "peak_rss_mb")
    values["setup_s"] = _scaled(setups, "setup_s")
    values["ok_ratio"] = sum(not s["errors"] for s in runs) / len(runs)
    return values


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced runs of one workload, and any
    counters that differ between two traced runs."""
    reports = [s["trace"] for s in traced if s["trace"]]
    if not reports:
        return dict.fromkeys(LAYER, 0.0), ["no trace report"]
    first = reports[0]
    errors = [f"traced runs disagree on {key}"
              for r in reports[1:] for key in ("counters", "calls")
              if r[key] != first[key]]
    calls, counters = first["calls"], first["counters"]
    values = {name: statistics.median(r["self_s"][name.split(".")[0]]
                                      for r in reports)
              for name in _LAYER_TIMES}
    for timer in ("exact.poly_gcd.s", "exact.span_dimension.s"):
        values[timer] = statistics.median(r["timers"].get(timer, 0.0)
                                          for r in reports)
    gcd_calls = calls.get("exact.poly_gcd", 0)
    hits = counters["combinat.cache.hits"]
    values.update({
        "exact.poly_mul.calls": calls.get("exact.Poly.__mul__", 0),
        "exact.ratfun_new.calls": calls.get("exact.RatFun.__init__", 0),
        "exact.poly_gcd.calls": gcd_calls,
        "exact.poly_gcd.trivial_ratio": _ratio(
            counters.get("exact.poly_gcd.trivial", 0), gcd_calls),
        "exact.lincomb_add.calls": calls.get("exact.LinComb.__add__", 0),
        "hopf.wqsym_thirds.used_ratio": _ratio(
            counters.get("hopf.wqsym_thirds.used", 0),
            counters.get("hopf.wqsym_thirds.computed", 0)),
        "combinat.cache_hit_ratio": _ratio(
            hits, hits + counters["combinat.cache.misses"]),
        "symfun.evaluate.calls": calls.get("symfun.evaluate", 0),
        "chars.signed_stats.calls": calls.get("chars.signed_stats", 0),
        "cli.stdout_bytes": traced[0]["stdout_bytes"],
        "trace.overhead_s": _scaled(traced, "finished_s")
        - _scaled(untraced, "finished_s"),
        "trace.spans": first["spans"],
    })
    for name in ("exact.lincomb_add.copied_terms", "exact.span_dimension.rows",
                 "exact.span_dimension.cols", "exact.span_dimension.nnz",
                 "hopf.product.calls", "hopf.product.terms_out",
                 "combinat.items", "operad.eval_trees.items"):
        values[name] = counters.get(name, 0)
    return values, errors


# -- reporting ----------------------------------------------------------------


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def summarize(workloads, seed, seconds, trace) -> tuple[dict, dict]:
    data = measure(workloads, seed, seconds, trace)
    metrics, counts, failures = {}, {}, []
    for workload in workloads:
        mine = [s for s in data["runs"] if s["workload"] == workload]
        untraced = [s for s in mine if not s["traced"]]
        traced_runs = [s for s in mine if s["traced"]]
        failures += [f"{workload}: {e}" for s in mine for e in s["errors"]]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        if not trace or len(workloads) > 1:
            for name, value in e2e_metrics(untraced, data["probes"]).items():
                metrics[prefix + name] = {"value": value, "unit": E2E[name]}
        if trace:
            values, errors = layer_metrics(untraced, traced_runs)
            failures += [f"{workload}: {e}" for e in errors]
            for name, value in values.items():
                metrics[prefix + name] = {"value": value, "unit": LAYER[name]}
        counts[workload] = {
            "runs": len(untraced), "traced": len(traced_runs),
            **{key: [round(s[key], 4) for s in untraced]
               for key in ("wall_s", "cpu_s", "first_output_s", "burst_s",
                           "first_output_burst_s")}}
    failures += [f"setup: {e}" for s in data["probes"] for e in s["errors"]]
    runs = data["runs"]
    failed = sum(bool(s["errors"]) for s in runs)
    details = {
        "workloads": list(workloads), "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_sha": git_sha(),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "pythonhashseed": data["hash_seed"], "rounds": data["rounds"],
        "samples": counts, "setup_probes": len(data["probes"]),
        "setup_s": [round(s["setup_s"], 4) for s in data["probes"]],
        "setup_burst_s": [round(s["burst_s"], 6) for s in data["probes"]],
        "fail_ratio": failed / len(runs),
        "failures": failures[:20],
    }
    result = {"correct": not failures, "attempted": len(runs),
              "failed": failed, "metrics": metrics}
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (see `spawn`)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "parkhopf" / "__init__.py").is_file():
        print(f"error: no parkhopf sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result, details = summarize(workloads, args.seed, args.seconds,
                                bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
