"""The benchmark's workloads and the gates that check their output.

Each workload is one user-visible job, run in a fresh interpreter:

* ``verify``: ``parkhopf verify --suite all --max-n 7``.  The command that
  checks the paper's identities; it touches every module, spends most of its
  time in algebra products and `LinComb` accumulation, and re-reads the
  cached small enumerations many times.
* ``enumerate``: ``parkhopf enumerate --family pf --n 7 --format lines``.  One
  large cold enumeration and 262,144 printed lines: only `combinat` and `cli`
  work, and it is the one workload whose first output comes well before exit.
* ``kernels``: five library calls in one process, the heavy exact-kernel
  paths (dense `Fraction` elimination, gcd-normalized `RatFun` sums) and the
  only real `operad` rewriting load.

The gates recompute what they check from first principles where they can
(the parking condition, Catalan and little Schroeder numbers) and never call
the package under test.
"""

from __future__ import annotations

import json

CLI = {
    "verify": ["verify", "--suite", "all", "--max-n", "7"],
    "enumerate": ["enumerate", "--family", "pf", "--n", "7", "--format",
                  "lines"],
}
# (module, function, arguments); the child prints one JSON line per call.
KERNELS = (
    ("hopf", "primitive_dimension", (7,)),
    ("operad", "tridendriform_span_dimension", (5,)),
    ("operad", "count_normal_forms", ("tri", 8)),
    ("chars", "super_narayana_count", (5,)),
    ("chars", "super_narayana_sym", (5,)),
)
WORKLOADS = ("verify", "enumerate", "kernels")

VERIFY_CHECKS = 36
ENUMERATE_N = 7


def _catalan(n: int) -> int:
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def _little_schroeder(n: int) -> int:
    """Little Schroeder numbers, OEIS A001003: s(0) = s(1) = 1 and
    (m+1) s(m) = 3(2m-1) s(m-1) - (m-2) s(m-2)."""
    s = [1, 1]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[n]


def gate_verify(out: str) -> list[str]:
    try:
        report = json.loads(out)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    errors = []
    if report.get("ok") is not True:
        errors.append('"ok" is not true')
    results = report.get("results")
    if not isinstance(results, list) or len(results) != VERIFY_CHECKS:
        n = len(results) if isinstance(results, list) else None
        errors.append(f"expected {VERIFY_CHECKS} checks, got {n}")
    else:
        bad = [r.get("check") for r in results if r.get("ok") is not True]
        if bad:
            errors.append(f"checks not true: {bad}")
    return errors


def gate_enumerate(out: str) -> list[str]:
    n = ENUMERATE_N
    if not out.endswith("\n"):
        return ["output does not end with a newline"]
    lines = out[:-1].split("\n")
    expected = (n + 1) ** (n - 1)
    if len(lines) != expected:
        return [f"expected {expected} lines, got {len(lines)}"]
    # equal-length digit strings order as their letter tuples do
    if lines != sorted(set(lines)):
        return ["lines are not strictly increasing"]
    letters = "123456789"[:n]
    for shape in {"".join(sorted(line)) for line in lines}:
        if len(shape) != n or not all("1" <= v <= i
                                      for v, i in zip(shape, letters)):
            return [f"not a parking function: a line sorts to {shape!r}"]
    return []


def gate_kernels(out: str) -> list[str]:
    try:
        rows = [json.loads(line) for line in out.splitlines()]
    except ValueError as exc:
        return [f"stdout is not JSON lines: {exc}"]
    values = {row.get("call"): row.get("value") for row in rows}
    expected = {
        "primitive_dimension": str(_catalan(6)),
        "tridendriform_span_dimension": str(_little_schroeder(5)),
        "count_normal_forms": str(_little_schroeder(8)),
    }
    names = [name for _, name, _ in KERNELS]
    if [row.get("call") for row in rows] != names:
        return [f"expected calls {names}, got {list(values)}"]
    errors = [f"{name} = {values[name]}, expected {want}"
              for name, want in expected.items() if values[name] != want]
    count, sym = values["super_narayana_count"], values["super_narayana_sym"]
    if not count or count == "0" or count != sym:
        errors.append(f"super-Narayana routes differ: {count!r} != {sym!r}")
    return errors


def gate_setup(out: str) -> list[str]:
    """A set-up probe only imports the package."""
    return ["stdout is not empty"] if out else []


GATES = {"verify": gate_verify, "enumerate": gate_enumerate,
         "kernels": gate_kernels, "setup": gate_setup}


def check(workload: str, returncode: int, out: bytes, err: bytes) -> list[str]:
    """Reasons the run failed; an empty list means it passed."""
    errors = []
    if returncode != 0:
        errors.append(f"exit code {returncode}")
    if err:
        errors.append(f"stderr: {err[:200].decode(errors='replace')!r}")
    try:
        text = out.decode("utf-8")
    except UnicodeDecodeError as exc:
        return errors + [f"stdout is not UTF-8: {exc}"]
    return errors + GATES[workload](text)
