"""Digests of the CLI's output, for comparing two checkouts byte for byte.

Prints one line ``stdout-md5 stderr-md5 exit-code command`` for:

- every `enumerate` family at every n from 0 up to the first n over the
  family's budget (which exits 2), in each of the formats lines, json and
  csv;
- ``verify --suite all --max-n N``, N = 1..8;
- `poly` for each --which at n = 0 up to one past the top of the
  ``combinat.LIMITS`` row of its function;
- `table` for each --which at --n-max 0 up to one past the top of its row;
- `series` for each --which at --degree 0..9, one past the solvers' top;
- `bijection` for each --direction on one valid and one malformed input.

The wall time of each command goes to stderr.  Two checkouts agree when
their stdout is identical:

    python tests/stdout_digests.py --root OLD > old.txt
    python tests/stdout_digests.py --root NEW > new.txt
    diff old.txt new.txt

``--only PREFIX`` runs only the commands whose text starts with PREFIX,
for example ``--only enumerate`` or ``--only "verify --suite all"``.

The name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# poly --which: the LIMITS row of the function it prints
_POLY_ROWS = {"super-narayana": "super_narayana_sym",
              "pn-t": "schroder_polynomials", "narayana": "lassalle_narayana",
              "pn-alpha": "pn_alpha", "qn": "qn_polynomial"}

# bijection --direction: a valid input and a malformed one
_BIJECTION_INPUTS = {"tree-to-ndpf": ("((.,.),(.,.))", "((.,.)"),
                     "ndpf-to-tree": ("1124", "21"),
                     "dyck-encode": ("uuddud", "uddu"),
                     "schroder-encode": ("uhdh", "uu")}


def _top(row) -> int:
    """The top of a LIMITS row: a (low, top) pair, or a bare top as rows
    were written before they held both ends."""
    return row[1] if isinstance(row, tuple) else row


def _commands(src: Path):
    sys.path.insert(0, str(src))
    from parkhopf import cli, combinat

    for family, (_, count_of) in cli._ENUM_FAMILIES.items():
        n = 0
        while True:
            for fmt in ("lines", "json", "csv"):
                yield ["enumerate", "--family", family, "--n", str(n),
                       "--format", fmt]
            if count_of(n) > cli._ENUM_BUDGET:
                break
            n += 1
    for n in range(1, 9):
        yield ["verify", "--suite", "all", "--max-n", str(n)]
    for which in cli._POLY:
        for n in range(_top(combinat.LIMITS[_POLY_ROWS[which]]) + 2):
            yield ["poly", "--which", which, "--n", str(n)]
    for which, (_, row) in cli._TABLES.items():
        for n in range(_top(combinat.LIMITS[row]) + 2):
            yield ["table", "--which", which, "--n-max", str(n)]
    for which in cli._SERIES:
        for n in range(10):
            yield ["series", "--which", which, "--degree", str(n)]
    for direction in cli._BIJECTIONS:
        for text in _BIJECTION_INPUTS[direction]:
            yield ["bijection", "--direction", direction, "--input", text]


def _digest(src: Path, argv) -> tuple[str, str, int]:
    """The md5 of the command's stdout, read through a pipe, the md5 of its
    stderr, and its exit code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    md5 = hashlib.md5()
    with tempfile.TemporaryFile() as err:
        with subprocess.Popen([sys.executable, "-m", "parkhopf.cli", *argv],
                              stdout=subprocess.PIPE, stderr=err,
                              env=env) as proc:
            while chunk := proc.stdout.read(1 << 16):
                md5.update(chunk)
        err.seek(0)
        err_md5 = hashlib.md5(err.read()).hexdigest()
    return md5.hexdigest(), err_md5, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose src/ is run "
                             "(default: this one)")
    parser.add_argument("--only", default="", metavar="PREFIX",
                        help="run only the commands that start with PREFIX "
                             "(default: all of them)")
    args = parser.parse_args(argv)
    src = (args.root / "src").resolve()
    for command in _commands(src):
        if not " ".join(command).startswith(args.only):
            continue
        start = time.perf_counter()
        md5, err_md5, code = _digest(src, command)
        print(md5, err_md5, code, " ".join(command), flush=True)
        print(f"{time.perf_counter() - start:.2f} s  {' '.join(command)}",
              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
