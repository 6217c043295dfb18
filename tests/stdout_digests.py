"""Digests of the CLI's stdout, for comparing two checkouts byte for byte.

Prints one line ``md5 exit-code command`` for every `enumerate` family at
every n from 0 up to the first n over the family's budget (which exits 2),
in each of the formats lines, json and csv, and one line for each
``verify --suite all --max-n N``, N = 1..8.  The wall time of each command
goes to stderr.  Two checkouts agree when their stdout is identical:

    python tests/stdout_digests.py --root OLD > old.txt
    python tests/stdout_digests.py --root NEW > new.txt
    diff old.txt new.txt

The name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path


def _commands(src: Path):
    sys.path.insert(0, str(src))
    from parkhopf import cli

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


def _digest(src: Path, argv) -> tuple[str, int]:
    """The md5 of the command's stdout, read through a pipe, and its exit
    code."""
    env = dict(os.environ, PYTHONPATH=str(src))
    md5 = hashlib.md5()
    with subprocess.Popen([sys.executable, "-m", "parkhopf.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          env=env) as proc:
        while chunk := proc.stdout.read(1 << 16):
            md5.update(chunk)
    return md5.hexdigest(), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="the checkout whose src/ is run "
                             "(default: this one)")
    args = parser.parse_args(argv)
    src = (args.root / "src").resolve()
    for command in _commands(src):
        start = time.perf_counter()
        md5, code = _digest(src, command)
        print(md5, code, " ".join(command), flush=True)
        print(f"{time.perf_counter() - start:.2f} s  {' '.join(command)}",
              file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
