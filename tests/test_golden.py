"""Golden stdout gate: the stdout and exit code of a fixed set of CLI commands,
compared byte for byte with the files under ``tests/golden/``.

The files pin the output of the library as it was before the algebra layer
was refactored.  Rewrite them only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from parkhopf.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")
EXIT_CODES = GOLDEN / "exit_codes.json"

COMMANDS = {
    "verify-all-6": ["verify", "--suite", "all", "--max-n", "6"],
    **{f"series-{w}-6": ["series", "--which", w, "--degree", "6"]
       for w in ("g", "f", "G", "X")},
    **{f"poly-{w}-5": ["poly", "--which", w, "--n", "5"]
       for w in ("super-narayana", "pn-t", "narayana", "pn-alpha", "qn")},
    **{f"table-{w}-6": ["table", "--which", w, "--n-max", "6"]
       for w in ("qn-triangle", "a060693", "bar-distribution")},
    **{f"enumerate-{w}-4": ["enumerate", "--family", w, "--n", "4",
                            "--format", "json"]
       for w in ("pf", "ndpf", "qribbon", "packed", "perm", "signed-pf",
                 "dyck", "schroder", "tree")},
    "bijection-tree-to-ndpf": ["bijection", "--direction", "tree-to-ndpf",
                               "--input", "((.,(.,.)),((.,.),(.,(.,.))))"],
    "bijection-ndpf-to-tree": ["bijection", "--direction", "ndpf-to-tree",
                               "--input", "1133444"],
    "bijection-dyck-encode": ["bijection", "--direction", "dyck-encode",
                              "--input", "uuududdudd"],
    "bijection-schroder-encode": ["bijection", "--direction",
                                  "schroder-encode", "--input", "uuhuddhd"],
}


def _run(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_stdout(name):
    code, out = _run(COMMANDS[name])
    assert out == (GOLDEN / f"{name}.stdout").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[name]


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(COMMANDS.items()):
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.stdout").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
