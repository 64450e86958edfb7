"""List the flexicolor functions that a benchmark pool never runs.

    python3 tools/unreached.py --workload NAME [--workload NAME ...] --seed N [--root CHECKOUT]

Runs `answers_digest.digests` (solve, verify and oracle through
flexicolor.cli.main on every document of each named workload's pool) and
then `generate` of every fixture and family, all under `sys.setprofile`.
It prints every function of src/flexicolor whose code never started, one
per line as `file:line qualname lines`, then a total.  Comprehensions,
generator expressions and lambdas are not listed, and a function that
runs only while the package is imported counts as never run.  --root
names the source checkout to import and scan (by default the one holding
this script).
"""
from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import types

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _functions(package: str) -> dict:
    """(file, first line, qualname) -> line count of every named function
    in the package's modules; the first line is that of the first
    decorator, as in the function's code object."""
    out = {}
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        spans = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                spans[first] = node.end_lineno - first + 1
        codes = [compile(source, path, "exec")]
        for code in codes:
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # class bodies and comprehensions are code objects too
            if code.co_name.startswith("<") or code.co_firstlineno not in spans:
                continue
            key = (path, code.co_firstlineno, code.co_qualname)
            out[key] = spans[code.co_firstlineno]
    return out


def reached(workloads: list, seed: int, scratch: str) -> set:
    """(file, first line, qualname) of every function that started."""
    import answers_digest
    from flexicolor import cli
    from flexicolor.instances import FAMILIES, FIXTURES

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    out = os.path.join(scratch, "generated.txt")
    sys.setprofile(profile)
    try:
        for workload in workloads:
            for _ in answers_digest.digests(workload, seed, scratch):
                pass
        for name in sorted(FIXTURES) + sorted(FAMILIES):
            cli.main(["generate", name, "--seed", str(seed), "--out", out])
    finally:
        sys.setprofile(None)
    return {
        (os.path.abspath(c.co_filename), c.co_firstlineno, c.co_qualname)
        for c in seen
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", default=HERE, help="source checkout to run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    package = os.path.join(root, "src", "flexicolor")
    sys.path[:0] = [
        os.path.join(root, "src"),
        os.path.join(root, "perfbench"),
        os.path.join(root, "tools"),
    ]
    with tempfile.TemporaryDirectory() as scratch:
        ran = reached(args.workload, args.seed, scratch)
    functions = _functions(package)
    unreached = sorted(key for key in functions if key not in ran)
    for path, line, qualname in unreached:
        rel = os.path.relpath(path, root)
        print(f"{rel}:{line} {qualname} {functions[path, line, qualname]}")
    total = sum(functions[key] for key in unreached)
    print(f"{len(unreached)} of {len(functions)} functions never ran, {total} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
