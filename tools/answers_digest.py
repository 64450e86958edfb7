"""Digest the answers flexicolor gives on one benchmark pool.

    python3 tools/answers_digest.py --workload NAME --seed N [--root CHECKOUT]

Builds the pool of a perfbench workload for a seed with
perfbench/workloads.py, runs solve, verify and oracle on every document
through flexicolor.cli.main, and prints one line per document: its
number, a sha256 over the result document, the verify output, the
oracle document, the stderr of each of the three commands and their
exit statuses, a second sha256 over the same with the `color` lines of
the result and oracle documents left out, and its label.  A change that
only recolors, in solve or in oracle, shows in the first hash alone; one
that changes a verdict, an amount or a count shows in both.  The oracle
runs on every document; on a large one it stops at its budget with exit
status 3.  --root names the source checkout to import flexicolor and
perfbench from (by default the one holding this script), so running it
on two checkouts and diffing the outputs shows whether a change gives
byte-identical answers and the same error lines.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _uncolored(doc: bytes) -> bytes:
    return b"".join(
        ln for ln in doc.splitlines(keepends=True) if not ln.startswith(b"color ")
    )


def digests(workload: str, seed: int, scratch: str):
    """(label, sha256 hex, sha256 hex without color lines) of every
    document of the pool, in pool order."""
    import workloads
    from flexicolor import cli

    jobs = workloads.build(workload, seed, os.path.join(scratch, "pool"))
    result = os.path.join(scratch, "result.txt")
    oracle = os.path.join(scratch, "oracle.txt")
    for job in jobs:
        for path in (result, oracle):
            if os.path.exists(path):
                os.remove(path)
        out, errs, codes = io.StringIO(), [], []
        for argv in (
            ["solve", job.doc, *job.solve_args, "--out", result],
            ["verify", job.doc, result],
            ["oracle", job.doc, "--out", oracle],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(argv))
            errs.append(err.getvalue().encode())
        doc, orc = _read(result), _read(oracle)
        out, rest = out.getvalue().encode(), [*errs, repr(tuple(codes)).encode()]
        yield (
            job.label,
            _sha256([doc, out, orc, *rest]),
            _sha256([_uncolored(doc), out, _uncolored(orc), *rest]),
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", default=HERE, help="source checkout to run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    with tempfile.TemporaryDirectory() as scratch:
        for i, (label, full, uncolored) in enumerate(
            digests(args.workload, args.seed, scratch)
        ):
            print(f"{i:05d} {full} {uncolored} {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
