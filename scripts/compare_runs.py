#!/usr/bin/env python3
"""Byte-compare two run directories.

    python scripts/compare_runs.py RUN_A RUN_B

Hashes every file under both directories (recursively, by relative path)
and prints each file that differs or exists on one side only. Exits 0 when
the two trees hold the same files with the same bytes, 1 otherwise.
"""

import argparse
import hashlib
import sys
from pathlib import Path


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def compare(a: Path, b: Path) -> tuple[list[str], int]:
    """(one line per difference between the trees under ``a`` and ``b``,
    the number of files compared)."""
    da, db = tree_digests(a), tree_digests(b)
    lines = []
    for rel in sorted(da.keys() | db.keys()):
        if rel not in db:
            lines.append(f"only in {a}: {rel}")
        elif rel not in da:
            lines.append(f"only in {b}: {rel}")
        elif da[rel] != db[rel]:
            lines.append(f"differs: {rel}")
    return lines, len(da.keys() | db.keys())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    lines, n_files = compare(args.a, args.b)
    for line in lines:
        print(line)
    print(f"{len(lines)} difference(s) in {n_files} file(s)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
