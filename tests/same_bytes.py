"""Compare the CLI's output in this tree with its output at a git revision.

    python3 tests/same_bytes.py [REV]

The script extracts ``git archive REV`` (default ``HEAD``) into a temporary
directory and runs each command of ``COMMANDS`` as ``python3 -m skelsig.cli``
under both source trees: this working tree's ``src`` and the extracted one.  A
command that ends in ``--csv-sidecar`` is given a sidecar path of its own under
each tree.  It compares the standard output and any sidecar (by size and sha256,
streamed to files), the standard error and the exit code of every command,
prints each difference with the first byte offset where the files part, and
exits 1 if there is any, else 0.  Only the standard library is used; pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPORADIC = ["--primes", "3,5,7,11,13,17,19", "--witness-n", "2,3,4,5,6"]
GENVEC = [
    ("quaternion:2", "(2;2)"),
    ("quaternion:3", "(2;3)"),
    ("cyclic:6", "(0;2,3,6)"),
    ("cyclic:6", "(0;6,2,3)"),
    ("cyclic:2", "(0;2,2,2,2,2,2)"),
    ("dihedral:4", "(1;2,2)"),
    ("product:cyclic:2,dihedral:3", "(0;2,2,2,6)"),
    ("product:cyclic:2,quaternion:2", "(1;2,2)"),
    ("cyclic:4", "(1;2)"),
    ("elab:2^2", "(0;2,2)"),
    ("quaternion:2", "(2;2)", "--budget", "3"),
]
COMMANDS = [
    *(["kspace", "--sigma", str(s)] for s in (48, 127, 142, 150, 300, 500, 999)),
    ["kspace", "--sigma", "48", "--max-order", "40"],
    # max-order 15 reaches past 4(sigma - 1) at genus 2..4, and 200 does at genus 48
    *(["kspace", "--sigma", str(s)] for s in (2, 3, 4)),
    ["kspace", "--sigma", "20", "--max-order", "1"],
    ["kspace", "--sigma", "48", "--max-order", "200"],
    # max-order 17 is past 4(sigma - 1) = 16 at genus 5, and 1789 past 12(sigma - 1) at 150
    ["kspace", "--sigma", "5", "--max-order", "17"],
    ["plot", "--sigma", "5", "--max-order", "17", "--csv-sidecar"],
    ["plot", "--sigma", "150", "--max-order", "1789", "--csv-sidecar"],
    # max-order 76 = 4(sigma - 1) at genus 20 sieves to 76, then again from 77 to 228
    ["kspace", "--sigma", "20", "--max-order", "76"],
    ["plot", "--sigma", "20", "--max-order", "76", "--csv-sidecar"],
    *(["sporadic", "--h", str(h), *SPORADIC] for h in (2, 3, 4, 5)),
    ["sporadic", "--h", "2", "--primes", "23,29,31"],
    *(["genvec", "--group", group, "--sig", sig, *extra] for group, sig, *extra in GENVEC),
    ["verify-gap", "--sigma", "48", "--n", "4"],
    *(["verify-gap", "--sigma", "150", "--n", str(n)] for n in (3, 4, 6, 12)),
    ["verify-gap", "--sigma", "1000", "--n", "4"],
    ["gaps", "--sigma", "48", "--n", "3", "4", "5"],
    ["rh", "--order", "8", "--sig", "(0;2,4,8)", "--sigma", "2"],
    ["missing", "--sigma", "48", "--h", "3"],
    ["plot", "--sigma", "48", "--with-realized"],
    *(["plot", "--sigma", str(s)] for s in (3, 100, 500)),
    ["plot", "--sigma", "48", "--with-realized", "--max-order", "1"],
    *(["plot", "--sigma", str(s), "--with-realized", "--csv-sidecar"] for s in (48, 150)),
    ["plot", "--sigma", "2000", "--csv-sidecar"],
    # prime orders cut to their rows' first r: 2..11 at genus 2; 3, 5, 7, 11 and 23 above
    # max-order 2 at genus 11; a prime max-order 5 with 7 and 13 above it at genus 7
    ["plot", "--sigma", "2", "--csv-sidecar"],
    ["kspace", "--sigma", "11", "--max-order", "2"],
    ["plot", "--sigma", "7", "--with-realized", "--max-order", "5", "--csv-sidecar"],
    *(["kspace", "--sigma", str(s), "--format", "csv"] for s in (101, 150)),
]


def start(src: Path, argv: list[str], out: Path) -> subprocess.Popen:
    """``skelsig argv`` run on the package in ``src``, its standard output going to ``out``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    with open(out, "wb") as f:  # the child holds its own copy of the descriptor
        return subprocess.Popen(
            [sys.executable, "-m", "skelsig.cli", *argv],
            stdout=f, stderr=subprocess.PIPE, env=env, cwd=out.parent,
        )


def digest(path: Path) -> tuple[int, str]:
    if not path.exists():
        return -1, "absent"
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    return path.stat().st_size, h.hexdigest()


def first_difference(a: Path, b: Path) -> int:
    """The first byte offset at which files ``a`` and ``b`` differ (one may be a prefix)."""
    offset = 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            ca, cb = fa.read(1 << 20), fb.read(1 << 20)
            if ca != cb:
                return offset + next(
                    (i for i, (x, y) in enumerate(zip(ca, cb)) if x != y), min(len(ca), len(cb))
                )
            if not ca:
                return -1
            offset += len(ca)


def compare(argv: list[str], trees: dict[str, Path], work: Path) -> list[str]:
    """The differences between the runs of ``argv`` under each of the two ``trees``."""
    (a, b), outs, sides = trees, [work / "a.out", work / "b.out"], [work / "a.csv", work / "b.csv"]
    sidecar = argv[-1] == "--csv-sidecar"  # each tree's run then writes its own sidecar
    for path in sides:
        path.unlink(missing_ok=True)
    procs = [
        start(src, argv + [str(side)] * sidecar, out)
        for src, out, side in zip(trees.values(), outs, sides)
    ]
    (_, err_a), (_, err_b) = [proc.communicate() for proc in procs]
    diffs = []
    if procs[0].returncode != procs[1].returncode:
        diffs.append(f"exit code: {a} {procs[0].returncode}, {b} {procs[1].returncode}")
    if err_a != err_b:
        diffs.append(f"stderr: {a} {err_a!r}, {b} {err_b!r}")
    for what, pair in [("stdout", outs), ("sidecar", sides)][: 1 + sidecar]:
        dig_a, dig_b = map(digest, pair)
        if dig_a != dig_b:
            where = f", first difference at byte {first_difference(*pair)}" if all(
                path.exists() for path in pair) else ""
            diffs.append(
                f"{what}: {a} {dig_a[0]} bytes sha256 {dig_a[1][:16]}, {b} {dig_b[0]} bytes "
                f"sha256 {dig_b[1][:16]}{where}"
            )
    return diffs


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE, check=True
        ).stdout
        tree = tmp_path / "tree"
        tree.mkdir()
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        trees = {rev: tree / "src", "this tree": ROOT / "src"}
        failed = 0
        for command in COMMANDS:
            diffs = compare(command, trees, tmp_path)
            status = "DIFFERS" if diffs else "same"
            print(f"{status}: skelsig {' '.join(command)}", flush=True)
            for line in diffs:
                print(f"  {line}", flush=True)
            failed += bool(diffs)
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands the same as at {rev}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
