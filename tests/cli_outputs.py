"""Digests of every CLI output on the 27 grid tuples, for byte-identity checks.

Runs ``python -m growthlab.cli`` as a fresh process, in a fresh temporary
directory, for each of the 7 subcommands on each of the 27 ``sharp_grid()``
tuples, in 4 variants: the human default, ``--format json``, ``--format
csv`` (verify, rate and inequalities only) and ``--output report.json``.
sharp runs with ``--rate``; liouville classifies ``--growth 2*C0`` in the
json variant and ``0.5*C0`` in the others.  That is 648 runs.  Each record
is [subcommand, tuple index, variant, exit code, stdout, stderr, the written
file or null], and the script prints the sha256 of the sorted JSON of the
records for each subcommand and over all of them.

    python tests/cli_outputs.py [TREE]
    python tests/cli_outputs.py PARENT CHANGE

TREE is the root of a checkout (default: the one holding this script); its
``src`` is what runs.  Given two trees, the script runs both and prints, for
each subcommand and over all, ``same`` with the digest or ``differs`` with
both.  On a difference it prints, for each subcommand that differs, how many
of its records differ, whether any exit code, stderr, ``passed`` or
``classification`` differs, and the largest distance in ulps of each
numeric field of the JSON and CSV outputs (``lhs``, ``tolerance``,
``quad_error``, ...); then it names the first differing record (subcommand,
tuple index, variant, and which of its parts differ) and exits 1.  The
tuples are those of the first tree.  Each tree takes a few minutes on 2
cores.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SUBCOMMANDS = ("constants", "sharp", "verify", "rate", "inequalities", "l1",
               "liouville")
CSV_CAPABLE = ("verify", "rate", "inequalities")
VARIANTS = ("human", "json", "csv", "output")
JOBS = 2


def grid_cases(src: Path) -> list[tuple[float, float, float, float, float]]:
    """(p, q, mu, lam, C0) of each sharp_grid() example, from the tree's
    own package in a child process, so this one imports none of it."""
    code = ("import json; from growthlab import sharp_grid, compute_C0; "
            "print(json.dumps([[ex.p, ex.q, ex.mu, ex.lam, "
            "compute_C0(ex.p, ex.q, ex.lam)] for ex in sharp_grid()]))")
    out = subprocess.run([sys.executable, "-c", code], env=_env(src),
                         capture_output=True, text=True, check=True).stdout
    return [tuple(case) for case in json.loads(out)]


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("GROWTHLAB_TOL", None)
    env["PYTHONPATH"] = str(src)
    return env


def argv_of(sub: str, case: tuple, variant: str) -> list[str]:
    p, q, mu, lam, c0 = case
    pq = ["--p", repr(p), "--q", repr(q)]
    if sub == "constants":
        argv = [*pq, "--mu", repr(mu), "--lambda", repr(lam)]
    elif sub == "sharp":
        argv = [*pq, "--mu", repr(mu), "--rate"]
    elif sub == "liouville":
        factor = 2.0 if variant == "json" else 0.5
        argv = [*pq, "--lambda", repr(lam), "--growth", repr(factor * c0)]
    else:
        argv = [*pq, "--mu", repr(mu)]
    tail = {"human": [], "json": ["--format", "json"],
            "csv": ["--format", "csv"], "output": ["--output", "report.json"]}
    return [sub, *argv, *tail[variant]]


def run_one(src: Path, sub: str, index: int, case: tuple, variant: str) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "growthlab.cli", *argv_of(sub, case, variant)],
            env=_env(src), cwd=tmp, capture_output=True, text=True)
        written = Path(tmp, "report.json")
        text = written.read_text(encoding="utf-8") if written.exists() else None
    return [sub, index, variant, proc.returncode, proc.stdout, proc.stderr, text]


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(sorted(records)).encode()).hexdigest()


def run_tree(tree: Path, cases: list) -> list:
    """The records of every job run on the checkout at tree, in job order."""
    jobs = [(sub, i, case, variant) for sub in SUBCOMMANDS
            for i, case in enumerate(cases) for variant in VARIANTS
            if variant != "csv" or sub in CSV_CAPABLE]
    src = tree.resolve() / "src"
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        records = list(pool.map(lambda job: run_one(src, *job), jobs))
    codes = Counter(record[3] for record in records)
    print(f"{tree}: runs {len(records)}  exit codes "
          + " ".join(f"{code}:{n}" for code, n in sorted(codes.items())))
    return records


def first_difference(parent: list, change: list) -> str | None:
    """The first record, in job order, that differs between the runs."""
    parts = ("exit code", "stdout", "stderr", "written file")
    for a, b in zip(parent, change):
        if a != b:
            differing = [name for name, x, y in zip(parts, a[3:], b[3:])
                         if x != y]
            return (f"{a[0]} tuple {a[1]} variant {a[2]}: "
                    + ", ".join(differing))
    return None


def fields(record: list) -> list[tuple[str, object]]:
    """(name, value) of each leaf of a record's JSON output (--format json
    or the written file), named by its nearest key, or of each cell of its
    CSV rows, named by its column, in order; none for human text or for
    output that does not parse."""
    _, _, variant, _, stdout, _, written = record
    if variant == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return [(name, _cell(cell)) for row in rows[1:]
                for name, cell in zip(rows[0], row)]
    if variant in ("json", "output"):
        text = written if variant == "output" else stdout
        try:
            return list(_leaves(json.loads(text), ""))
        except (TypeError, ValueError):
            return []
    return []


def _leaves(doc, name: str):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, key)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, name)
    else:
        yield name, doc


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return {"true": True, "false": False}.get(text, text)


def ulps(x: float, y: float) -> int:
    """How many doubles lie from x to y (0 for two nans)."""
    if x != x or y != y:
        return 0 if x != x and y != y else sys.maxsize

    def ordinal(v: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordinal(x) - ordinal(y))


def summary(parent: list, change: list) -> list[str]:
    """For each subcommand whose records differ: how many differ, which
    verdict parts differ, and the largest ulps distance of each numeric
    field of its JSON and CSV outputs."""
    lines = []
    for sub in SUBCOMMANDS:
        pairs = [(a, b) for a, b in zip(parent, change) if a[0] == sub]
        differing = [(a, b) for a, b in pairs if a != b]
        if not differing:
            continue
        changed, worst = set(), {}
        for a, b in differing:
            if a[3] != b[3]:
                changed.add("exit code")
            if a[5] != b[5]:
                changed.add("stderr")
            fa, fb = fields(a), fields(b)
            if [n for n, _ in fa] != [n for n, _ in fb]:
                changed.add("layout")
            for (name, x), (_, y) in zip(fa, fb):
                if name in ("passed", "classification") and x != y:
                    changed.add(name)
                elif all(type(v) in (int, float) for v in (x, y)):
                    worst[name] = max(worst.get(name, 0),
                                      ulps(float(x), float(y)))
        verdicts = [f"{part} {'differs' if part in changed else 'same'}"
                    for part in ("exit code", "stderr", "passed",
                                 "classification")]
        if "layout" in changed:
            verdicts.append("field layout differs")
        lines.append(f"{sub}: {len(differing)} of {len(pairs)} records "
                     "differ; " + ", ".join(verdicts))
        moved = sorted((name, n) for name, n in worst.items() if n)
        lines.append("  largest ulps: " + ", ".join(
            [f"{name} {n}" for name, n in moved]
            + [f"0 in the other {len(worst) - len(moved)} numeric fields"]))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path,
                        help="root of the checkout to run, or the parent and "
                             "the change to compare")
    args = parser.parse_args(argv)
    trees = args.trees or [Path(__file__).resolve().parents[1]]
    if len(trees) > 2:
        parser.error("give at most two trees")
    cases = grid_cases(trees[0].resolve() / "src")
    runs = [run_tree(tree, cases) for tree in trees]
    for name in (*SUBCOMMANDS, "all"):
        digests = [digest([r for r in records if name in ("all", r[0])])
                   for records in runs]
        if len(runs) == 1:
            print(f"{name:<13} {digests[0]}")
        elif digests[0] == digests[1]:
            print(f"{name:<13} same     {digests[0]}")
        else:
            print(f"{name:<13} differs  {digests[0]} {digests[1]}")
    if len(runs) == 2:
        difference = first_difference(*runs)
        if difference is not None:
            print("\n".join(summary(*runs)))
            print(f"first difference: {difference}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
