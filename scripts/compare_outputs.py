#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

Every subcommand (solve, frequency, blowup, symmetrize, verify), or those
that ``--commands`` names, runs on every given config under each tree,
each run in a fresh Python process with that tree first on PYTHONPATH and
its own output directory.  The script names every output file whose bytes
differ, every file and every output directory that only one side left,
and every subcommand whose exit code, standard output or standard error
differs.  For a differing CSV or JSON file it also gives
the largest difference of a number, relative to the largest magnitude in
that number's CSV column or JSON field (list indices ignored), and says
whether everything else in the file (header, layout, keys, text) is
equal.  It exits 0 when nothing differs and 1 otherwise.

Per subcommand it also prints each side's wall time and peak RSS (the
child's max RSS from ``os.wait4``).  They are for information only and
never count as a difference.  Linux counts in a child's peak the RSS of
this process when the child was started, so files are compared in chunks
and only a differing one is read whole (peaks after it may read high).

Example (a second checkout of the parent commit in ../parent):
    python3 scripts/compare_outputs.py --parent ../parent/src --change src \\
        cfg_square.json cfg_disk.json
    python3 scripts/compare_outputs.py --parent ../parent/src --change src \\
        --commands symmetrize,verify cfg_square.json
"""

import argparse
import csv
import filecmp
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import time

COMMANDS = ("solve", "frequency", "blowup", "symmetrize", "verify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=pathlib.Path, required=True,
                   help="directory holding the parent's fracplasma package")
    p.add_argument("--change", type=pathlib.Path, required=True,
                   help="directory holding the changed fracplasma package")
    p.add_argument("--commands", type=_commands, default=COMMANDS,
                   help="comma-separated subcommands to compare (default: all "
                        "five)")
    p.add_argument("configs", nargs="+", type=pathlib.Path,
                   help="JSON experiment configurations")
    return p.parse_args(argv)


def _commands(text: str) -> tuple:
    """The subcommands of a comma-separated list, each one of COMMANDS."""
    names = tuple(text.split(","))
    unknown = [name for name in names if name not in COMMANDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown subcommand {', '.join(map(repr, unknown))} "
            f"(choose from {', '.join(COMMANDS)})")
    return names


def run(src: pathlib.Path, command: str, config: pathlib.Path, out: pathlib.Path):
    """One subcommand in a fresh process: (exit code, stdout, stderr, wall
    time in s, peak RSS in MB).  The time and the peak come from waiting on
    that child alone (``os.wait4``); its output goes to temporary files."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "fracplasma", command,
                                 "--config", str(config.resolve()), "--out", str(out)],
                                env=env, stdout=stdout, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # told the status, the Popen object does not wait for the child again
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        return (proc.returncode, stdout.read(), stderr.read(), wall,
                usage.ru_maxrss / 1024)


def files(root: pathlib.Path):
    """Relative path -> path of every file under ``root``; None when there
    is no such directory, so a missing and an empty one differ."""
    if not root.is_dir():
        return None
    return {str(p.relative_to(root)): p
            for p in sorted(root.rglob("*")) if p.is_file()}


def _number(value):
    """``value`` as a float if it is a number (a JSON bool is not)."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    return None


def _split(name: str, data: bytes):
    """The numbers of a CSV or JSON file grouped by column or field, and
    everything else in file order; None for another kind of file."""
    numbers, rest = {}, []

    def add(key, value):
        x = _number(value)
        if x is None:
            rest.append((key, value))
        else:
            numbers.setdefault(key, []).append(x)

    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        header = rows[0] if rows else []
        rest.append(("header", header))
        for row in rows[1:]:
            rest.append(("row length", len(row)))
            for key, value in zip(header, row):
                add(key, value)
        return numbers, rest
    if name.endswith(".json"):
        def walk(node, key):
            if isinstance(node, dict):
                rest.append((key, sorted(node)))
                for k in sorted(node):
                    walk(node[k], f"{key}.{k}")
            elif isinstance(node, list):
                rest.append((key, len(node)))
                for item in node:
                    walk(item, key + "[]")
            else:
                add(key, node)
        walk(json.loads(data), "")
        return numbers, rest
    return None


def numeric_difference(name: str, old: bytes, new: bytes) -> str:
    """How two versions of a CSV or JSON file differ: the largest relative
    difference of a number and whether the rest is equal (empty for other
    files)."""
    a, b = _split(name, old), _split(name, new)
    if a is None:
        return ""
    (num_a, rest_a), (num_b, rest_b) = a, b
    same_rest = rest_a == rest_b and all(
        len(num_a.get(k, ())) == len(num_b.get(k, ())) for k in set(num_a) | set(num_b))
    worst, where = 0.0, None
    for key in sorted(set(num_a) & set(num_b)):
        xs, ys = num_a[key], num_b[key]
        if len(xs) != len(ys):
            continue
        scale = max((abs(x) for x in xs + ys if math.isfinite(x)), default=0.0)
        for x, y in zip(xs, ys):
            if x == y or (math.isnan(x) and math.isnan(y)):
                continue
            rel = abs(x - y) / scale if scale > 0 and math.isfinite(x - y) else math.inf
            if where is None or rel > worst:
                worst, where = rel, (key, x, y)
    numbers = (f"largest relative difference {worst:.2g} in {where[0]!r}: "
               f"{where[1]:.17g} -> {where[2]:.17g}"
               if where is not None else "numbers equal")
    return f" ({numbers}; non-numeric content {'equal' if same_rest else 'differs'})"


def compare(parent: pathlib.Path, change: pathlib.Path, config: pathlib.Path,
            work: pathlib.Path, commands=COMMANDS) -> list:
    """Differences between the two trees on one config, one line each;
    outputs go under ``work``."""
    diffs = []
    for command in commands:
        outs, results = {}, {}
        for side, src in (("parent", parent), ("change", change)):
            outs[side] = work / command / side
            results[side] = run(src, command, config, outs[side])
        code = {side: res[0] for side, res in results.items()}
        where = f"{config.name} {command}"
        cost = "; ".join(f"{side} {res[3]:.2f} s, {res[4]:.1f} MB"
                         for side, res in results.items())
        print(f"{where}: exit {code['parent']} / {code['change']}; {cost}")
        if code["parent"] != code["change"]:
            diffs.append(f"{where}: exit code {code['parent']} != {code['change']}")
        for k, stream in ((1, "stdout"), (2, "stderr")):
            if results["parent"][k] != results["change"][k]:
                diffs.append(f"{where}: {stream} differs")
        old, new = files(outs["parent"]), files(outs["change"])
        if (old is None) != (new is None):
            diffs.append(f"{where}: output directory left by the "
                         f"{'parent' if new is None else 'change'} only")
        old, new = old or {}, new or {}
        for name in sorted(set(old) | set(new)):
            if name not in new:
                diffs.append(f"{where}: {name} written by the parent only")
            elif name not in old:
                diffs.append(f"{where}: {name} written by the change only")
            elif not filecmp.cmp(old[name], new[name], shallow=False):
                diffs.append(f"{where}: {name} differs" + numeric_difference(
                    name, old[name].read_bytes(), new[name].read_bytes()))
    return diffs


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    diffs = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for k, config in enumerate(args.configs):
            diffs += compare(args.parent, args.change, config,
                             pathlib.Path(tmp) / str(k), args.commands)
    for line in diffs:
        print(f"DIFFERS {line}")
    print("identical" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
