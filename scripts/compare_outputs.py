#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

Every subcommand (solve, frequency, blowup, symmetrize, verify) runs on
every given config under each tree, each run in a fresh Python process
with that tree first on PYTHONPATH and its own output directory.  The
script names every output file whose bytes differ, every file that only
one side wrote, and every subcommand whose exit code, standard output or
standard error differs.  It exits 0 when nothing differs and 1
otherwise.

Example (a second checkout of the parent commit in ../parent):
    python3 scripts/compare_outputs.py --parent ../parent/src --change src \\
        cfg_square.json cfg_disk.json
"""

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

COMMANDS = ("solve", "frequency", "blowup", "symmetrize", "verify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=pathlib.Path, required=True,
                   help="directory holding the parent's fracplasma package")
    p.add_argument("--change", type=pathlib.Path, required=True,
                   help="directory holding the changed fracplasma package")
    p.add_argument("configs", nargs="+", type=pathlib.Path,
                   help="JSON experiment configurations")
    return p.parse_args(argv)


def run(src: pathlib.Path, command: str, config: pathlib.Path, out: pathlib.Path):
    """One subcommand in a fresh process; (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src.resolve())] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "fracplasma", command,
                           "--config", str(config.resolve()), "--out", str(out)],
                          env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def files(root: pathlib.Path) -> dict:
    """Relative path -> bytes of every file under ``root``."""
    if not root.is_dir():
        return {}
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def compare(parent: pathlib.Path, change: pathlib.Path, config: pathlib.Path,
            work: pathlib.Path) -> list:
    """Differences between the two trees on one config, one line each;
    outputs go under ``work``."""
    diffs = []
    for command in COMMANDS:
        outs, results = {}, {}
        for side, src in (("parent", parent), ("change", change)):
            outs[side] = work / command / side
            results[side] = run(src, command, config, outs[side])
        code = {side: res[0] for side, res in results.items()}
        where = f"{config.name} {command}"
        print(f"{where}: exit {code['parent']} / {code['change']}")
        if code["parent"] != code["change"]:
            diffs.append(f"{where}: exit code {code['parent']} != {code['change']}")
        for k, stream in ((1, "stdout"), (2, "stderr")):
            if results["parent"][k] != results["change"][k]:
                diffs.append(f"{where}: {stream} differs")
        old, new = files(outs["parent"]), files(outs["change"])
        for name in sorted(set(old) | set(new)):
            if name not in new:
                diffs.append(f"{where}: {name} written by the parent only")
            elif name not in old:
                diffs.append(f"{where}: {name} written by the change only")
            elif old[name] != new[name]:
                diffs.append(f"{where}: {name} differs")
    return diffs


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    diffs = []
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        for k, config in enumerate(args.configs):
            diffs += compare(args.parent, args.change, config, pathlib.Path(tmp) / str(k))
    for line in diffs:
        print(f"DIFFERS {line}")
    print("identical" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
