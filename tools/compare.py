"""Run one fixed list of recipes from two source trees and compare every output.

Usage:
    python3 tools/compare.py --parent DIR --change DIR [--scale full|smoke] [--work DIR]

DIR is a source tree each (for example a ``git archive`` of a commit).  Each
recipe runs ``python -m bq2d.cli`` (or a demo under ``-W
error::RuntimeWarning``) from that tree's ``src``, in a working directory of
its own, with relative output paths, so that the two sides' console text can
be compared byte for byte; the two sides of a recipe run at the same time.  The recipes:

* monitor: ``run`` at n = 128 with a record and a checkpoint every step, its
  ``resume`` from step 50, and ``besov`` on theta, omega and G of its
  ``final.chk``, and on theta with p = 3, r = 2 (every band, then an l^2 sum);
* sim: ``run`` at n = 256, seed 7, 40 steps;
* split at n = 32 (3 + 3 steps) and 256 (2 + 2): the unsplit run, the first
  part and its ``resume``;
* blow-ups at n = 32 and 256 (``--amplitude 2e8``);
* ``inequality-suite --n 128`` with ``--n-steps 10`` and with ``--t-end 0.3``
  (a counting pass, then the picks), and ``kernel-verify --beta 0.5 --n 256``;
* the five demos.

``--scale smoke`` runs one command of each kind at n = 16 or 32, a few steps
each: ``besov`` on theta only (both indices), the split and the blow-up at
n = 16 only, and only the first demo (the demos have fixed sizes).

Every output is reported as identical or not: each command's exit code,
stdout and stderr, and every file it wrote.  A text output that differs
only in its numbers (a CSV, a ``final:`` line) gets the largest relative
difference of those numbers.  A ``*.chk`` is compared as its header line
and its payload, and a payload that differs gets its largest coefficient
difference relative to the largest coefficient.  Each split recipe also
checks, in each tree, that the resumed ``final.chk`` equals the unsplit one.
Exit status 0 when everything is identical, else 1.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SIDES = ("parent", "change")
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan))")


def recipes(scale: str) -> dict[str, list[list[str]]]:
    """Recipe name -> its commands, in order: ``bq2d.cli`` argument lists, or
    ``["demo", FILE]``."""
    full = scale == "full"
    mon, sim, sizes = (128, 256, (32, 256)) if full else (16, 32, (16,))
    fields = ("theta", "omega", "G") if full else ("theta",)
    monitor = ["--dt-init", "0.01", "--cfl-number", "0.9", "--t-end", "1" if full else "0.05", "--diag-every", "1",
               "--checkpoint-every", "1"]
    out = {
        "monitor": [
            ["run", "--n", str(mon), "--alpha", "0.95", "--seed", "7", *monitor, "--out-dir", "run"],
            ["resume", f"run/ckpt_{50 if full else 2:08d}.chk", *monitor, "--out-dir", "resumed"],
            *(["besov", "run/final.chk", "--s", "0.5", "--field", f] for f in fields),
            ["besov", "run/final.chk", "--s", "0.5", "--p", "3", "--r", "2"],
        ],
        "sim": [["run", "--n", str(sim), "--seed", "7", "--n-steps", "40" if full else "4", "--out-dir", "run"]],
    }
    for n, half in zip(sizes, (3, 2)):
        base = ["run", "--n", str(n), "--seed", "3"]
        out[f"split-{n}"] = [
            [*base, "--n-steps", str(2 * half), "--out-dir", "unsplit"],
            [*base, "--n-steps", str(half), "--out-dir", "first"],
            ["resume", "first/final.chk", "--n-steps", str(half), "--out-dir", "second"],
        ]
    for n in sizes:
        out[f"blowup-{n}"] = [["run", "--n", str(n), "--amplitude", "2e8", "--n-steps", "5", "--out-dir", "run"]]
    out["inequality-suite"] = [
        ["inequality-suite", "--n", str(mon), "--n-steps", "10" if full else "2"],
        ["inequality-suite", "--n", str(mon), "--t-end", "0.3" if full else "0.05"],
    ]
    out["kernel-verify"] = [["kernel-verify", "--beta", "0.5", "--n", str(sizes[-1])]]
    demos = ["01_spectral_operators.py", "02_simulation_and_monitors.py", "03_kernel_oracle.py",
             "04_besov_toolbox.py", "05_inequality_gallery.py"]
    for demo in demos if full else demos[:1]:
        out[f"demo-{demo[:2]}"] = [["demo", demo]]
    return out


def run_recipe(tree: str, commands: list[list[str]], cwd: str) -> None:
    """Run ``commands`` from ``tree`` in ``cwd``; command k's exit code, stdout
    and stderr go to ``cwd/console-k.txt``."""
    os.makedirs(cwd)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("BQ2D_OUT_DIR", None)
    for k, argv in enumerate(commands):
        if argv[0] == "demo":
            cmd = [sys.executable, "-W", "error::RuntimeWarning", os.path.join(tree, "demos", argv[1])]
        else:
            cmd = [sys.executable, "-m", "bq2d.cli", *argv]
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
        with open(os.path.join(cwd, f"console-{k}.txt"), "w") as fh:
            fh.write(f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")


def outputs(cwd: str) -> list[str]:
    """Every file under ``cwd``, as sorted relative paths."""
    found = [os.path.relpath(os.path.join(d, f), cwd) for d, _, files in os.walk(cwd) for f in files]
    return sorted(found)


def text_difference(a: str, b: str) -> str:
    """The largest relative difference of the numbers of two texts that differ
    in their numbers only, else where they first differ."""
    pa, pb = NUMBER.split(a), NUMBER.split(b)
    if len(pa) == len(pb) and pa[::2] == pb[::2]:
        worst = 0.0
        for x, y in zip(map(float, pa[1::2]), map(float, pb[1::2])):
            if x != y and not (np.isnan(x) and np.isnan(y)):
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        return f"max rel diff {worst:.3g}"
    lines = zip(a.splitlines() + [""], b.splitlines() + [""])
    line = next((k for k, (x, y) in enumerate(lines, 1) if x != y), None)
    return f"text differs from line {line}" if line else "text differs in its line ends"


def chk_difference(a: bytes, b: bytes) -> str:
    """Header and payload of two checkpoints, compared separately."""
    (ha, _, pa), (hb, _, pb) = a.partition(b"\n"), b.partition(b"\n")
    parts = [f"header {'identical' if ha == hb else 'differs'}"]
    if pa == pb:
        parts.append("payload identical")
    elif len(pa) == len(pb) and len(pa) % 16 == 0:
        ca, cb = np.frombuffer(pa, "<c16"), np.frombuffer(pb, "<c16")
        scale = max(np.abs(ca).max(), np.abs(cb).max())
        worst = np.abs(ca - cb).max() / scale if scale else 0.0
        parts.append(f"payload differs, max coefficient diff {worst:.3g} of the max")
    else:
        parts.append("payload differs in size")
    return ", ".join(parts)


def compare_file(pa: str, pb: str) -> tuple[bool, str]:
    with open(pa, "rb") as fa, open(pb, "rb") as fb:
        a, b = fa.read(), fb.read()
    if a == b:
        return True, "identical"
    if pa.endswith(".chk"):
        return False, chk_difference(a, b)
    try:
        return False, text_difference(a.decode(), b.decode())
    except UnicodeDecodeError:
        return False, "binary differs"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the parent's source tree")
    ap.add_argument("--change", required=True, help="the change's source tree")
    ap.add_argument("--scale", default="full", choices=["full", "smoke"])
    ap.add_argument("--work", default=None, help="where the outputs go (default: a temporary directory, removed)")
    args = ap.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    work = args.work or tempfile.mkdtemp(prefix="bq2d-compare-")
    same = True
    try:
        for name, commands in recipes(args.scale).items():
            dirs = {side: os.path.join(work, side, name) for side in SIDES}
            with ThreadPoolExecutor(len(SIDES)) as pool:  # the two sides at once, one process each
                list(pool.map(lambda side: run_recipe(trees[side], commands, dirs[side]), SIDES))
            files = {side: outputs(dirs[side]) for side in SIDES}
            for rel in sorted(set(files["parent"]) | set(files["change"])):
                if rel not in files["parent"] or rel not in files["change"]:
                    ok, status = False, f"only in {'parent' if rel in files['parent'] else 'change'}"
                else:
                    ok, status = compare_file(*(os.path.join(dirs[side], rel) for side in SIDES))
                same = same and ok
                print(f"{name:18} {rel:28} {status}")
            if name.startswith("split-"):
                equal = {}
                for side in SIDES:
                    paths = [os.path.join(dirs[side], d, "final.chk") for d in ("second", "unsplit")]
                    equal[side] = all(map(os.path.exists, paths)) and compare_file(*paths)[0]
                same = same and all(equal.values())
                print(f"{name:18} {'second == unsplit final.chk':28} "
                      + ", ".join(f"{side} {'yes' if equal[side] else 'NO'}" for side in SIDES))
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print("every output identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
