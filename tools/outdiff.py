"""Run the ``tqnet`` CLI from two source trees and compare what each argv does.

    python tools/outdiff.py PARENT_TREE CHANGE_TREE [ARGV_FILE]

A tree is a checkout; its ``src/`` goes on ``PYTHONPATH``.  Argvs are read
from text the way the README's ``sh`` blocks are: a trailing backslash
continues a line, and each line that starts with ``tqnet `` is one argv;
every other line is a comment.  ARGV_FILE, when given, is the only source.
Otherwise the argvs are those of the ``sh`` blocks of the repository's
README.md, in order, then those of ``argvs.txt`` next to this script.

The parent tree first makes the inputs: a copy of its ``configs/``,
``SETUP``'s synth CSV and truth matrix and a checkpoint trained on them
(``runs/demo``), plus ``bad.csv`` (a non-numeric cell),
``bad_variant.ckpt`` (that checkpoint with a config ``variant`` that names
no variant), ``bad_utf8.json`` (a config file that is not UTF-8) and
``dup.json`` (a small-model config file that gives ``lr`` twice).  Each
argv then runs once per tree in its own process, with one BLAS thread, in a
fresh copy of the inputs.

Compared per argv: the exit code, stdout, stderr, the set of files in the
directory afterwards and their bytes.  In stdout and stderr the directory's
path reads ``<cwd>`` and the tree's ``src`` path ``<src>``; every
``"wall_time_s": <number>`` is masked.  One verdict line per argv, then a
summary line.  A differing argv lists every difference, one per line: the
exit code, the first and the last differing line of each stream, and each
file that differs or is on one side only.  The exit status is 1 if any argv
differs.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from itertools import zip_longest
from pathlib import Path

MAIN = "import sys; from tqnet.cli import main; sys.exit(main(sys.argv[1:]))"
ONE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP = """
tqnet synth --out synth.csv --channels 8 --timesteps 2400 --period 24 --latents 3 \\
    --noise-sigma 0.1 --seed 42
tqnet train --data synth.csv --out-dir runs/demo --lookback 24 --horizon 24 \\
    --period 24 --hidden 64 --attn-dropout 0.0 --lr 0.003 \\
    --train-frac 0.6 --val-frac 0.2 --test-frac 0.2
"""
WALL_TIME = re.compile(rb'"wall_time_s": [-+.0-9eE]+')
TOOLS = Path(__file__).resolve().parent


def read_argvs(text):
    """Every ``tqnet`` line of ``text`` as an argv, without the ``tqnet``."""
    return [shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
            if line.startswith("tqnet ")]


def default_argvs():
    """The argvs of README.md's ``sh`` blocks, then those of argvs.txt."""
    blocks = re.findall(r"```sh\n(.*?)```", (TOOLS.parent / "README.md").read_text(),
                        re.S)
    return [argv for text in (*blocks, (TOOLS / "argvs.txt").read_text())
            for argv in read_argvs(text)]


def _mask(data):
    return WALL_TIME.sub(b'"wall_time_s": "<masked>"', data)


def snapshot(work, code, out, err, paths):
    """What a run in the directory ``work`` did: exit code, masked stdout and
    stderr bytes with each key of ``paths`` replaced by its value, and the
    masked bytes of every file under ``work`` by relative path."""
    for path, name in paths.items():
        out, err = (s.replace(path.encode(), name.encode()) for s in (out, err))
    files = {p.relative_to(work).as_posix(): _mask(p.read_bytes())
             for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return {"exit": code, "stdout": _mask(out), "stderr": _mask(err), "files": files}


def differences(a, b):
    """Every way the snapshots ``a`` and ``b`` differ, empty if none: the
    exit code, the first and the last differing line of each stream, and
    each file that differs or is on one side only, in name order."""
    found = []
    if a["exit"] != b["exit"]:
        found.append(f"exit code {a['exit']} != {b['exit']}")
    for stream in ("stdout", "stderr"):
        lines = zip_longest(a[stream].splitlines(), b[stream].splitlines())
        differ = [(n, x, y) for n, (x, y) in enumerate(lines, 1) if x != y]
        found += [f"{stream} line {n}: {x!r} != {y!r}"
                  for n, x, y in differ[:1] + differ[1:][-1:]]
    for name in sorted(set(a["files"]) | set(b["files"])):
        x, y = a["files"].get(name), b["files"].get(name)
        if x is None or y is None:
            found.append(f"file {name} is on one side only")
        elif x != y:
            offset = next(i for i, (p, q) in enumerate(zip_longest(x, y)) if p != q)
            found.append(f"{name}: bytes differ at offset {offset}")
    return found


def run(tree, argv, work, inputs=None):
    """``tqnet argv`` from ``tree``'s sources in ``work``, which is made as a
    copy of ``inputs`` when they are given."""
    src = str(Path(tree, "src").resolve())
    if inputs is not None:
        shutil.copytree(inputs, work)
    proc = subprocess.run([sys.executable, "-c", MAIN, *argv], cwd=work,
                          env={**os.environ, **ONE_THREAD, "PYTHONPATH": src},
                          capture_output=True, timeout=1800)
    return snapshot(work, proc.returncode, proc.stdout, proc.stderr,
                    {str(work): "<cwd>", src: "<src>"})


def _bad_variant(src, dst):
    """Copy the checkpoint ``src`` to ``dst`` with a config ``variant`` that
    names no variant, checksum updated."""
    blob = src.read_bytes()
    (size,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + size])
    header["config"]["variant"] = "bank_only"
    text = json.dumps(header, sort_keys=True).encode()
    body = text + blob[12 + size:-4]
    dst.write_bytes(blob[:8] + struct.pack("<I", len(text)) + body
                    + struct.pack("<I", zlib.crc32(body)))


def make_inputs(tree, inputs):
    shutil.copytree(Path(tree, "configs"), inputs / "configs")
    for argv in read_argvs(SETUP):
        snap = run(tree, argv, inputs)
        if snap["exit"] != 0:
            raise SystemExit(f"setup failed: tqnet {shlex.join(argv)}\n"
                             + snap["stderr"].decode(errors="replace"))
    (inputs / "bad.csv").write_text("date,a,b\n1,0.5,xyz\n2,0.1,0.2\n")
    (inputs / "bad_utf8.json").write_bytes(b'\xff{"lr": 0.5}')
    (inputs / "dup.json").write_text('{"lookback": 24, "horizon": 24, "period": 24, '
                                     '"hidden": 32, "max_epochs": 1, "patience": 1, '
                                     '"lr": 0.1, "lr": 0.5}')
    _bad_variant(inputs / "runs/demo/model.ckpt", inputs / "bad_variant.ckpt")


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = args[:2]
    argvs = read_argvs(Path(args[2]).read_text()) if len(args) == 3 else default_argvs()
    differ = 0
    with tempfile.TemporaryDirectory(prefix="outdiff-") as tmp, \
            ThreadPoolExecutor(2) as pool:
        inputs = Path(tmp, "inputs")
        make_inputs(parent, inputs)
        for i, argv in enumerate(argvs):
            sides = [pool.submit(run, tree, argv, Path(tmp, f"{i}-{side}"), inputs)
                     for side, tree in (("parent", parent), ("change", change))]
            found = differences(*(s.result() for s in sides))
            differ += bool(found)
            print(f"{'DIFFERS' if found else 'identical'}: tqnet {shlex.join(argv)}"
                  + "".join(f"\n    {line}" for line in found), flush=True)
            for side in ("parent", "change"):
                shutil.rmtree(Path(tmp, f"{i}-{side}"))
    print(f"outdiff: {len(argvs)} argvs, {len(argvs) - differ} identical, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
