"""tools/outdiff.py: the compare step and the argv list it runs."""

import importlib.util
import re
from pathlib import Path

from tqnet.cli import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("outdiff", ROOT / "tools" / "outdiff.py")
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)

LINE = b'{"mse": 0.5, "wall_time_s": %s}\n'


def _snapshot(work, line):
    """A run that printed ``line`` and wrote it to results.jsonl in ``work``."""
    work.mkdir()
    (work / "results.jsonl").write_bytes(line)
    return outdiff.snapshot(work, 0, line, b"", {str(work): "<cwd>"})


def test_compare_ignores_wall_time_and_flags_one_byte(tmp_path):
    a = _snapshot(tmp_path / "a", LINE % b"1.25")
    assert outdiff.differences(a, _snapshot(tmp_path / "b", LINE % b"2e-05")) == []
    c = _snapshot(tmp_path / "c", (LINE % b"1.25").replace(b"0.5", b"0.6"))
    stdout, results = outdiff.differences(a, c)
    assert stdout.startswith("stdout line 1: ")
    assert results == "results.jsonl: bytes differ at offset 10"


def test_compare_normalizes_the_run_directory_and_lists_files(tmp_path):
    a = _snapshot(tmp_path / "a", f"artifacts in {tmp_path / 'a'}\n".encode())
    b = _snapshot(tmp_path / "b", f"artifacts in {tmp_path / 'b'}\n".encode())
    assert a["stdout"] == b"artifacts in <cwd>\n"
    (tmp_path / "b" / "results.jsonl").write_bytes(a["files"]["results.jsonl"])
    (tmp_path / "b" / "extra.csv").write_text("")
    b = outdiff.snapshot(tmp_path / "b", 0, a["stdout"], b"", {})
    assert outdiff.differences(a, b) == ["file extra.csv is on one side only"]


def test_compare_lists_every_difference(tmp_path):
    for name in ("config.json", "model.ckpt", "results.jsonl", "same.csv"):
        (tmp_path / name).write_text("x")
    a = outdiff.snapshot(tmp_path, 0, b"one\ntwo\n", b"", {})
    # an argparse refusal: the last differing line names the refused flag
    b = outdiff.snapshot(tmp_path, 2, b"one\nTWO\n",
                         b"usage: tqnet\n  train\nerror: unrecognized: --hid\n", {})
    b["files"].update({"config.json": b"y", "model.ckpt": b"xz"})
    del b["files"]["results.jsonl"]
    assert outdiff.differences(a, b) == [
        "exit code 0 != 2",
        "stdout line 2: b'two' != b'TWO'",
        "stderr line 1: None != b'usage: tqnet'",
        "stderr line 3: None != b'error: unrecognized: --hid'",
        "config.json: bytes differ at offset 0",
        "model.ckpt: bytes differ at offset 1",
        "file results.jsonl is on one side only",
    ]


def test_argvs_cover_every_subcommand_and_every_readme_line():
    argvs = outdiff.default_argvs()
    assert {argv[0] for argv in argvs} == set(COMMANDS)
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    readme = [argv for block in blocks for argv in outdiff.read_argvs(block)]
    assert readme and argvs[:len(readme)] == readme
    # argvs.txt holds only the argvs beyond README's
    extra = outdiff.read_argvs((ROOT / "tools" / "argvs.txt").read_text())
    assert argvs[len(readme):] == extra
    assert not [argv for argv in extra if argv in readme]
