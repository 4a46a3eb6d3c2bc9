"""The benchmark's calls into tqnet, run once at Tier-1.

``perfbench/workloads.py`` and ``perfbench/instrument.py`` are read here,
never edited.  Each workload is built at seed 0, runs one pass under the
untraced ``Probe``, and must pass every output check, so a change to an
API the benchmark calls fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tqnet
from tqnet import analysis, checkpoint, cli, data, kernels, model, tensor, training  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch=None):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:  # dataclasses look their module up
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_passes_every_check(name, tmp_path, monkeypatch):
    instrument = _load("instrument", monkeypatch)
    workload = WORKLOADS[name](tqnet, 0, tmp_path)
    stats = instrument.PassStats()
    probe = instrument.Probe(tqnet)
    probe.install(stats)
    try:
        out = workload.run_pass()
    finally:
        probe.uninstall()
    checks = workload.checks([stats], [out])
    assert checks
    assert all(c["ok"] for c in checks), [c for c in checks if not c["ok"]]
