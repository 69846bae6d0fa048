"""One pass of the benchmark's ``commands``, ``sweep`` and ``rank_sweep`` workloads.

The benchmark refuses a run whose set-up fails or whose operations give an
answer it does not know as a defect; this runs the same operations once, in
process, so that such a run shows up here first.  ``perfbench/workloads.py``
is only imported, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from clifflab import cli, reps, structure

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
LIB = SimpleNamespace(cli=cli, reps=reps, structure=structure)

# seed -> the volume splits (m_plus, m_minus) its repgen files get at r = 4
# and r = 8; together the seeds take every split at both ranks
COMMAND_SEEDS = {1: ([2, 0], [1, 1]), 2: ([0, 2], [2, 0]), 3: ([1, 1], [0, 2])}


def _load_workloads():
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the file executes
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def _unexplained_mismatches(ops):
    """Label and problem of every operation whose answer is wrong and not a known defect."""
    out = []
    for op in ops:
        problem = op.check(op.run())
        if problem is not None and op.known_defect is None:
            out.append((op.label, problem))
    return out


def test_seeds_take_every_volume_split():
    for t in range(2):
        assert sorted(splits[t] for splits in COMMAND_SEEDS.values()) == [[0, 2], [1, 1], [2, 0]]


@pytest.mark.parametrize("seed", sorted(COMMAND_SEEDS))
def test_commands_pass(seed, tmp_path):
    ops = _load_workloads().build("commands", LIB, seed, tmp_path, FIXTURES)
    splits = tuple(json.loads((tmp_path / f"repgen_r{r}.json").read_text())["volume_split"] for r in (4, 8))
    assert splits == COMMAND_SEEDS[seed]
    assert _unexplained_mismatches(ops) == []


def test_sweep_pass(tmp_path):
    ops = _load_workloads().build("sweep", LIB, 11, tmp_path, FIXTURES)
    assert _unexplained_mismatches(ops) == []


def test_rank_sweep_pass(tmp_path, monkeypatch):
    # the workload runs above the default rank cap, as the benchmark does
    workloads = _load_workloads()
    monkeypatch.setenv("CLIFFLAB_MAX_RANK", workloads.RANK_SWEEP_MAX_RANK)
    ops = workloads.build("rank_sweep", LIB, 11, tmp_path, FIXTURES)
    assert _unexplained_mismatches(ops) == []
