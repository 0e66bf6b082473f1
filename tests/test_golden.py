"""The seeded stream, pinned: a covering subset of scripts/golden_logs.py's
cells reproduces the hashes committed in tests/golden.json.

The subset runs every loss/sampler pair once with both DAS mechanisms on,
every ablation variant and every batch setting at least once, and the
integer-grid evaluation.  `golden_logs.py --check tests/golden.json` runs
the full grid.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_spec = importlib.util.spec_from_file_location(
    "golden_logs", os.path.join(ROOT, "scripts", "golden_logs.py"))
golden_logs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_logs)

with open(os.path.join(ROOT, "tests", "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

COVERING = (
    "both/triplet/random/default/seed0",
    "both/triplet/semihard/real_anchors/seed1",
    "both/triplet/softhard/M=3/seed2",
    "both/triplet/distance/default/seed1",
    "both/contrastive/random/real_anchors/seed2",
    "both/contrastive/semihard/M=3/seed0",
    "both/contrastive/softhard/default/seed1",
    "both/contrastive/distance/real_anchors/seed0",
    "both/margin/random/M=3/seed1",
    "both/margin/semihard/default/seed2",
    "both/margin/softhard/real_anchors/seed0",
    "both/margin/distance/M=3/seed2",
    "both/ms/distance/default/seed0",
    "baseline/triplet/distance/real_anchors/seed2",
    "dfs_only/margin/distance/M=3/seed1",
    "mts_only/contrastive/semihard/default/seed0",
)


def mismatch(cell):
    return (f"{cell}: hashes differ from tests/golden.json, written under numpy "
            f"{GOLDEN['numpy']}; running numpy {np.__version__}")


def test_subset_covers_the_grid():
    cells = [name.split("/") for name in COVERING]
    pairs = {(loss, sampler) for variant, loss, sampler, _, _ in cells if variant == "both"}
    grid = [name.split("/") for name, _ in golden_logs.grid()]
    assert pairs == {(loss, sampler) for _, loss, sampler, _, _ in grid}
    assert {cell[0] for cell in cells} == {cell[0] for cell in grid}
    assert {cell[3] for cell in cells} == {cell[3] for cell in grid}
    assert set(COVERING) <= GOLDEN["cells"].keys()


@pytest.mark.parametrize("cell", COVERING)
def test_training_cell_matches_golden(cell):
    overrides = dict(golden_logs.grid())[cell]
    cfg = golden_logs.cell_config(golden_logs.base_config(), overrides)
    assert golden_logs.cell_hashes(cfg) == GOLDEN["cells"][cell], mismatch(cell)


def test_integer_grid_evaluation_matches_golden():
    cell = "eval/integer_grid"
    assert golden_logs.integer_grid_hash() == GOLDEN["cells"][cell], mismatch(cell)
