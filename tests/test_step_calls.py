"""The training step's Python-level call budget, counted by
scripts/step_calls.py: numpy's Python wrappers cost microseconds a call on a
step's 16-64 rows, so a change that puts them back fails here."""

import importlib.util
import os

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location("step_calls", os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "step_calls.py"))
step_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_calls)

# calls per step over 500 steps of the perfbench config, seed 9 (set-up and
# the final evaluation add about 9.2 per step at 500 steps)
BUDGET = {"train_das": 272, "train_plain": 169}


@pytest.mark.skipif(np.__version__ != "2.4.6",
                    reason="counted under numpy 2.4.6, the version CI pins")
@pytest.mark.parametrize("workload", sorted(BUDGET))
def test_calls_per_step_within_budget(workload):
    assert step_calls.calls_per_step(workload, seed=9, steps=500) <= BUDGET[workload]
