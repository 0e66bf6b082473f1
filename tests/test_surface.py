"""The densedml surface the benchmark depends on (perfbench/surface.json).

The benchmark times the functions it lists by rebinding them wherever a
densedml module binds them.  These tests fail when a change renames one of
them or makes a training step bypass one, instead of leaving that to a
failed benchmark run.  They read surface.json and use perfbench/tracer.py as
they are; neither is edited here.
"""

import importlib.util
import json
import os
import time

import pytest

from densedml.config import RunConfig
from densedml.training import train

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

with open(os.path.join(BENCH_DIR, "surface.json"), encoding="utf-8") as _fh:
    SURFACE = json.load(_fh)

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", os.path.join(BENCH_DIR, "tracer.py"))
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


class UpdateClock:
    """A `trace` object that stamps each step's closing "update" phase."""

    def __init__(self):
        self.updates = []

    def append(self, phase):
        if phase == "update":
            self.updates.append(time.perf_counter_ns())


@pytest.mark.parametrize("target", sorted(SURFACE["wrapped"]))
def test_wrapped_target_resolves(target):
    _, owner, attr = tracer._resolve(target)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("das_enabled", [True, False])
def test_each_step_enters_its_spans_once(das_enabled):
    cfg = RunConfig()
    cfg.steps = 3
    cfg.data.classes, cfg.data.per_class, cfg.data.input_dim = 8, 12, 8
    cfg.encoder.hidden, cfg.encoder.embed_dim = [16], 8
    cfg.batch.classes_per_batch = 4
    cfg.eval_ks = [1, 2]
    cfg.das.enabled = das_enabled
    assert cfg.loss.kind == "triplet"  # the loss span surface.json times

    spans = tracer.Tracer(SURFACE["wrapped"])
    clock = UpdateClock()
    spans.install()
    try:
        start = time.perf_counter_ns()
        train(cfg, trace=clock)
    finally:
        spans.uninstall()
    # step i runs from the previous "update" (or the start) to its own;
    # the final evaluation comes after the last one and stays out
    windows = list(zip([start] + clock.updates[:-1], clock.updates))
    assert len(windows) == cfg.steps
    steps = spans.step_layers(windows, [1] * len(windows))
    assert spans.call_count_failures(steps, das_enabled) == []
