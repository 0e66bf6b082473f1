#!/usr/bin/env python3
"""densedml benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload train_das --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload (see perfbench/workloads.py) is a
closed loop of train-then-evaluate sessions on inputs made from --seed.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced sessions and reports the per-layer metrics.  Diagnostics go to
standard error.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT_DIR, "src")
SETUP_PROBES = 7
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.prepare(sys.argv[3], int(sys.argv[4]))")
# share of a traced step that may fall outside every wrapped span
MAX_GLUE_SHARE = 0.3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Ledger:
    """Operations attempted and failed: training steps, evaluate calls, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def ops(self, n, ok=True):
        self.attempted += n
        if not ok:
            self.failed += n

    def check(self, ok, what):
        self.ops(1, ok)
        if not ok:
            log(f"CHECK FAILED: {what}")


def probe_setup(workload, seed, env, host):
    """Wall time (s) of a fresh interpreter that imports densedml, builds the
    dataset and initialises the encoder, process start to ready.  Returns
    (scaled to reference host speed, as measured)."""
    start = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", PROBE, SRC_DIR, BENCH_DIR, workload, str(seed)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    end = time.perf_counter_ns()
    host.sample()
    return (end - start) / 1e9 * float(host.factor(start, end)), (end - start) / 1e9


def _p50(sessions, key="step_ms"):
    import numpy as np

    return float(np.percentile(np.concatenate([s[key] for s in sessions]), 50))


def run_session(cfg, evals, ckpt, host, tracer=None):
    """One user session: train(cfg), save the checkpoint, then
    evaluate_checkpoint `evals` times.  Timings are scaled to
    reference host speed (hostspeed.py); the *_raw ones are as measured."""
    import numpy as np
    from densedml.encoder import save_checkpoint
    from densedml.training import evaluate_checkpoint, train
    from tracer import PhaseClock

    clock = PhaseClock(host)
    reports, eval_windows = [], []
    if tracer is not None:
        tracer.clear()
        tracer.install()
    try:
        t0 = time.perf_counter_ns()
        result = train(cfg, trace=clock)
        t1 = time.perf_counter_ns()
        save_checkpoint(ckpt, result.params, result.opt_state, cfg.seed)
        for _ in range(evals):
            host.sample()  # brackets each evaluation, outside its interval
            t2 = time.perf_counter_ns()
            reports.append(evaluate_checkpoint(ckpt, result.dataset, cfg.eval_ks))
            eval_windows.append((t2, time.perf_counter_ns()))
    finally:
        if tracer is not None:
            tracer.uninstall()
    host.sample()  # closes the bracket around the last evaluation
    windows = clock.step_windows()
    starts, ends = (np.asarray(w, dtype=np.float64) for w in zip(*windows))
    scale = host.factor(starts, ends)
    eval_starts, eval_ends = (np.asarray(w, dtype=np.float64) for w in zip(*eval_windows))
    eval_scales = host.factor(eval_starts, eval_ends)
    train_s = (t1 - t0 - clock.sampling_ns()) / 1e9
    return {
        "train_s": train_s * float(host.factor(t0, t1)),
        "train_s_raw": train_s,
        "eval_s": (eval_ends - eval_starts) / 1e9 * eval_scales,
        "eval_s_raw": (eval_ends - eval_starts) / 1e9,
        "eval_windows": eval_windows,
        "eval_scales": eval_scales,
        "setup_window": (t0, clock.updates()[0]),
        "setup_scale": float(host.factor(t0, clock.updates()[0])),
        "step_windows": windows,
        "step_scale": scale,
        "step_ms": (ends - starts) / 1e6 * scale,
        "step_ms_raw": (ends - starts) / 1e6,
        "phases": clock.names(),
        "log_lines": result.log_lines,
        "final_report": result.final_report.to_json_dict(),
        "reports": [report.to_json_dict() for report in reports],
        "report": reports[0].to_json_dict(),
    }


def check_session(ledger, cfg, session, reference):
    """Output checks that hold for any correct densedml, whatever its random
    stream: repeatable, finite, consistent counts, recall in range."""
    from workloads import expected_phases

    ledger.check(session["phases"] == list(expected_phases(cfg)) * cfg.steps,
                 "phase sequence differs from the expected per-step order")
    if reference is not None:
        ledger.check(session["log_lines"] == reference["log_lines"],
                     "log_lines differ between repetitions of the workload "
                     "(traced and untraced sessions alternate)")
        ledger.check(session["report"] == reference["report"],
                     "eval report differs between repetitions of the workload")
    ledger.check(all(r == session["final_report"] for r in session["reports"]),
                 "evaluate_checkpoint disagrees with train()'s final report")
    steps = [json.loads(line) for line in session["log_lines"]]
    steps = [s for s in steps if s["type"] == "step"]
    ledger.check(len(steps) == cfg.steps and all(math.isfinite(s["loss"]) for s in steps),
                 "a step is missing or its loss is not finite")
    t = cfg.das.T if cfg.das.enabled else 0
    rows = cfg.batch.classes_per_batch * cfg.batch.samples_per_class
    ledger.check(all(s["produced"] == rows * t - s["dropped"] for s in steps),
                 f"produced != {rows}*T - dropped in some step")
    rep = session["report"]
    scores = [v for k, v in rep.items() if k.startswith("recall@")] + [rep["nmi"], rep["f1"]]
    ledger.check(all(0.0 <= v <= 1.0 for v in scores), "recall/NMI/F1 outside [0, 1]")


def sessions_loop(ledger, workload, seed, seconds, ckpt, host, tracer=None):
    """Sessions over the workload's training seeds in turn, until `seconds`
    have passed and every seed has run.  The first session warms up: checked,
    not timed.  With a tracer, odd sessions are traced, so traced and
    untraced sessions see the same machine and, after one pass, every seed
    runs both ways.  Without one, set-up probes are spread over the run.
    Returns (untraced sessions, traced sessions, set-up times as
    (scaled, raw) pairs, the eval report of each training seed)."""
    from workloads import EVALS, make_config, training_seeds

    configs = [make_config(workload, s) for s in training_seeds(seed)]
    untraced, traced, setups = [], [], []
    references = {}
    start = None
    n = 0
    while True:
        cfg = configs[n % len(configs)]
        use_tracer = tracer is not None and n % 2 == 1
        try:
            session = run_session(cfg, EVALS[workload], ckpt, host,
                                  tracer if use_tracer else None)
        except Exception:  # a failed operation is reported, not raised
            log(traceback.format_exc())
            ledger.ops(cfg.steps + EVALS[workload], ok=False)
            return untraced, traced, setups, []
        ledger.ops(cfg.steps + EVALS[workload])
        check_session(ledger, cfg, session, references.get(cfg.seed))
        references.setdefault(cfg.seed, session)
        if use_tracer:
            session["layers"] = tracer.fold_session(session)
        n += 1
        if start is None:  # warm-up
            start = time.perf_counter()
            continue
        (traced if use_tracer else untraced).append(session)
        elapsed = time.perf_counter() - start
        if tracer is None and len(setups) * seconds < SETUP_PROBES * elapsed:
            setups.append(probe_setup(workload, seed, dict(os.environ), host))
        if elapsed >= seconds and n > len(configs):
            break
    while tracer is None and len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload, seed, dict(os.environ), host))
    session_reports = [references[cfg.seed]["report"] for cfg in configs]
    return untraced, traced, setups, session_reports


def end_to_end(sessions, setups, reports):
    """Medians of timings scaled to reference host speed; quality is the
    mean over the workload's training seeds."""
    import numpy as np
    import resource

    return {
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "step_ms_p50": _p50(sessions),
        "steps_per_s": statistics.median((len(s["step_ms"]) + 1) / s["train_s"] for s in sessions),
        "eval_s": _p50(sessions, "eval_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "recall_at_1": float(np.mean([r["recall@1"] for r in reports])),
        "nmi": float(np.mean([r["nmi"] for r in reports])),
    }


def unscaled(untraced, traced, setups, host):
    """The host-speed kernel and the timings as measured, before scaling, so
    a drift of host speed, or a change that slows the kernel too, shows."""
    from hostspeed import REF_KERNEL_MS

    out = {"kernel_ms_p50": host.kernel_ms_median(), "ref_kernel_ms": REF_KERNEL_MS}
    if untraced:
        out["step_ms_p50"] = _p50(untraced, "step_ms_raw")
        out["steps_per_s"] = statistics.median(
            (len(s["step_ms"]) + 1) / s["train_s_raw"] for s in untraced)
        out["eval_s"] = _p50(untraced, "eval_s_raw")
    if traced:
        out["traced_step_ms_p50"] = _p50(traced, "step_ms_raw")
    if setups:
        out["setup_s"] = statistics.median(raw for _, raw in setups)
    return out


def per_layer(ledger, tracer, cfg, untraced, traced):
    layers = [sess["layers"] for sess in traced]
    steps = [s for lay in layers for s in lay["steps"]]
    n_real = cfg.batch.classes_per_batch * cfg.batch.samples_per_class
    out = tracer.summarize_steps(steps, n_real)
    for metric in tracer.eval_ms:
        out[metric] = statistics.median(
            call[metric] for lay in layers for call in lay["eval_ms"])
    for metric in tracer.setup_ms:
        out[metric] = statistics.median(lay["setup_ms"][metric] for lay in layers)
    out["core.pairwise_bytes"] = max(lay["pairwise_bytes"] for lay in layers)

    plain_p50 = _p50(untraced)
    traced_p50 = _p50(traced)
    out["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0

    # Reconciliation.  training.self_ms is what no wrapped span covers, so the
    # per-layer means add up to the traced step by construction; what can go
    # wrong is a call that escapes its wrapper.  It shows as a step that does
    # not enter some span exactly once, or as glue outgrowing its share.
    for failure in tracer.call_count_failures(steps, cfg.das.enabled):
        ledger.check(False, f"call count: {failure}")
    ledger.ops(1)
    glue = out["training.self_ms"] / traced_p50
    ledger.check(glue <= MAX_GLUE_SHARE,
                 f"training.self_ms is {glue:.0%} of a traced step; a call bypasses its wrapper")
    accounted = sum(out[m] for m in tracer.step_ms) + out["training.self_ms"]
    log(f"reconcile: layers + training.self = {accounted:.4f} ms per traced step (mean); "
        f"step_ms_p50 traced {traced_p50:.4f} ms, untraced {plain_p50:.4f} ms; glue {glue:.1%}")
    return out


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "densedml", "training.py")):
        log(f"perfbench: no densedml sources under {SRC_DIR}; run from a full checkout")
        return 2
    with open(os.path.join(BENCH_DIR, "surface.json"), encoding="utf-8") as fh:
        surface = json.load(fh)
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # BLAS threads are pinned before numpy loads, here and in the setup probes
    for var in surface["blas_env"]:
        os.environ[var] = str(surface["blas_threads"])
    sys.path[:0] = [SRC_DIR, BENCH_DIR]

    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import WORKLOADS, make_config

    if args.workload not in WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}")
        return 2
    ledger = Ledger()
    tracer = Tracer(surface["wrapped"]) if args.trace else None
    host = HostSpeed()
    host.sample()
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as work:
        untraced, traced, setups, reports = sessions_loop(
            ledger, args.workload, args.seed, args.seconds,
            os.path.join(work, "checkpoint.json"), host, tracer)
    metrics = {}
    if args.trace and untraced and traced:
        cfg = make_config(args.workload, args.seed)
        metrics = per_layer(ledger, tracer, cfg, untraced, traced)
    elif not args.trace and untraced and reports:
        metrics = end_to_end(untraced, setups, reports)
    if metrics and set(metrics) != set(units):
        log(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
        return 2
    n_steps = sum(len(s["step_ms"]) + 1 for s in untraced + traced)
    log(f"{args.workload} seed={args.seed} trace={args.trace}: {len(untraced)} untraced + "
        f"{len(traced)} traced sessions, {n_steps} timed steps")
    for name, value in metrics.items():
        log(f"  {name:<34} {value:>14.6g} {units[name]}")
    # Not metrics: the result line below has a fixed set of keys, so the
    # unscaled timings go on the line before it.
    print(json.dumps({"unscaled": unscaled(untraced, traced, setups, host)}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if ledger.failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
