"""Self-tests of the benchmark and its span recorder.

    python3 -m pytest perfbench/tests -q

The workload tests run real traced passes and take about two minutes in all.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_library()

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def traced(name, seed, tmp_path):
    return run.trace_run(workloads.WORKLOADS[name], seed, tmp_path)


def test_every_binding_is_wrapped_and_restored():
    import vanar
    import vanar.experiment
    import vanar.network
    import vanar.var
    import vanar.vanar

    original_aic, original_train = vanar.var.select_lag_aic, vanar.network.train
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert tracer.missing == []
        for module in (vanar, vanar.var, vanar.vanar, vanar.experiment):
            assert module.select_lag_aic.__wrapped__ is original_aic
        for module in (vanar, vanar.network, vanar.vanar):
            assert module.train.__wrapped__ is original_train
        assert hasattr(vanar.Mlp.loss_and_gradients, "__wrapped__")
    finally:
        tracer.uninstall()
    assert vanar.vanar.select_lag_aic is original_aic
    assert vanar.vanar.train is original_train
    assert not hasattr(vanar.Mlp.loss_and_gradients, "__wrapped__")


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "inner")

    def body():
        inner()
        inner()
        time.sleep(0.005)

    outer = tracer.wrap(body, "outer")
    tracer.op_id = 7
    outer()
    t = tracer.table()
    assert list(t["parent"]) == [-1, 0, 0]
    assert list(t["op"]) == [7, 7, 7]
    assert t["self"][0] == pytest.approx(t["dur"][0] - t["dur"][1] - t["dur"][2])
    assert 0.004 < t["self"][0] < t["dur"][0] - 0.02
    assert tracer.ancestor_named(2, {"outer"}) == "outer"


def test_reference_time_scales_each_stretch_by_its_probe():
    ref = speed.KERNEL_REF_S
    # probes at 0, 1, 2 and 3 s: full speed, half speed twice, full speed
    probe_starts = np.array([0.0, 1.0, 2.0, 3.0])
    probe_seconds = np.array([ref, 2 * ref, 2 * ref, ref])
    starts = np.array([0.5, 0.5, 1.0, -1.0])
    ends = np.array([0.75, 1.5, 1.5, 3.5])
    got = speed.reference_times(probe_starts, probe_seconds, starts, ends)
    want = [0.25,
            0.5 + (0.5 - 2 * ref) / 2,  # the probe at 1 s is left out
            (0.5 - 2 * ref) / 2,
            1.0 + (1.0 - ref) + (1.0 - 2 * ref) + (0.5 - ref)]
    assert got == pytest.approx(want)


def test_one_slow_probe_does_not_set_the_speed():
    ref = speed.KERNEL_REF_S
    got = speed.reference_times(np.array([0.0, 1.0, 2.0]), np.array([ref, 5 * ref, ref]),
                                np.array([0.0]), np.array([2.0]))
    assert got == pytest.approx([(1.0 - ref) + (1.0 - 5 * ref)])


def test_speed_probe_samples_while_operations_run():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.starts) > 5
    assert probe.reference_times([start], [end])[0] > 0


def test_seed_changes_inputs(tmp_path):
    for name in ("experiment-low", "fit-high"):
        w = workloads.WORKLOADS[name]
        base = w.fingerprint(w.setup(workloads.BASE_SEED, tmp_path))
        assert base == w.fingerprint(w.setup(workloads.BASE_SEED, tmp_path))
        assert base != w.fingerprint(w.setup(1, tmp_path))


def expected_grad_calls(tracer: Tracer) -> int:
    """Per training: epochs times the mini-batches over the rows left after
    the validation tail."""
    t = tracer.table()
    total = 0
    for i in range(len(tracer)):
        if tracer.names[t["name"][i]] == "network.train" and t["op"][i] >= 0:
            n = tracer.notes[i]
            train_rows = n["rows"] - int(round(n["rows"] * n["validation_fraction"]))
            total += n["epochs"] * math.ceil(train_rows / n["batch_size"])
    return total


def test_fit_high_gradient_count(tmp_path):
    result = traced("fit-high", workloads.BASE_SEED, tmp_path)
    m = result.metrics
    assert result.tally.failed == 0 and result.tally.attempted == 2
    assert m["network.grad_calls"] == m["network.step_calls"] > 0
    assert m["network.grad_calls"] == expected_grad_calls(result.tracer)
    assert m["network.train_calls"] == 5  # autoencoder, plain and enriched head per variable
    assert m["network.epochs_run"] == 5 * workloads.FitHigh.EPOCHS
    assert m["vanar.fit_calls"] == m["vanar.fit_distinct"] == 1


def test_experiment_low_fit_counts(tmp_path):
    result = traced("experiment-low", workloads.BASE_SEED, tmp_path)
    m = result.metrics
    assert result.tally.failed == 0 and result.tally.attempted == 2
    assert m["network.grad_calls"] == m["network.step_calls"] > 0
    assert m["network.grad_calls"] == expected_grad_calls(result.tracer)
    assert m["vanar.fit_calls"] == 34
    assert m["vanar.fit_distinct"] == 9
    assert m["network.train_calls"] == 134
    fits = [m[f"experiment.{t}_fits"] for t in layers.TASKS]
    assert fits == [12, 9, 1, 12]


def test_serve_counts_repeat_and_skip_training(tmp_path):
    first = traced("serve-forecast", 3, tmp_path).metrics
    second = traced("serve-forecast", 3, tmp_path).metrics
    counts = [m["name"] for m in bench()["per_layer"] if m["unit"] in ("count", "B")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["network.grad_calls"] == first["vanar.fit_calls"] == 0
    assert first["network.forward_calls"] > 0


CALLS = []


class Counting:
    """A stand-in workload: each op sleeps, then answers with what
    ``answer_of`` makes of the calls this process has made so far."""

    name = "counting"
    trace_ops = 1

    def __init__(self, rounds, keys, verify_after, answer_of):
        self.rounds, self.keys, self.verify_after = rounds, keys, verify_after
        self.answer_of = answer_of
        self.setup_every = 0.01

    def setup(self, seed, scratch):
        return {"seed": seed}

    def fingerprint(self, state):
        return str(state["seed"])

    def ops(self, state):
        def call():
            CALLS.append(1)
            time.sleep(0.05)
            return self.answer_of(len(CALLS))

        return [workloads.Op(key, call) for key in self.keys]

    def check(self, state, answer):
        return True


def test_timed_rounds_share_no_state(tmp_path):
    # one op per round: in a shared process the answers would be 1, 2, 3
    result = run.timed_run(Counting(3, ["op"], False, lambda n: n), 0, 0.03, tmp_path)
    assert result.tally.attempted == 3 and result.tally.failed == 0
    assert CALLS == []  # the parent never runs an operation
    assert result.same_setups
    note = next(n for n in result.notes if n.startswith("set-ups timed "))
    assert int(note.split()[2].rstrip(",")) > 3


def test_recomputed_answers_must_match(tmp_path):
    # the answer is the process id, so a recomputation in another process differs
    result = run.timed_run(Counting(1, ["a", "b"], True, lambda n: os.getpid()), 0, 0.12,
                           tmp_path)
    assert result.tally.attempted == 2 and result.tally.failed == 2


def bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_metrics_match_the_code():
    names = [m["name"] for m in bench()["per_layer"]]
    assert names == list(layers.MOVES)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-high", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
