"""Benchmark for vanar: one workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``. BLAS
and OpenMP are pinned to one thread before numpy loads.

``--trace 0`` runs the workload in rounds until about ``--seconds`` have
passed and prints the end-to-end metrics. Each round is a process forked
from this one, which never runs workload code itself: the round sets the
workload up, runs operations in a closed loop with one caller for its share
of the window, and reports back. So no state of one round survives into
the next, and a memo in the library cannot pose as a speed-up. ``setup_s``
is the median of every timed set-up: one per round, and for workloads with
``setup_every``, one in a fresh process at that interval while a round runs.
Operation times are reported in reference milliseconds, scaled by the
machine speed a probe measures while they run (see ``speed.py``); their
wall times are printed as notes.
``--trace 1`` sets up once in this process, runs one pass of the operations
untraced and one traced, prints the per-layer metrics and writes every span
to ``.perfbench_out/``. Every answer is checked; the ``failed`` count covers
operations that raised or whose answer failed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import select
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
P99_MIN_SAMPLES = 1000  # leaves at least ten samples above the 99th percentile
MAX_ERRORS = 5


def import_library():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vanar

    if not Path(vanar.__file__).resolve().is_relative_to(src):
        raise ImportError(f"vanar imported from {vanar.__file__}, not from {src}")


def header(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _call(op, errors):
    """Run one operation; returns (start, end, result or None if it raised)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # the benchmark reports a failed operation and goes on
        errors.append(traceback.format_exc())
        result = None
    return start, time.perf_counter(), result


def _checked(workload, state, op, result, errors):
    """(passed its own check, answer or None)."""
    if result is None:
        return False, None
    try:
        answer = op.answer(result)
        ok = workload.check(state, answer)
    except Exception:
        errors.append(traceback.format_exc())
        return False, None
    if not ok:
        errors.append(f"answer for {op.key!r} failed its check")
    return ok, answer


class Tally:
    """Attempted/failed counts. Answers of ops with the same key must be
    identical: the first answer per key is the reference."""

    def __init__(self):
        self.references: dict = {}
        self.attempted = 0
        self.bad: set[int] = set()
        self.errors: list[str] = []

    def record(self, key, ok: bool, answer=None) -> None:
        serial, self.attempted = self.attempted, self.attempted + 1
        if not ok:
            self.bad.add(serial)
        if answer is not None:
            self.compare(key, answer, serial)

    def compare(self, key, answer, serial=None) -> None:
        """``serial`` is None for a recomputation after the window: a
        mismatch then fails the op that gave the reference."""
        if key not in self.references:
            self.references[key] = (serial, answer)
            return
        first, reference = self.references[key]
        if not _same(answer, reference):
            self.bad.add(first if serial is None else serial)
            self.errors.append(f"answer for {key!r} differs from the first one")

    @property
    def failed(self) -> int:
        return len(self.bad)


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


@dataclass
class Result:
    metrics: dict
    tally: Tally
    same_setups: bool
    notes: list
    tracer: object = None


class Child:
    """``fn(*args)`` in a forked process; ``result()`` waits for its return value.

    The child starts from this process's state and its own changes die with
    it. It leaves by ``os._exit``, so none of the parent's clean-up runs.
    Forking is safe here because the benchmark starts no threads and BLAS
    is pinned to one.
    """

    def __init__(self, fn, *args):
        read, write = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(read)
                try:
                    payload = (True, fn(*args))
                except Exception:  # reported to the parent, which raises it
                    payload = (False, traceback.format_exc())
                with os.fdopen(write, "wb") as f:
                    pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        os.close(write)
        self.pipe = os.fdopen(read, "rb")

    def ready(self, timeout: float) -> bool:
        return bool(select.select([self.pipe], [], [], timeout)[0])

    def result(self):
        try:
            data = self.pipe.read()
            os.waitpid(self.pid, 0)
            self.pid = 0
        finally:
            self.close()
        if not data:
            raise RuntimeError("a child process died without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise RuntimeError(f"a child process raised:\n{value}")
        return value

    def close(self) -> None:
        """Stop the child if it still runs, and wait for it."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self.pipe.close()


def _timed_setup(workload, seed, scratch):
    """(start, end, state) of one set-up."""
    start = time.perf_counter()
    state = workload.setup(seed, scratch)
    return start, time.perf_counter(), state


def _print(fingerprint) -> str:
    data = fingerprint if isinstance(fingerprint, bytes) else str(fingerprint).encode()
    return hashlib.sha1(data).hexdigest()


def _setup_sample(workload, seed, scratch):
    """Reference seconds of one set-up, and a fingerprint of its state."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        start, end, state = _timed_setup(workload, seed, scratch)
    finally:
        probe.stop()
    return float(probe.reference_times([start], [end])[0]), _print(workload.fingerprint(state))


def _round(workload, seed, scratch, first_op, budget):
    """One round, run in a fresh process: set up, then run operations from
    ``first_op`` on until the round's ``budget`` seconds would be passed."""
    import numpy as np
    from speed import SpeedProbe

    start = time.perf_counter()
    errors, starts, ends, records = [], [], [], []
    n, busy = first_op, 0.0
    probe = SpeedProbe()
    probe.start()
    try:
        setup_start, setup_end, state = _timed_setup(workload, seed, scratch)
        ops = workload.ops(state)
        while True:
            op = ops[n % len(ops)]
            n += 1
            op_start, op_end, result = _call(op, errors)
            starts.append(op_start)
            ends.append(op_end)
            busy += op_end - op_start
            ok, answer = _checked(workload, state, op, result, errors)
            records.append((op.key, ok, answer if op.verify else None))
            if time.perf_counter() - start + busy / len(starts) > budget:
                break
    finally:
        probe.stop()
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_s = float(probe.reference_times([setup_start], [setup_end])[0])
    return {"setup_s": setup_s, "print": _print(workload.fingerprint(state)),
            "times": list(np.subtract(ends, starts)),
            "ref_times": list(probe.reference_times(starts, ends)),
            "probe_s": probe.seconds, "records": records, "errors": errors[:MAX_ERRORS],
            "kind_times": state.get("kind_times", {}), "next_op": n, "rss_kb": usage}


def _recompute(workload, seed, scratch, keys):
    """Answers of the ops with these keys, in a fresh process after the window."""
    state = workload.setup(seed, scratch)
    ops = {op.key: op for op in workload.ops(state)}
    errors, answers = [], []
    for key in keys:
        *_, result = _call(ops[key], errors)
        answers.append(_checked(workload, state, ops[key], result, errors)[1])
    return answers, errors[:MAX_ERRORS]


def _tail(times):
    """The 99th percentile with at least ``P99_MIN_SAMPLES`` samples, else the largest."""
    import numpy as np

    return float(np.percentile(times, 99) if len(times) >= P99_MIN_SAMPLES else np.max(times))


def timed_run(workload, seed: int, seconds: float, scratch: Path):
    import numpy as np

    tally = Tally()
    setup_times, prints = [], set()
    times, ref_times, probe_s, kind_times, rss_kb = [], [], [], {}, 0
    budget = seconds / workload.rounds
    rounds, next_op, start = 0, 0, time.perf_counter()
    while rounds < workload.rounds or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
        child = Child(_round, workload, seed, scratch, next_op, budget)
        try:
            while workload.setup_every and not child.ready(workload.setup_every):
                sample_s, sample_print = Child(_setup_sample, workload, seed, scratch).result()
                setup_times.append(sample_s)
                prints.add(sample_print)
            out = child.result()
        finally:
            child.close()
        rounds += 1
        next_op = out["next_op"]
        setup_times.append(out["setup_s"])
        prints.add(out["print"])
        times += out["times"]
        ref_times += out["ref_times"]
        probe_s += out["probe_s"]
        rss_kb = max(rss_kb, out["rss_kb"])
        tally.errors += out["errors"]
        for key, ok, answer in out["records"]:
            tally.record(key, ok, answer)
        for kind, ts in out["kind_times"].items():
            kind_times.setdefault(kind, []).extend(ts)
    elapsed = time.perf_counter() - start

    if workload.verify_after:
        keys = [key for key, (serial, _) in tally.references.items() if serial is not None]
        answers, errors = Child(_recompute, workload, seed, scratch, keys).result()
        tally.errors += errors
        for key, answer in zip(keys, answers):
            tally.compare(key, answer)

    lat, ref = np.array(times), np.array(ref_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ref_ms": float(np.median(ref)) * 1e3,
        "op_p99_ref_ms": _tail(ref) * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    probe_ms = np.array(probe_s) * 1e3
    notes = [f"ops {len(lat)} in {rounds} rounds, {elapsed:.3f} s, "
             f"{len(lat) / lat.sum():.6g} per busy second; wall time p10 "
             f"{np.percentile(lat, 10) * 1e3:.6g} ms, p50 {np.median(lat) * 1e3:.6g} ms, "
             f"p99 {_tail(lat) * 1e3:.6g} ms",
             f"speed probes {len(probe_ms)}, kernel p10 {np.percentile(probe_ms, 10):.4f} ms, "
             f"p50 {np.median(probe_ms):.4f} ms, p90 {np.percentile(probe_ms, 90):.4f} ms",
             f"set-ups timed {len(setup_times)}, min {min(setup_times):.6g} s, "
             f"max {max(setup_times):.6g} s",
             f"failed_ratio {tally.failed / tally.attempted:.6g}"]
    for kind, ts in kind_times.items():
        k = np.array(ts)
        p99 = f"{np.percentile(k, 99) * 1e3:.4f} ms" if len(k) >= P99_MIN_SAMPLES else "n/a"
        notes.append(f"kind {kind}: n {len(k)} p50 {np.median(k) * 1e3:.4f} ms p99 {p99}")
    return Result(metrics, tally, len(prints) == 1, notes)


def trace_run(workload, seed: int, scratch: Path):
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("setup"):
            state = workload.setup(seed, scratch)
    finally:
        tracer.uninstall()
    ops = workload.ops(state)[:workload.trace_ops]
    tally = Tally()
    kind_times = state.get("kind_times", {})

    untraced = 0.0
    for op in ops:
        op_start, op_end, result = _call(op, tally.errors)
        untraced += op_end - op_start
        tally.record(op.key, *_checked(workload, state, op, result, tally.errors))
    kind_p50 = {kind: statistics.median(ts) * 1e3 if ts else 0.0 for kind, ts in kind_times.items()}

    traced, results = 0.0, []
    layers.install(tracer)
    try:
        for n, op in enumerate(ops):
            tracer.op_id = n
            start = time.perf_counter()
            with tracer.span("op"):
                *_, result = _call(op, tally.errors)
            traced += time.perf_counter() - start
            results.append(result)
    finally:
        tracer.uninstall()
    for op, result in zip(ops, results):
        tally.record(op.key, *_checked(workload, state, op, result, tally.errors))

    metrics = layers.layer_metrics(tracer)
    for kind in layers.SERVE_KINDS:
        metrics[f"serve.{kind}_p50_ms"] = kind_p50.get(kind, 0.0)
    metrics.update({
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    tracer.write_jsonl(path, header(workload.name, seed))
    notes = [f"ops {len(ops)} per pass; spans written to {path.relative_to(ROOT)}"]
    if tracer.missing:
        notes.append("not traced (not found): " + ", ".join(tracer.missing))
    notes += [f"{name} moves {moves} on {where}" for name, (moves, where) in layers.MOVES.items()]
    return Result(metrics, tally, True, notes, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import_library()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    scratch = OUT / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = trace_run(workload, args.seed, scratch)
        else:
            result = timed_run(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics, tally = result.metrics, result.tally
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    for err in tally.errors[:MAX_ERRORS]:
        print(err, file=sys.stderr)
    print("# " + json.dumps(header(workload.name, args.seed)))
    for note in result.notes:
        print("# " + note)
    for m in declared:
        print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0 and result.same_setups,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
