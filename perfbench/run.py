#!/usr/bin/env python3
"""Benchmark of the lgmirror verifiers: time to verdict, set-up and memory.

    python3 perfbench/run.py --workload octic-cold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is taken from ./src.  Workloads
(see README.md for why each was chosen):

  octic-cold  bv theorem1, bvms and twist-iso on E1 x OCTIC, each verdict in
              its own cold CLI process
  frobenius   bv theorem2 on E2 x K3A with a nonproduct group and on E1 x K3A,
              in cold CLI processes
  k3-census   theorem1 and lgcy on a third of the invertible K3 samples, each
              paired with E1 or E2 as the seed picks, in one warm library
              process per pass

A run first times cold set-up processes (at least SETUP_MIN_REPEATS, and more
until SETUP_SECONDS have passed), then repeats passes over the workload's
verdicts while another pass still fits in --seconds.  Every child runs under
sampler.py, and its times are scaled to the sampler's reference host speed;
each verdict counts with its median over the run's repetitions.
Every verdict is checked exactly; a wrong exit code, pass flag or total, a
crash or a time-out is a failed operation.  With --trace 1 the run alternates
untraced and traced passes and reports per-layer metrics from tracer.py.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import models
from tracer import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 30
SETUP_SECONDS = 3.0
OP_LIMIT_S = 60.0  # per verdict; over it the operation fails
RUN_LIMIT_S = 150.0  # hard cap on one run: processes past it are killed

WORKLOADS = [*models.COLD, models.CENSUS]

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "verify_s": "s",
    "models_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SPAN_NAMES = list(dict.fromkeys(name for name, *_ in SPANS))
COUNTERS = [
    "symmetry.gmax_enumerated",
    "symmetry.dual_kept",
    "milnor.rings",
    "milnor.mu_total",
    "milnor.normal_form.calls",
    "statespace.sectors",
    "statespace.fixed_loci",
    "statespace.basis_dim",
    "chenruan.cr_classes",
]
CALL_COUNTS = {"frobenius.products": "frobenius.product", "frobenius.pairings": "frobenius.pairing"}
RATIOS = {  # name -> (numerator counter, denominator counter)
    "symmetry.dual_keep_ratio": ("symmetry.dual_kept", "symmetry.gmax_enumerated"),
    "statespace.basis_keep_ratio": ("statespace.basis_dim", "statespace.sector_mu"),
}


class Op:
    """One verdict: the verb it reports under, the verdict it repeats (key),
    wall and CPU seconds, the host speed the sampler saw while it ran, and why
    it failed (or None)."""

    __slots__ = ("label", "key", "wall", "cpu", "speed", "why")

    def __init__(self, label, key, wall, cpu, speed, why):
        self.label, self.key, self.wall, self.cpu = label, key, wall, cpu
        self.speed, self.why = speed, why

    @property
    def at_ref_speed(self) -> float:
        """Wall time scaled to the sampler's reference host speed."""
        return self.wall * self.speed


class Pass:
    """One pass over a workload's verdicts."""

    def __init__(self, models_built: int):
        self.ops: list = []
        self.models = models_built
        self.trace = {"spans": {}, "counts": {}}
        self.covered_s = 0.0  # verify time under root spans
        self.tracer_s = 0.0  # verify time the tracer spent in counter hooks and its summary

    @property
    def verify_s(self) -> float:
        return sum(op.wall for op in self.ops)

    @property
    def verify_ref_s(self) -> float:
        return sum(op.at_ref_speed for op in self.ops)

    def add_trace(self, summary: dict, speed: float, covered_s: float, tracer_s: float = 0.0):
        """Add one child's trace; self times are scaled to reference speed."""
        for name, row in summary["spans"].items():
            acc = self.trace["spans"].setdefault(name, [0, 0.0])
            acc[0] += row[0]
            acc[1] += row[1] * speed
        self.trace["bindings"] = summary["bindings"]
        for name, value in summary["counts"].items():
            self.trace["counts"][name] = self.trace["counts"].get(name, 0) + value
        self.covered_s += covered_s
        self.tracer_s += tracer_s


class Runner:
    """Starts child processes, each reaped with os.wait4 for its own usage."""

    def __init__(self):
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.peak_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p
        )

    def spawn(self, argv, limit_s):
        """Run argv to completion; returns (exit code, wall s, CPU s, RSS MB,
        stdout, stderr, timed out).  Kills it after limit_s."""
        limit_s = max(0.0, min(limit_s, self.deadline - time.perf_counter()))
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        streams = {}
        readers = [
            threading.Thread(target=lambda k=k, s=s: streams.__setitem__(k, s.read()))
            for k, s in (("out", proc.stdout), ("err", proc.stderr))
        ]
        for t in readers:
            t.start()
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(limit_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
        rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
        out = streams.get("out", b"").decode(errors="replace")
        err = streams.get("err", b"").decode(errors="replace")
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, rss_mb, out, err, killed.is_set()

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()


def last_json(text: str):
    lines = text.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_report(rc, report, expected):
    """Why a cold verdict is wrong, or None when it is right."""
    if not isinstance(report, dict):
        return f"exit {rc}, no JSON report"
    if rc != 0:
        return f"exit {rc}"
    if report.get("pass") is not True or report.get("mismatches"):
        return "pass flag false"
    wrong = {k: report.get(k) for k, v in expected.items() if report.get(k) != v}
    return f"unexpected {wrong}" if wrong else None


def cold_pass(runner: Runner, workload: str, traced: bool) -> Pass:
    result = Pass(len({(w1, w2, g) for _, _, w1, w2, g, _ in models.COLD[workload]}))
    for label, verb, w1, w2, gens, expected in models.COLD[workload]:
        cli = ["bv", verb, "--w1", w1, "--w2", w2, "--json"] + (["--gens", gens] if gens else [])
        argv = [sys.executable, CHILD, "traced-cli" if traced else "cli", *cli]
        rc, wall, cpu, rss, out, err, timed_out = runner.spawn(argv, OP_LIMIT_S)
        payload = last_json(out) or {}
        report, speed = None, payload.get("speed", 1.0)
        if rc == 0 and payload:
            rc, report = payload["rc"], last_json(payload["stdout"])
        if traced and "trace" in payload:
            trace = payload["trace"]
            result.add_trace(trace, speed, trace["covered_s"], trace["hook_s"] + trace["teardown_s"])
        why = "time limit" if timed_out else check_report(rc, report, expected)
        if why and err.strip():
            why += ": " + err.strip().splitlines()[-1]
        result.ops.append(Op(label, label, wall, cpu, speed, why))
    return result


def census_pass(runner: Runner, seed: int, traced: bool) -> Pass:
    argv = [sys.executable, CHILD, "census", str(seed), "1" if traced else "0"]
    rc, wall, cpu, rss, out, err, timed_out = runner.spawn(argv, runner.remaining())
    payload = last_json(out)
    if rc != 0 or payload is None:
        result = Pass(0)
        why = "time limit" if timed_out else f"census exit {rc}: {err.strip()[-300:]}"
        result.ops.append(Op("census", "census", wall, cpu, 1.0, why))
        return result
    labels = {label for label, *_ in payload["ops"]}
    result = Pass(len(labels))
    fjrw = {}
    for label, verb, *_, report in payload["ops"]:
        if verb == "theorem1":
            fjrw[label] = report.get("lhs_total")
    for label, verb, op_wall, op_cpu, speed, report in payload["ops"]:
        why = None
        if report.get("pass") is not True or report.get("mismatches"):
            why = "pass flag false"
        elif verb == "theorem1" and report["lhs_total"] != report["rhs_total"]:
            why = "theorem1 totals differ"
        elif verb == "lgcy" and not report["cr_total"] == report["fjrw_total"] == fjrw[label]:
            why = "lgcy fjrw_total differs from theorem1 lhs_total"
        elif op_wall > OP_LIMIT_S:
            why = "time limit"
        why = why and f"{label}: {why}"
        result.ops.append(Op(verb, f"{label} {verb}", op_wall, op_cpu, speed, why))
    if traced:
        trace = payload["trace"]
        result.add_trace(trace, payload["speed"], trace["covered_s"], trace["hook_s"])
    return result


def measure(runner: Runner, seconds: float, one_pass):
    """Repeat one_pass while another pass of the same length fits in seconds."""
    start = time.perf_counter()
    passes = []
    while True:
        t = time.perf_counter()
        passes.append(one_pass())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds or took > runner.remaining():
            return passes


def median_by_label(passes):
    """label -> medians of (time at reference speed, wall, CPU, speed): each
    verdict's median over its repetitions, summed (speed: averaged) over the
    verdicts reported under that label."""
    reps = {}
    for p in passes:
        for op in p.ops:
            reps.setdefault(op.key, (op.label, []))[1].append(
                (op.at_ref_speed, op.wall, op.cpu, op.speed)
            )
    out = {}
    for label, rows in reps.values():
        medians = [statistics.median(column) for column in zip(*rows)]
        acc = out.setdefault(label, [0.0, 0.0, 0.0, 0.0, 0])
        for k in range(4):
            acc[k] += medians[k]
        acc[4] += 1
    return {label: (*acc[:3], acc[3] / acc[4]) for label, acc in out.items()}


def end_to_end(passes, setups, peak_rss_mb):
    """setups: [(wall, speed)] of the set-up processes."""
    per_label = median_by_label(passes)
    verify_s = sum(ref for ref, *_ in per_label.values())
    values = {
        "setup_s": statistics.median(wall * speed for wall, speed in setups),
        "verify_s": verify_s,
        "models_per_s": passes[0].models / verify_s,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"  {label}_s {ref:.4f} s at reference speed (wall {wall:.4f} s, cpu {cpu:.4f} s, "
        f"speed {speed:.3f})"
        for label, (ref, wall, cpu, speed) in per_label.items()
    ]
    lines.append("  passes " + " ".join(f"{p.verify_ref_s:.3f}" for p in passes)
                 + " s at reference speed, wall " + " ".join(f"{p.verify_s:.3f}" for p in passes))
    lines.append(f"  setup runs {len(setups)}: wall "
                 + " ".join(f"{w:.3f}" for w, _ in setups)
                 + " s, speed " + " ".join(f"{s:.3f}" for _, s in setups))
    return values, lines


def per_layer(untraced, traced):
    first = traced[0].trace
    values = {}
    units = {}
    for name in SPAN_NAMES:
        values[f"{name}.s"] = statistics.median(
            p.trace["spans"].get(name, [0, 0.0])[1] for p in traced
        )
        units[f"{name}.s"] = "s"
    counts = dict(first["counts"])
    for metric, span in CALL_COUNTS.items():
        counts[metric] = first["spans"].get(span, [0])[0]
    for name in COUNTERS + list(CALL_COUNTS):
        values[name] = counts.get(name, 0)
        units[name] = "count"
    for name, (num, den) in RATIOS.items():
        values[name] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        units[name] = "ratio"
    values["trace.coverage"] = statistics.median(
        p.covered_s / (p.verify_s - p.tracer_s) for p in traced
    )
    values["trace.overhead"] = statistics.median(
        p.verify_ref_s for p in traced
    ) / statistics.median(p.verify_ref_s for p in untraced)
    units["trace.coverage"] = units["trace.overhead"] = "ratio"
    return values, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through Runner.spawn, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "lgmirror", "cli.py")):
        print(f"lgmirror sources not found under {SRC}", file=sys.stderr)
        return 2

    runner = Runner()
    setups = []
    while not args.trace and len(setups) < SETUP_MAX_REPEATS and (
        len(setups) < SETUP_MIN_REPEATS or sum(w for w, _ in setups) < SETUP_SECONDS
    ):
        rc, wall, _, _, out, err, _ = runner.spawn(
            [sys.executable, CHILD, "setup", args.workload, str(args.seed)], OP_LIMIT_S
        )
        payload = last_json(out)
        if rc != 0 or payload is None:
            print(f"set-up failed with exit {rc}:\n{err}", file=sys.stderr)
            return 1
        setups.append((wall, payload["speed"]))

    if args.workload == models.CENSUS:
        def one_pass(traced):
            return census_pass(runner, args.seed, traced)
    else:
        def one_pass(traced):
            return cold_pass(runner, args.workload, traced)

    if args.trace:
        pairs = measure(runner, args.seconds, lambda: (one_pass(False), one_pass(True)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        passes = untraced + traced
    else:
        passes = measure(runner, args.seconds, lambda: one_pass(False))

    ops = [op for p in passes for op in p.ops]
    failures = [op for op in ops if op.why]
    for op in failures[:10]:
        print(f"FAILED {op.label}: {op.why}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {len(ops)} verdicts, "
          f"{len(failures)} failed")

    if args.trace:
        values, units = per_layer(untraced, traced)
        bindings = traced[0].trace.get("bindings", {})
        print("  wrapped (namespaces): " + ", ".join(f"{k} {n}" for k, n in bindings.items()))
    else:
        values, lines = end_to_end(passes, setups, runner.peak_rss_mb)
        units = END_TO_END
        print("\n".join(lines))
    for name, value in values.items():
        print(f"  {name} {value} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
