#!/usr/bin/env python3
"""Benchmark of the dgme pipeline (synthetic clips -> flow -> descriptor -> head).

Run from the repository root:

    python3 perfbench/run.py --workload extract-96 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke --trace 1

Each run generates its inputs from ``--seed`` with the program's own commands
(the set-up, timed as ``setup_s``, median of several set-ups). With
``--trace 0`` the workload's command sequence (see ``workloads.py``) runs as
child ``python -m dgme.cli`` processes with ``PYTHONPATH=src``, one at a time,
repeated until ``--seconds`` have passed; the end-to-end metrics are medians
over the repetitions. With ``--trace 1`` the set-up and the sequence run once
more inside this process under ``tracer.Tracer`` (extract with one process),
once untraced as children and once untraced in-process, and the per-layer
metrics come from the spans. Every output is checked (``checks.py``); a
command that exits non-zero or whose outputs fail a check is a failed
operation. Earlier lines of standard output are a readable report and the
machine record; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "clips_per_s": "1/s", "pipeline_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "share"}


class Abort(Exception):
    """An operation failed; later commands of the run would have no inputs."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def single_process(args: list[str]) -> list[str]:
    """The same command line with ``--jobs 1``."""
    return [("1" if prev == "--jobs" else a) for prev, a in zip([""] + args, args)]


def pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    v = sorted(values)
    k = q * (len(v) - 1)
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


class Runner:
    """Runs operations (one CLI command each) and counts the failed ones."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.log = work / "commands.log"
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    def judge(self, op: wl.Op, rc: int, reference: wl.Op | None) -> None:
        self.attempted += 1
        if rc != 0:
            problems = [f"exit code {rc}"]
        else:
            problems = op.check()
            if reference is not None:
                problems += checks.same_bytes(reference.outputs, op.outputs)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"problem: {op.label}: {p}")
            raise Abort(op.label)

    def child(self, op: wl.Op, reference: wl.Op | None = None) -> tuple[float, float]:
        """Run ``op`` as ``python -m dgme.cli``; returns (wall s, peak RSS MB)."""
        with open(self.log, "ab") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "dgme.cli", *op.args], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=out,
                                    start_new_session=True)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                     os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                # wait4 gives this child's own rusage: the peak RSS of the command
                # and of the pool workers it waited for
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.judge(op, proc.returncode, reference)
        return wall, usage.ru_maxrss / 1024.0

    def in_process(self, cli, ops: list[wl.Op], tracer: Tracer | None = None,
                   references: list[wl.Op] | None = None) -> float:
        """Run ``ops`` through ``dgme.cli.main`` in this process, extract with one
        process; returns the summed command wall time."""
        wall = 0.0
        for i, op in enumerate(ops):
            sink = io.StringIO()
            start = time.perf_counter()
            with tracer.span(f"cli.{op.label}", "cli") if tracer else nullcontext(), \
                    redirect_stdout(sink), redirect_stderr(sink):
                rc = cli.main(single_process(op.args))
            wall += time.perf_counter() - start
            self.judge(op, rc, references[i] if references else None)
        return wall


def sequence_median(runs: list[list[float]]) -> float:
    """Wall time of a command sequence: the sum over its commands of each
    command's median over the runs, so that a burst of host load during one
    command of one run does not move the result."""
    return sum(statistics.median(command) for command in zip(*runs))


def untraced(w: wl.Workload, runner: Runner, seed: int, seconds: float, jobs: int,
             repeats: int) -> dict:
    setups = []
    for i in range(repeats):
        inputs = runner.work / f"setup{i}"
        setups.append([runner.child(op)[0] for op in wl.setup_ops(w, inputs, seed, jobs)])
        if i:
            shutil.rmtree(runner.work / f"setup{i - 1}")

    # repetitions fill at most ``seconds`` (the first always runs), so that a
    # run's length does not depend on how fast the host is
    walls, rss, first = [], [], None
    start = time.monotonic()
    while not walls or time.monotonic() - start + sum(walls[-1]) <= seconds:
        ops = wl.timed_ops(w, inputs, runner.work / f"rep{len(walls)}", seed, jobs)
        runs = [runner.child(op, ref) for op, ref in zip(ops, first or [None] * len(ops))]
        walls.append([r[0] for r in runs])
        rss.append(max(r[1] for r in runs))
        first = first or ops
    clips = sum(c.clips for c in w.corpora)
    pipeline_s = sequence_median(walls)
    values = {
        "setup_s": sequence_median(setups),
        "clips_per_s": clips / pipeline_s,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": max(rss),
        "success_rate": 1.0 - runner.failed / runner.attempted,
    }
    corpora = "; ".join(f"{c.name} {c.clips} clips x {c.frames} frames at {c.size} px, "
                        f"{c.domain}" for c in w.corpora)
    print(f"input: {corpora}; extract to {w.target} px, jobs {jobs}; "
          f"{len(walls)} repetitions of {len(first)} commands; {repeats} set-ups")
    print("set-up walls s: " + " ".join(f"{sum(t):.4f}" for t in setups))
    print("repetition walls s: " + " ".join(f"{sum(t):.4f}" for t in walls))
    for name, value in values.items():
        print(f"{name} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"error_rate {runner.failed / runner.attempted:.6g} share")
    for tag, f1 in quality(w, runner.work / "rep0").items():
        print(f"{tag} {f1:.6g} macro-F1")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def quality(w: wl.Workload, d: Path) -> dict:
    if not w.oversample:
        return {}
    return {name: checks.load_json(d / f"metrics_{tag}.json")["macro_f1"]
            for name, tag in (("macro_f1_dgme", "dgme"), ("macro_f1_fusion", "fusion"),
                              ("xdomain_macro_f1", "xdomain"))}


def traced(w: wl.Workload, runner: Runner, seed: int, jobs: int) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from dgme import cli

    work = runner.work
    setup = Tracer()
    with setup.installed():
        runner.in_process(cli, wl.setup_ops(w, work / "setup", seed, jobs), setup)
    inputs = work / "setup"

    reference = wl.timed_ops(w, inputs, work / "children", seed, jobs)
    wall_children = sum(runner.child(op)[0] for op in reference)
    wall_plain = runner.in_process(cli, wl.timed_ops(w, inputs, work / "plain", seed, jobs),
                                   references=reference)
    timed = Tracer()
    with timed.installed():
        wall_traced = runner.in_process(
            cli, wl.timed_ops(w, inputs, work / "traced", seed, jobs), timed, reference)

    metrics = layer_metrics(w, setup, timed, work, jobs, wall_children,
                            wall_plain, wall_traced)
    print(f"accounting: untraced wall {wall_children:.4f} s = layers "
          f"{wall_children - metrics['cli.glue_s'][0]:.4f} s + glue "
          f"{metrics['cli.glue_s'][0]:.4f} s; in-process {wall_plain:.4f} s plain, "
          f"{wall_traced:.4f} s traced")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(w, setup: Tracer, timed: Tracer, work: Path, jobs: int,
                  wall_children: float, wall_plain: float, wall_traced: float) -> dict:
    """Per-layer metrics: timed-part spans, or the set-up's when the timed part
    does not use that function (flow and loading on head-train, synth always)."""
    import numpy as np

    def phase(name):
        return timed if timed.by_name(name) else setup

    def ms(name):
        return phase(name).ms(name)

    def total(name):
        return sum(timed.ms(name), 0.0)

    m = {}
    loads = ms("videoio.load_clip")
    m["videoio.load_ms.p50"] = (pct(loads, 0.5), "ms")
    m["videoio.load_ms.p90"] = (pct(loads, 0.9), "ms")
    m["videoio.clips"] = (len(loads), "count")
    m["videoio.write_ms.p50"] = (pct(setup.ms("videoio.write_y8seq"), 0.5), "ms")
    m["synth.clip_ms.p50"] = (pct(setup.ms("synth.make_clip"), 0.5), "ms")
    m["synth.degrade_ms.p50"] = (pct(setup.ms("synth.degrade_clip"), 0.5), "ms")

    flow = phase("flow.farneback_flow")
    pairs = flow.by_name("flow.farneback_flow")
    pair_s = sum(s.seconds for s in pairs)
    clip_s = sum(s.seconds for s in flow.by_name("cli._extract_one"))
    m["flow.pair_ms.p50"] = (pct(ms("flow.farneback_flow"), 0.5), "ms")
    m["flow.pair_ms.p90"] = (pct(ms("flow.farneback_flow"), 0.9), "ms")
    m["flow.pairs"] = (len(pairs), "count")
    m["flow.mpix_per_s"] = (sum(s.pixels for s in pairs) / pair_s / 1e6, "Mpx/s")
    m["flow.polar_ms.p50"] = (pct(ms("flow.cart2polar"), 0.5), "ms")
    m["flow.share"] = (pair_s / clip_s, "share")

    m["descriptor.hist_ms.p50"] = (pct(ms("descriptor.descriptor_from_polar"), 0.5), "ms")
    m["descriptor.csv_write_ms"] = (total("descriptor.write_features_csv"), "ms")
    m["descriptor.csv_read_ms"] = (total("descriptor.read_features_csv"), "ms")
    m["descriptor.calib_ms"] = (total("descriptor.fit_stats")
                                + total("descriptor.apply_zscore"), "ms")
    table = work / ("setup/mod.csv" if w.oversample else "traced/features.csv")
    x = np.array(checks.feature_rows(table))
    m["descriptor.static_mass_share"] = (
        float((x[:, 12::13].sum(axis=1) / x.sum(axis=1)).mean()), "share")
    m["descriptor.dead_dims"] = (int((x.std(axis=0) < 1e-6).sum()), "count")

    # the per-clip work runs on ``jobs`` workers in the untraced extract, the
    # rest of the layer time in the parent process
    clip_layers = timed.under("cli._extract_one")
    layer_s = sum(timed.busy_seconds(layer) for layer in LAYERS if layer != "cli")
    per_clip = sum(s.seconds for s in timed.by_name("cli._extract_one"))
    m["cli.pool_efficiency"] = (per_clip / (jobs * wall_children) if per_clip else 0.0, "share")
    m["cli.glue_s"] = (wall_children - (layer_s - clip_layers) - clip_layers / jobs, "s")
    for layer in ("videoio", "flow", "descriptor", "model", "evaluation"):
        m[f"{layer}.busy_s"] = (timed.busy_seconds(layer), "s")

    for tag, name in (("dgme", "dgme_only"), ("fusion", "fusion")):
        spans = [s for s in timed.by_name("model.train")
                 if timed.spans[s.parent].name == f"cli.train_{tag}"]
        steps, epochs = (wl.train_steps(work / f"traced/log_{tag}.csv") if spans else (0, 0))
        m[f"model.step_ms.{name}"] = (1000.0 * spans[0].seconds / steps if spans else 0.0, "ms")
        m[f"model.epochs.{name}"] = (epochs, "count")
    embeds = timed.by_name("model.embed")
    requests = [r + e for r, e in zip(timed.ms("videoio.read_y8seq"), timed.ms("model.embed"))]
    m["model.embed_ms.p50"] = (pct(requests, 0.5), "ms")
    m["model.embed_requests"] = (len(embeds), "count")
    m["model.embed_dup_share"] = (
        1.0 - len({s.clip for s in embeds}) / len(embeds) if embeds else 0.0, "share")
    m["model.predict_ms"] = (total("model.predict"), "ms")
    m["evaluation.split_ms"] = (total("evaluation.stratified_split"), "ms")
    m["evaluation.oversample_ms"] = (total("evaluation.oversample"), "ms")
    m["evaluation.evaluate_ms"] = (total("evaluation.evaluate"), "ms")
    f1 = quality(w, work / "traced")
    for name in ("macro_f1_dgme", "macro_f1_fusion", "xdomain_macro_f1"):
        m[name] = (f1.get(name, 0.0), "macro-F1")
    m["trace.overhead_share"] = ((wall_traced - wall_plain) / wall_plain, "share")
    return m


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of all CPUs since boot; steal is time the
    hypervisor ran something else while a virtual CPU wanted to run."""
    with open("/proc/stat") as fh:
        ticks = [int(t) for t in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def machine(load_start: tuple, ticks_start: tuple[int, int]) -> dict:
    steal, total = (end - start for start, end in zip(ticks_start, cpu_ticks()))
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "threads": THREAD_ENV,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "steal_share": steal / total if total else 0.0,
    }


def run(w: wl.Workload, args) -> dict:
    work = ROOT / ".bench_work" / f"{w.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    jobs = w.jobs or nproc()
    load_start, ticks_start = os.getloadavg(), cpu_ticks()
    print(f"workload {w.name}")
    metrics = {}
    try:
        if args.trace:
            metrics = traced(w, runner, args.seed, jobs)
        else:
            metrics = untraced(w, runner, args.seed, args.seconds, jobs,
                               1 if args.smoke else SETUP_REPEATS)
    except Abort:
        tail = runner.log.read_text(errors="replace").strip().splitlines()[-3:]
        print("command output: " + " | ".join(tail))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("machine " + json.dumps(machine(load_start, ticks_start)))
    return {"correct": runner.failed == 0, "attempted": max(runner.attempted, 1),
            "failed": runner.failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the benchmark's own test")
    args = p.parse_args(argv)
    # a terminated run still kills and waits for its running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "dgme" / "cli.py").is_file():
        print(f"error: the dgme sources are missing: {SRC / 'dgme'}", file=sys.stderr)
        return 2
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        w = wl.WORKLOADS[name]
        results[name] = run(wl.smoke(w) if args.smoke else w, args)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
