#!/usr/bin/env python3
"""Benchmark of the newsciv pipeline: run one workload, check it, print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload classify-10x --seed 1 --seconds 58 --trace 0

The load is closed-loop with one client. A run starts CHILDREN fresh child
Python processes (perfbench/child.py) back to back, each with an equal share
of --seconds. A child imports newsciv from ./src and builds the workload's
seeded synthetic corpus (set-up), then runs timed passes over the workload's
steps until its share is used, and checks the outputs. The child's
BLAS/OpenMP thread count is capped at the number of usable cores through its
environment.

The host's speed drifts by tens of percent over seconds to minutes, so the
child times a fixed calibration loop between steps. Each step's time is
scaled to a reference speed, the one at which that loop takes CAL_REF_S:
``time * CAL_REF_S / calibration``. The gated ``*_ref_*`` metrics are
medians of those scaled times over every pass of the run; the raw wall and
CPU times are printed beside them.

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced children alternate; the metrics are the
per-layer metrics of BENCHMARK.json from the traced child's one pass, and
the tracing overhead is its scaled wall time minus the untraced median.

stdout holds a table of every metric with its unit and its spread between
passes, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The full report, including machine facts and per-pass figures, goes to
.perfbench/<workload>-seed<seed>-trace<0|1>/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("classify-10x", "subtext-1x", "library-3x")
CHILDREN = 3               # set-ups per run; setup_s is their median
CAL_REF_S = 0.015          # the calibration loop's time at the reference speed
RUN_LIMIT_S = 170.0        # a run must end within 180 s, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Figures printed with the end-to-end metrics but not gated by BENCHMARK.json,
# because they drift with the host's speed, exist on one workload only or can
# be 0: name -> unit.
REPORTED = {
    "error_rate": "ratio",
    "wall_s": "s",
    "cpu_s": "s",
    "comments_per_s": "1/s",
    "cal_ms": "ms",
    "token_sweeps_per_s": "1/s",
    "score_call_p50_us": "us",
    "score_call_p99_us": "us",
    "article_call_p50_ms": "ms",
    "article_call_p99_ms": "ms",
    "aspect_auc_min": "AUC",
    "provoking_auc": "AUC",
}


class BenchError(RuntimeError):
    """A child could not produce a result (crash, timeout, bad set-up)."""


def _child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in THREAD_VARS:
        env[var] = str(nproc)
    return env


def _pass_figures(pass_: dict, n_comments: int) -> dict:
    """Raw and reference-scaled totals of one pass."""
    steps = pass_["steps"]
    fig = {
        "wall_s": sum(s["wall_s"] for s in steps),
        "cpu_s": sum(s["cpu_s"] for s in steps),
        "wall_ref_s": sum(s["wall_s"] * CAL_REF_S / s["cal_s"] for s in steps),
        "cpu_ref_s": sum(s["cpu_s"] * CAL_REF_S / s["cal_s"] for s in steps),
        "cal_ms": statistics.median(s["cal_s"] for s in steps) * 1e3,
    }
    fig["comments_per_s"] = n_comments / fig["wall_s"]
    fig["comments_per_ref_s"] = n_comments / fig["wall_ref_s"]
    for s in steps:
        fig[f"step.{s['step']}_ref_s"] = s["wall_s"] * CAL_REF_S / s["cal_s"]
    return fig


def _run_child(args, index: int, traced: bool, pass_deadline: float, out_dir: Path,
               env: dict, limit: float) -> dict:
    result_path = out_dir / f"child{index}.json"
    log_path = out_dir / f"child{index}.log"
    cmd = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--pass-deadline", repr(pass_deadline),
           "--work", str(out_dir / f"work{index}"), "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(out_dir / "spans.json")]
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=log)
        try:
            code = proc.wait(timeout=max(1.0, limit - start))
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {index} exceeded the {RUN_LIMIT_S:.0f} s run limit")
        finally:
            if proc.poll() is None:  # timed out or interrupted: leave no child behind
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.is_file():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"child {index} exited with code {code}:\n{tail}")
    child = json.loads(result_path.read_text(encoding="utf-8"))
    child["traced"] = traced
    child["setup_s"] = child["setup_end"] - start
    child["start_import_s"] = child["import_end"] - start
    child["duration_s"] = time.monotonic() - start
    child["figures"] = [_pass_figures(p, child["n_comments"]) for p in child["passes"]]
    extra = child["extra"]
    if "token_sweeps" in extra:
        wall = statistics.median(f["wall_s"] for f in child["figures"])
        extra["token_sweeps_per_s"] = extra["token_sweeps"] / wall
    return child


def _spread(values: list[float]) -> float:
    """(max - min) / median over the passes or children of one run."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / abs(mid) if mid else 0.0


def _summary(values: list) -> dict | None:
    values = [v for v in values if v is not None]
    if not values:
        return None
    return {"value": statistics.median(values), "n": len(values), "spread": _spread(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "newsciv" / "__init__.py").is_file():
        print(f"error: no newsciv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(
        args.workload, "not gated by BENCHMARK.json (see perfbench/README.md)")

    out_dir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    env = _child_env(nproc)

    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    children: list[dict] = []
    try:
        for index in range(CHILDREN):
            traced = bool(args.trace) and index % 2 == 1
            pass_deadline = start + args.seconds * (index + 1) / CHILDREN
            children.append(_run_child(args, index, traced, pass_deadline, out_dir, env, limit))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    failures = [m for c in children for m in c["failures"]]
    hashes = [c["extra"].get("subtext_sha256") for c in children]
    if hashes[0] is not None:
        rerun_diffs = sum(1 for h in hashes[1:] if h != hashes[0])
        if rerun_diffs:
            failed += rerun_diffs
            failures.append(f"mine-subtext: {rerun_diffs} reruns of seed {args.seed} "
                            "wrote a different subtext.json")
    failed = min(failed, attempted)

    untraced = [c for c in children if not c["traced"]]
    traced_children = [c for c in children if c["traced"]]
    passes = [f for c in untraced for f in c["figures"]]
    figures: dict[str, dict] = {}
    if args.trace:
        wall_plain = statistics.median(f["wall_ref_s"] for f in passes)
        overhead = statistics.median(
            f["wall_ref_s"] for c in traced_children for f in c["figures"]) - wall_plain
        in_run = {"trace.overhead_s": overhead, "trace.overhead_ratio": overhead / wall_plain}
        for m in wanted:
            name = m["name"]
            if name in in_run:
                figures[name] = {"value": in_run[name], "n": len(children), "spread": 0.0}
            else:
                figures[name] = _summary([c["layers"].get(name) for c in traced_children])
    else:
        per_child = {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
        for m in wanted:
            name = m["name"]
            if name in per_child:
                figures[name] = _summary([c[per_child[name]] for c in untraced])
            else:
                figures[name] = _summary([f.get(name) for f in passes])
    missing = [m["name"] for m in wanted if figures.get(m["name"]) is None]
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 1

    reported = {}
    steps = {}
    if not args.trace:
        reported["error_rate"] = {"value": failed / attempted, "n": len(children),
                                  "spread": 0.0}
        for name in REPORTED:
            if name not in reported:
                values = ([f[name] for f in passes] if name in passes[0]
                          else [c["extra"].get(name) for c in untraced])
                summary = _summary(values)
                if summary is not None:
                    reported[name] = summary
        for key in passes[0]:
            if key.startswith("step."):
                steps[key] = _summary([f.get(key) for f in passes])

    machine = dict(children[0]["machine"], cal_ref_s=CAL_REF_S)
    bounds = {m["name"]: m.get("bound") for m in wanted}
    units = {m["name"]: m["unit"] for m in wanted}
    print(f"# newsciv benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  children={len(children)} ({len(untraced)} untraced, "
          f"{len(traced_children)} traced)  passes={sum(len(c['passes']) for c in children)}  "
          f"seconds={args.seconds}")
    print(f"# why: {why}")
    print("# load: closed loop, one client, one fresh child process at a time")
    print(f"# machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} scipy={machine['scipy']} thread cap: "
          + " ".join(f"{k}={v}" for k, v in sorted(machine["thread_cap"].items())))
    print(f"# *_ref_* figures are scaled to the speed at which the calibration loop "
          f"takes {CAL_REF_S * 1e3:g} ms")
    print(f"# {'metric':<32} {'value':>16} {'unit':<6} spread (max-min)/median in the run")
    rows = list(figures.items()) + list(reported.items()) + list(steps.items())
    for name, fig in rows:
        unit = units.get(name) or REPORTED.get(name, "s")
        bound = bounds.get(name)
        if bound is not None:
            note = f"  bound {bound:.0%}"
        elif name in units:
            note = ""
        else:
            note = "  (reported, not gated)"
        print(f"  {name:<32} {fig['value']:>16.6g} {unit:<6} "
              f"{fig['spread']:6.1%} (n={fig['n']}){note}")
    for message in failures[:10]:
        print(f"# FAILED {message}")
    if args.trace:
        print(f"# tracing overhead: {figures['trace.overhead_s']['value']:+.3f} s scaled wall "
              f"({figures['trace.overhead_ratio']['value']:+.1%}); spans in "
              f"{(out_dir / 'spans.json').relative_to(ROOT)}")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "why": why, "machine": machine,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": figures, "reported": reported, "steps": steps,
        "missing_boundaries":
            traced_children[0]["missing_boundaries"] if traced_children else [],
        "children": [{k: c[k] for k in ("traced", "setup_s", "start_import_s", "peak_rss_mb",
                                        "duration_s", "extra", "passes", "figures")}
                     for c in children],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
