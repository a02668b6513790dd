"""End-to-end benchmark of the ``python -m repro`` CLI, with a traced layer split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload melt-kk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1   # every workload, every metric

Each workload (``workloads.json``) is generated from ``--seed`` and run
through the real CLI with ``-k on -sf kk``, one fresh child process per run,
one run at a time, until ``--seconds`` have passed (at least
``MIN_CHILDREN`` runs).  Every run is checked: zero exit, finite thermo, the
atom count kept, NVE total-energy drift within the workload's tolerance,
net charge zero where stated, and thermo rows bitwise equal across runs of
the same seed.  A failed run is counted, its exception text printed, and the
benchmark goes on.

``--trace 0`` reports the end-to-end metrics (medians over the runs):
``atom_steps_per_s`` (atoms x timed steps / loop wall, first timestep to
return of the run), ``setup_s`` (child start to first timestep) and
``peak_rss_mb``.  ``--trace 1`` adds one traced run whose layer entry points
are wrapped from outside (``tracer.py``) and reports per-layer metrics per
timestep; its thermo rows must equal the untraced runs' bitwise.  Its layer
self times plus ``integrate.unattributed_frac`` add up to the loop wall by
construction; what is checked is that every layer the workload stresses is
charged some time.

``eam-kk`` is listed in ``workloads.json`` but kept out of
``BENCHMARK.json`` while every run of it fails (a ``DualViewModifyError`` at
the first rebuild whose atom sort permutes atoms); ``--workload eam-kk`` or
``all`` runs it with its inputs unchanged and reports the failures.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``fail_frac`` is
``failed / attempted`` and is printed above it with the failure texts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import host  # noqa: E402
from inputs import make_inputs  # noqa: E402

WORKLOADS = json.loads((HERE / "workloads.json").read_text())
CLI_FLAGS = ["-k", "on", "-sf", "kk"]
MIN_CHILDREN = 3
MAX_CHILDREN = 12
#: wall budget of one invocation; no child starts that could overrun it
BUDGET_S = 170.0
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "atom_steps_per_s": "atom-steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: layer self time (s/step) metric -> tracer layer
SELF_TIME_METRICS = {
    "potentials.pair_s": "potentials.pair",
    "neighbor.build_s": "neighbor.build",
    "neighbor.bin_s": "neighbor.bin",
    "neighbor.sort_s": "neighbor.sort",
    "neighbor.bond_list_s": "neighbor.bond_list",
    "comm_md.exchange_s": "comm_md.exchange",
    "comm_md.borders_s": "comm_md.borders",
    "comm_md.forward_s": "comm_md.forward",
    "comm_md.fields_s": "comm_md.fields",
    "comm_md.reverse_s": "comm_md.reverse",
    "reaxff.bond_order_s": "reaxff.bond_order",
    "reaxff.qeq_matrix_s": "reaxff.qeq_matrix",
    "reaxff.qeq_solve_s": "reaxff.qeq_solve",
    "reaxff.nonbonded_s": "reaxff.nonbonded",
    "reaxff.bonded_s": "reaxff.bonded",
    "snap.ui_s": "snap.ui",
    "snap.yi_s": "snap.yi",
    "snap.bispectrum_s": "snap.bispectrum",
    "snap.deidrj_s": "snap.deidrj",
    "modify.s": "modify",
    "thermo.s": "thermo",
    "kokkos.s": "kokkos",
}

PER_LAYER = {
    "integrate.step_ms_p50": "ms",
    "integrate.step_ms_tail": "ms",
    "integrate.step_tail_pct": "%",
    "integrate.unattributed_frac": "frac",
    **{name: "s/step" for name in SELF_TIME_METRICS},
    "potentials.ns_per_pair": "ns",
    "neighbor.builds": "count",
    "neighbor.pairs": "count",
    "neighbor.mean_neighbors": "count",
    "neighbor.useful_frac": "frac",
    "comm_md.calls": "count/step",
    "parallel.messages": "count/step",
    "parallel.bytes": "B/step",
    "reaxff.qeq_iters": "count/solve",
    "reaxff.qeq_spmv_bytes": "B/solve",
    "kokkos.dispatches": "count/step",
    "kokkos.syncs": "count/step",
    "hardware.device_s": "model_s/step",
    "hardware.comm_s": "model_s/step",
    "trace.overhead_frac": "frac",
}


# ------------------------------------------------------------------ children
def run_child(spec: dict, workdir: Path, tag: str, deadline: float) -> dict:
    """Run one child to completion; return its result plus exit and rusage."""
    spec_path = workdir / f"{tag}.spec.json"
    spec = {**spec, "src": str(SRC), "out": str(workdir / f"{tag}.out.json")}
    spec_path.write_text(json.dumps(spec))
    env = {**os.environ, **host.THREAD_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    with open(workdir / f"{tag}.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=workdir, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        timed_out = False
        try:
            # wait4, not wait: the child's own rusage gives its peak RSS
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    timed_out = True
                    proc.kill()
                    _, status, rusage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = Path(spec["out"])
    result = json.loads(out.read_text()) if out.is_file() else {}
    if timed_out:
        result["error"] = f"timeout after {deadline - t0:.0f} s"
    result["exit_code"] = proc.returncode
    result["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
    if result.get("t_first_mono") is not None:
        result["setup_s"] = result["t_first_mono"] - t0
    return result


def check(result: dict, workload: dict, natoms: int, steps: int) -> list[str]:
    """Failure reasons for one run (empty when the run is correct)."""
    if result.get("error") or result["exit_code"] != 0:
        err = (result.get("error") or "").strip().splitlines()
        return [f"exit {result['exit_code']}: " + (err[-1] if err else "no result")]
    if "loop_s" not in result:
        return ["no timed loop recorded"]
    reasons = []
    rows = result["thermo"]
    etot = [float.fromhex(v["etotal"]) for _, v in rows]
    if not all(math.isfinite(float.fromhex(x)) for _, v in rows for x in v.values()):
        reasons.append("non-finite thermo")
    expected_rows = steps // workload["generator"]["thermo"] + 1
    if len(rows) != expected_rows:
        reasons.append(f"{len(rows)} thermo rows, expected {expected_rows}")
    if result["natoms"] != natoms:
        reasons.append(f"atom count {result['natoms']} != {natoms}")
    drift = result["drift"] = max(abs(e - etot[0]) for e in etot) / natoms if etot else math.inf
    if not drift <= workload["energy_drift_tol_per_atom"]:
        reasons.append(
            f"energy drift {drift:.3g}/atom > {workload['energy_drift_tol_per_atom']}"
        )
    tol = workload.get("net_charge_tol")
    if tol is not None and not abs(result["net_charge"]) <= tol:
        reasons.append(f"net charge {result['net_charge']:.3g} > {tol}")
    return reasons


# ------------------------------------------------------------------- metrics
def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def step_medians(runs: list[dict]) -> dict[bool, float]:
    """Median step wall of plain (False) and rebuild (True) steps, pooled."""
    out = {}
    for rebuilt in (False, True):
        walls = [s for r in runs for s, b in zip(r["step_s"], r["step_rebuilt"]) if b == rebuilt]
        if walls:
            out[rebuilt] = statistics.median(walls)
    return out


def end_to_end(runs: list[dict], natoms: int, steps: int) -> dict[str, dict]:
    """Per metric: the per-run samples; the reported value is their median."""
    samples = {
        "atom_steps_per_s": [natoms * steps / r["loop_s"] for r in runs if not r["failures"]],
        "setup_s": [r["setup_s"] for r in runs if r.get("setup_s") is not None],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {
        metric: {"value": statistics.median(values), "samples": values}
        for metric, values in samples.items() if values
    }


def per_layer(traced: dict, untraced: list[dict]) -> dict[str, float]:
    tr = traced["trace"]
    steps = len(traced["step_s"])
    loop = traced["loop_s"]
    self_s = tr["self_s"]
    before, after = traced["before"], traced["after"]
    step_ms = sorted(1e3 * s for s in traced["step_s"])
    # highest percentile with at least ten steps beyond it
    k = max(len(step_ms) - 11, 0)
    out = {
        "integrate.step_ms_p50": statistics.median(step_ms),
        "integrate.step_ms_tail": step_ms[k],
        "integrate.step_tail_pct": 100.0 * (k + 1) / len(step_ms),
        "integrate.unattributed_frac": self_s.get("", 0.0) / loop,
    }
    for name, layer in SELF_TIME_METRICS.items():
        out[name] = self_s.get(layer, 0.0) / steps
    pairs = traced["stored_pairs"]
    comm_calls = sum(n for layer, n in tr["calls"].items() if layer.startswith("comm_md."))
    iters = traced["qeq_iters"]
    out.update({
        "potentials.ns_per_pair": 1e9 * out["potentials.pair_s"] / pairs if pairs else 0.0,
        "neighbor.builds": after["builds"] - before["builds"],
        "neighbor.pairs": pairs,
        "neighbor.mean_neighbors": traced["mean_neighbors"],
        "neighbor.useful_frac": tr["useful_frac"],
        "comm_md.calls": comm_calls / steps,
        "parallel.messages": (after["messages"] - before["messages"]) / steps,
        "parallel.bytes": (after["bytes"] - before["bytes"]) / steps,
        "reaxff.qeq_iters": statistics.mean(iters) if iters else 0.0,
        "reaxff.qeq_spmv_bytes": traced["qeq_spmv_bytes"],
        "kokkos.dispatches": tr["dispatches"] / steps,
        "kokkos.syncs": tr["syncs"] / steps,
        "hardware.device_s": (after["device_model_s"] - before["device_model_s"]) / steps,
        "hardware.comm_s": (after["comm_model_s"] - before["comm_model_s"]) / steps,
        "trace.overhead_frac": trace_overhead(traced, untraced),
    })
    return out


def trace_overhead(traced: dict, untraced: list[dict]) -> float:
    """Traced loop / untraced loop - 1, both from step medians, same step mix.

    Step kinds the untraced runs lack (a rebuild past their last step) are
    left out of both sides.
    """
    plain = step_medians(untraced)
    kinds = [b for b in traced["step_rebuilt"] if b in plain]
    traced_medians = step_medians([traced])
    return sum(traced_medians[b] for b in kinds) / sum(plain[b] for b in kinds) - 1.0


def uncharged_layers(traced: dict, stresses: list[str]) -> list[str]:
    """Stressed layers none of whose wrappers was charged any time.

    Self times plus the unattributed glue add up to the loop wall by
    construction (``tracer.py``), so that sum checks nothing.  A stressed
    layer with no self time means its wrappers no longer sit on the path the
    program takes.
    """
    self_s = traced["trace"]["self_s"]
    out = []
    for prefix in stresses:
        layers = [layer for layer in SELF_TIME_METRICS.values() if layer.startswith(prefix)]
        if layers and not any(self_s.get(layer, 0.0) > 0.0 for layer in layers):
            out.append(prefix)
    return out


# ------------------------------------------------------------------ workload
def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    t_begin = time.monotonic()
    failures: list[str] = []
    runs: list[dict] = []
    traced = None
    prepared: dict[int, tuple[Path, int]] = {}

    def launch(steps: int, traced_run: bool, tag: str) -> dict:
        if steps not in prepared:
            sub = workdir / f"{name}-{steps}"
            sub.mkdir(parents=True, exist_ok=True)
            prepared[steps] = make_inputs(workload, seed, steps, sub)
        script, natoms = prepared[steps]
        argv = ["-in", script.name, *CLI_FLAGS]
        if workload["ranks"] > 1:
            argv += ["-np", str(workload["ranks"])]
        deadline = min(t_begin + BUDGET_S, time.monotonic() + CHILD_TIMEOUT_S)
        result = run_child({"argv": argv, "trace": traced_run}, script.parent, tag, deadline)
        result["tag"] = tag
        result["failures"] = check(result, workload, natoms, steps)
        for reason in result["failures"]:
            failures.append(f"{tag}: {reason}")
        return result

    if trace:
        traced = launch(workload["traced_steps"], True, "traced")
    longest = 0.0
    while len(runs) < MAX_CHILDREN:
        elapsed = time.monotonic() - t_begin
        if len(runs) >= MIN_CHILDREN and elapsed >= seconds:
            break
        if elapsed + longest > BUDGET_S:
            if len(runs) < MIN_CHILDREN:
                failures.append(f"only {len(runs)} runs fit the {BUDGET_S:.0f} s budget")
            break
        t0 = time.monotonic()
        runs.append(launch(workload["steps"], False, f"run{len(runs)}"))
        longest = max(longest, time.monotonic() - t0)

    # same seed, same inputs: every correct run must print the same thermo
    ok = [r for r in runs if not r["failures"]]
    reference = ok[0]["thermo"] if ok else None
    for r in ok[1:]:
        if r["thermo"] != reference:
            failures.append(f"{r['tag']}: thermo rows differ bitwise from {ok[0]['tag']}")
    if traced is not None and not traced["failures"] and reference is not None:
        common = {step for step, _ in reference}
        rows = [row for row in traced["thermo"] if row[0] in common]
        if rows != reference[: len(rows)] or len(rows) != len(reference):
            failures.append("traced: thermo rows differ bitwise from the untraced runs")

    natoms, steps = prepared[workload["steps"]][1], workload["steps"]
    summary = {
        "workload": name,
        "seed": seed,
        "attempted": len(runs) + (traced is not None),
        "failed": sum(bool(r["failures"]) for r in runs)
        + (traced is not None and bool(traced["failures"])),
        "failures": failures,
        "e2e": end_to_end(runs, natoms, steps),
        "max_drift": max((r["drift"] for r in runs + [traced] if r and "drift" in r), default=None),
        "layers": None,
    }
    if traced is not None and not traced["failures"] and ok:
        summary["layers"] = per_layer(traced, ok)
        for prefix in uncharged_layers(traced, workload["stresses"]):
            failures.append(f"traced: stressed layer {prefix} was charged no time")
    return summary


# -------------------------------------------------------------------- output
def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(summary: dict) -> None:
    name = summary["workload"]
    print(f"== {name} (seed {summary['seed']}) ==")
    frac = summary["failed"] / summary["attempted"]
    print(f"  fail_frac = {fmt(frac)} ({summary['failed']}/{summary['attempted']} runs)")
    for text in summary["failures"]:
        print(f"  FAILED {text}")
    drift = "n/a" if summary["max_drift"] is None else fmt(summary["max_drift"])
    print(f"  checks: energy drift <= {drift}/atom "
          f"(tol {WORKLOADS[name]['energy_drift_tol_per_atom']}), thermo bitwise across runs")
    print("  end-to-end (median over runs, quartiles, count)")
    for metric, unit in END_TO_END.items():
        if metric in summary["e2e"]:
            entry = summary["e2e"][metric]
            q1, _, q3 = quartiles(entry["samples"])
            print(f"  {metric:<28} {fmt(entry['value']):>12} {unit:<12} "
                  f"q1 {fmt(q1)} q3 {fmt(q3)} n {len(entry['samples'])}")
        else:
            print(f"  {metric:<28} {'n/a':>12} {unit:<12} n 0")
    if summary["layers"] is not None:
        print("  per-layer (traced run; -> the end-to-end metric it should move here)")
        moves = WORKLOADS[name]["layer_metrics_move"]
        for metric, unit in PER_LAYER.items():
            note = f"  -> {moves[metric]}" if metric in moves else ""
            print(f"  {metric:<28} {fmt(summary['layers'][metric]):>12} {unit:<12}{note}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default_seed)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measure for this long per workload (at least "
                   f"{MIN_CHILDREN} runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("host " + json.dumps(host.host_record()))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    summaries = []
    try:
        for name in names:
            seed = WORKLOADS[name]["default_seed"] if args.seed is None else args.seed
            summary = run_workload(name, seed, args.seconds, bool(args.trace), workdir)
            report(summary)
            summaries.append(summary)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for s in summaries:
        prefix = f"{s['workload']}:" if len(summaries) > 1 else ""
        if args.trace:
            for metric, unit in PER_LAYER.items():
                if s["layers"] is not None:
                    metrics[prefix + metric] = {"value": s["layers"][metric], "unit": unit}
        else:
            for metric, unit in END_TO_END.items():
                if metric in s["e2e"]:
                    metrics[prefix + metric] = {"value": s["e2e"][metric]["value"], "unit": unit}
    print(json.dumps({
        "correct": all(not s["failures"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
