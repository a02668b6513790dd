"""Self-test of the benchmark's tracing (not one of its workloads).

Usage (from the repository root): ``python3 perfbench/selftest.py [--seed N]``

Runs melt-kk three times with one seed: untraced, traced, and traced with a
known delay slept inside every third call of one layer's wrapper, so that
fewer than half of the steps carry it.  It passes when

* the delay shows up in that layer's self time (delayed calls x delay,
  within 10%),
* no sibling layer, nor the unattributed glue, moves by a quarter of it,
* the delayed run's ``atom_steps_per_s``, computed as ``run.py`` reports
  it, is lower,
* all three runs print bitwise-identical thermo rows, and
* ``BENCHMARK.json`` lists exactly the metrics and units ``run.py`` reports.

Exit code 0 on pass, 1 on failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from run import (
    CLI_FLAGS, END_TO_END, PER_LAYER, ROOT, WORKLOADS, end_to_end, make_inputs, run_child,
)

WORKLOAD = "melt-kk"
STEPS = 20
#: ``thermo`` is a generator layer entered once per step and otherwise tiny,
#: so the injected time stands far above its own run-to-run noise.  The
#: delay is also ~2.5x the whole 20-step loop, so a sibling such as the pair
#: layer (~85% of the loop) would have to slow by over half on a shared host
#: to move by a quarter of it.
DELAY_LAYER = "thermo"
DELAY_S = 0.5
#: delay every third call: a cost on fewer than half the steps must still show
DELAY_EVERY = 3


def declared_metrics() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer"))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    workdir = ROOT / ".perfbench_work" / f"selftest-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        script, natoms = make_inputs(WORKLOADS[WORKLOAD], args.seed, STEPS, workdir)
        base = {"argv": ["-in", script.name, *CLI_FLAGS]}
        runs = {}
        for tag, extra in (
            ("untraced", {"trace": False}),
            ("traced", {"trace": True}),
            ("delayed", {"trace": True, "delay_layer": DELAY_LAYER, "delay_s": DELAY_S,
                         "delay_every": DELAY_EVERY}),
        ):
            runs[tag] = run_child({**base, **extra}, workdir, tag, time.monotonic() + 150)
            if runs[tag].get("error") or runs[tag]["exit_code"]:
                print(f"selftest: {tag} run failed: {runs[tag].get('error')}")
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, delayed = runs["traced"]["trace"], runs["delayed"]["trace"]
    injected = delayed["calls"][DELAY_LAYER] // DELAY_EVERY * DELAY_S
    moved = {
        layer: delayed["self_s"].get(layer, 0.0) - plain["self_s"].get(layer, 0.0)
        for layer in set(plain["self_s"]) | set(delayed["self_s"])
    }
    rate = {
        tag: end_to_end([{**r, "failures": []}], natoms, STEPS)["atom_steps_per_s"]["value"]
        for tag, r in runs.items()
    }
    checks = {
        f"{DELAY_LAYER} self time grew by {moved[DELAY_LAYER]:.4f} s "
        f"(injected {injected:.4f} s)": abs(moved[DELAY_LAYER] - injected) <= 0.1 * injected,
        "no sibling layer or unattributed glue moved by 25% of it: "
        + ", ".join(f"{k or 'unattributed'} {v:+.4f}" for k, v in sorted(moved.items(), key=str)
                    if k != DELAY_LAYER):
            all(abs(v) < 0.25 * injected for k, v in moved.items() if k != DELAY_LAYER),
        f"atom_steps_per_s fell {rate['traced']:.0f} -> {rate['delayed']:.0f}":
            rate["delayed"] < rate["traced"],
        "thermo rows bitwise equal: untraced, traced, delayed":
            runs["untraced"]["thermo"] == runs["traced"]["thermo"] == runs["delayed"]["thermo"],
        "BENCHMARK.json metrics match run.py": declared_metrics() == (END_TO_END, PER_LAYER),
    }
    for text, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
    passed = all(checks.values())
    print(f"selftest: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
