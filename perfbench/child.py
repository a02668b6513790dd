"""One benchmark child: run the program's CLI on generated inputs.

Usage: ``python3 child.py SPEC.json``.  The spec names the source tree, the
CLI arguments, whether to trace, and where to write the result.

The child imports the program, wraps a few public entry points from outside
(the ``Lammps`` constructor to capture the instances the CLI creates, a
stamp on rank 0's ``Modify.initial_integrate`` for the start of every
timestep, a stamp on the return of the run) and, when traced, installs the
per-layer tracer.  It then calls the CLI's ``main`` exactly as
``python -m repro`` would, and writes timestamps, counters read from public
state, and thermo rows to the result file.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


class Probe:
    """Outside-in stamps and counters for one CLI run."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.instances: list = []
        self.t_first_mono: float | None = None
        self.t_first = 0.0
        self.t_end = 0.0
        self.step_starts: list[float] = []
        #: rank 0's neighbor-build count at each step start (marks rebuild steps)
        self.step_builds: list[int] = []
        self.before: dict = {}
        self.after: dict = {}

    def install(self) -> None:
        from repro.core.lammps import Ensemble, Lammps
        from repro.core.modify import Modify

        probe = self
        init, step = Lammps.__init__, Modify.initial_integrate

        def captured_init(lmp, *args, **kwargs):
            init(lmp, *args, **kwargs)
            probe.instances.append(lmp)

        def stamped_step(modify):
            if modify is probe.instances[0].modify:
                now = time.perf_counter()
                if probe.t_first_mono is None:
                    probe.t_first_mono = time.monotonic()
                    probe.t_first = now
                    probe.before = probe.snapshot()
                    if probe.tracer is not None:
                        probe.tracer.start(now)
                probe.step_starts.append(now)
                probe.step_builds.append(probe.instances[0].neighbor.builds)
            return step(modify)

        Lammps.__init__ = captured_init
        Modify.initial_integrate = stamped_step
        for cls in (Lammps, Ensemble):
            cls.run = self._ended(cls.run)

    def _ended(self, run):
        probe = self

        def ended_run(target, nsteps):
            run(target, nsteps)
            if not probe.t_end:
                probe.t_end = time.perf_counter()
                if probe.tracer is not None:
                    probe.tracer.stop(probe.t_end)
                probe.after = probe.snapshot()

        return ended_run

    def snapshot(self) -> dict:
        import repro.kokkos as kk

        r0 = self.instances[0]
        ledger = r0.world.ledger
        return {
            "builds": r0.neighbor.builds,
            "messages": ledger.messages,
            "bytes": ledger.bytes_moved,
            "comm_model_s": ledger.total(),
            "device_model_s": kk.device_context().timeline.total(),
            "qeq_solves": len(getattr(r0.pair, "qeq_iters_history", ())),
        }

    def final_state(self) -> dict:
        ranks = [lmp for lmp in self.instances if lmp.atom is not None]
        r0 = ranks[0]
        nlocal = [lmp.atom.nlocal for lmp in ranks]
        lists = [lmp.neigh_list for lmp in ranks if lmp.neigh_list is not None]
        history = getattr(r0.pair, "qeq_iters_history", [])
        return {
            "natoms": int(sum(nlocal)),
            "net_charge": float(sum(lmp.atom.q[: lmp.atom.nlocal].sum() for lmp in ranks)),
            "stored_pairs": int(sum(nl.total_pairs for nl in lists)),
            "mean_neighbors": float(
                sum(nl.mean_neighbors * n for nl, n in zip(lists, nlocal)) / max(sum(nlocal), 1)
            ),
            "force_cutoff": float(r0.pair.max_cutoff()) if r0.pair is not None else 0.0,
            "qeq_iters": [int(v) for v in history[self.before.get("qeq_solves", 0):]],
            "qeq_spmv_bytes": int(sum(
                getattr(lmp.pair, "last_stats", {}).get("qeq_spmv_bytes", 0) for lmp in ranks
            )),
            "thermo": [
                [rec.step, {k: float(v).hex() for k, v in rec.values.items()}]
                for rec in r0.thermo.history
            ],
        }


def useful_fraction(samples, cutoff: float) -> float:
    """Stored pairs inside the force cutoff / stored pairs, over sampled builds."""
    import numpy as np

    inside = stored = 0
    for nlist, x in samples:
        i, j = nlist.ij_pairs()
        d = x[j] - x[i]
        inside += int(np.count_nonzero(np.einsum("ij,ij->i", d, d) < cutoff * cutoff))
        stored += len(i)
    return inside / stored if stored else 0.0


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    result: dict = {"error": None}
    code = 1
    probe = None
    try:
        import repro.__main__ as cli

        tracer = None
        if spec["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer(
                spec.get("delay_layer"), spec.get("delay_s", 0.0), spec.get("delay_every", 1)
            )
            tracing.install(tracer)
        probe = Probe(tracer)
        probe.install()
        code = cli.main(spec["argv"]) or 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        result["error"] = f"SystemExit({exc.code!r})"
    except Exception:  # a failed run is a result: record it and report
        result["error"] = traceback.format_exc()
    try:
        if probe is not None:
            result["t_first_mono"] = probe.t_first_mono
        if probe is not None and probe.instances and probe.t_end:
            result.update(
                loop_s=probe.t_end - probe.t_first,
                step_s=[b - a for a, b in zip(probe.step_starts, probe.step_starts[1:] + [probe.t_end])],
                step_rebuilt=[b > a for a, b in zip(
                    probe.step_builds, probe.step_builds[1:] + [probe.after["builds"]])],
                before=probe.before,
                after=probe.after,
                **probe.final_state(),
            )
            if probe.tracer is not None:
                result["trace"] = probe.tracer.export()
                result["trace"]["useful_frac"] = useful_fraction(
                    probe.tracer.build_samples, result["force_cutoff"]
                )
    except Exception:
        result["error"] = (result["error"] or "") + traceback.format_exc()
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return code if result["error"] is None else (code or 1)


if __name__ == "__main__":
    sys.exit(main())
