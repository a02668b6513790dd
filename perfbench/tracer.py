"""Per-layer self-time tracing, installed from outside the program.

:func:`install` wraps the public entry points of each layer at runtime
(no program source changes).  Every entry and exit reads one clock; the
time since the previous clock read is charged to whichever layer is on top
of the span stack, so each layer accumulates *self* time (its span minus its
traced children) and time with an empty stack is the integrator's
unattributed glue.  The charges therefore add up to the traced interval.

Generator entry points (comm, ``compute_gen``, the QEq solve, thermo) are
timed per resumption: the span opens when the generator is resumed and
closes when it yields, so lockstep ranks interleaving at every ``yield``
are never charged for each other's work.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict

#: (module, attribute path, layer[, counter]).  Several entry points may
#: share a layer; a counter names what each completed call adds to.
TARGETS = [
    ("repro.core.lammps", "build_neighbor_list", "neighbor.build", "build"),
    ("repro.core.bin_grid", "BinGrid.__init__", "neighbor.bin"),
    ("repro.core.lammps", "Lammps._maybe_sort_atoms", "neighbor.sort"),
    ("repro.reaxff.pair_reaxff", "build_neighbor_list", "neighbor.bond_list"),
    ("repro.core.comm_md", "CommBrick.exchange", "comm_md.exchange"),
    ("repro.core.comm_md", "CommBrick.borders", "comm_md.borders"),
    ("repro.core.comm_md", "CommBrick.forward_comm", "comm_md.forward"),
    ("repro.core.comm_md", "CommBrick.forward_comm_field", "comm_md.fields"),
    ("repro.core.comm_md", "CommBrick.forward_comm_fields", "comm_md.fields"),
    ("repro.core.comm_md", "CommBrick.reverse_comm", "comm_md.reverse"),
    ("repro.reaxff.pair_reaxff", "build_bond_list", "reaxff.bond_order"),
    ("repro.reaxff.pair_reaxff", "build_qeq_matrix", "reaxff.qeq_matrix"),
    ("repro.reaxff.pair_reaxff", "make_preconditioner", "reaxff.qeq_matrix"),
    ("repro.reaxff.pair_reaxff", "equilibrate_charges_gen", "reaxff.qeq_solve"),
    ("repro.reaxff.pair_reaxff", "compute_nonbonded", "reaxff.nonbonded"),
    ("repro.reaxff.pair_reaxff", "compute_bonds", "reaxff.bonded"),
    ("repro.reaxff.pair_reaxff", "build_triplets", "reaxff.bonded"),
    ("repro.reaxff.pair_reaxff", "compute_angles", "reaxff.bonded"),
    ("repro.reaxff.pair_reaxff", "build_quads", "reaxff.bonded"),
    ("repro.reaxff.pair_reaxff", "compute_torsions", "reaxff.bonded"),
    ("repro.snap.pair_snap", "compute_ui", "snap.ui"),
    ("repro.snap.pair_snap", "compute_yi", "snap.yi"),
    ("repro.snap.pair_snap", "compute_bispectrum", "snap.bispectrum"),
    ("repro.snap.pair_snap", "compute_fused_deidrj", "snap.deidrj"),
    ("repro.core.modify", "Modify.initial_integrate", "modify"),
    ("repro.core.modify", "Modify.post_force", "modify"),
    ("repro.core.modify", "Modify.final_integrate", "modify"),
    ("repro.core.modify", "Modify.end_of_step", "modify"),
    ("repro.core.thermo", "Thermo.output_gen", "thermo"),
    ("repro.kokkos", "parallel_for", "kokkos", "dispatch"),
    ("repro.kokkos", "parallel_reduce", "kokkos", "dispatch"),
    ("repro.kokkos", "parallel_scan", "kokkos", "dispatch"),
    ("repro.kokkos.dual_view", "DualView.sync", "kokkos", "sync"),
]

#: Pair-style methods wrapped on every registered style class.
PAIR_METHODS = ("compute", "compute_gen", "compute_phase", "compute_overlap_gen")
PAIR_LAYER = "potentials.pair"
#: Neighbor builds whose (list, positions) are kept for the useful-pair ratio.
MAX_BUILD_SAMPLES = 8


class Tracer:
    """Span stack plus self-time, call and count accumulators."""

    def __init__(
        self, delay_layer: str | None = None, delay_s: float = 0.0, delay_every: int = 1
    ) -> None:
        self.stack: list[str] = []
        self.self_s: dict[str | None, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.dispatches = 0
        self.syncs = 0
        self.build_samples: list[tuple[object, object]] = []
        self.active = False
        self._last = 0.0
        #: self-test hook: sleep ``delay_s`` inside every ``delay_every``-th
        #: call of one layer
        self.delay_layer = delay_layer
        self.delay_s = delay_s
        self.delay_every = delay_every

    # ---------------------------------------------------------- clock
    def _tick(self, now: float | None = None) -> None:
        now = time.perf_counter() if now is None else now
        if self.active:
            self.self_s[self.stack[-1] if self.stack else None] += now - self._last
        self._last = now

    def start(self, now: float) -> None:
        """Begin charging at ``now`` (the first timestep); earlier work is set-up."""
        self.self_s.clear()
        self.calls.clear()
        self.dispatches = self.syncs = 0
        self._last = now
        self.active = True

    def stop(self, now: float) -> None:
        """Charge up to ``now`` (the return of the run) and stop."""
        self._tick(now)
        self.active = False

    def enter(self, layer: str, first: bool = True) -> None:
        self._tick()
        self.stack.append(layer)
        if first and self.active:
            self.calls[layer] += 1
        if (first and layer == self.delay_layer and self.active
                and self.calls[layer] % self.delay_every == 0):
            time.sleep(self.delay_s)

    def exit(self) -> None:
        self._tick()
        self.stack.pop()

    # -------------------------------------------------------- wrappers
    def wrap(self, fn, layer: str, counter: str | None = None):
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                return self._drive(fn(*args, **kwargs), layer)

            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                self.enter(layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.exit()
                if counter is not None:
                    self._count(counter, args, out)
                return out

            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def _drive(self, gen, layer: str):
        """Re-yield ``gen``'s values, charging only its own resumptions."""
        first = True
        sent = None
        while True:
            self.enter(layer, first)
            first = False
            try:
                value = gen.send(sent)
            except StopIteration as stop:
                self.exit()
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            try:
                sent = yield value
            except GeneratorExit:
                gen.close()
                raise

    def _count(self, counter: str, args: tuple, out) -> None:
        if counter == "build":
            # set-up builds count too: a short loop may not rebuild at all
            if len(self.build_samples) < MAX_BUILD_SAMPLES:
                self.build_samples.append((out, args[0].copy()))  # (list, positions)
        elif not self.active:
            return
        elif counter == "dispatch":
            self.dispatches += 1
        elif counter == "sync" and out:  # True when a transfer ran
            self.syncs += 1

    def export(self) -> dict:
        return {
            "self_s": {k or "": v for k, v in self.self_s.items()},
            "calls": dict(self.calls),
            "dispatches": self.dispatches,
            "syncs": self.syncs,
        }


def _pair_classes():
    from repro.potentials.pair import Pair

    seen, todo = [], [Pair]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def install(tracer: Tracer) -> None:
    """Wrap every target in place; call after the program's modules import."""
    for module_name, path, layer, *counter in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for name in outer:
            owner = getattr(owner, name)
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), layer, *counter))
    for cls in _pair_classes():
        for meth in PAIR_METHODS:
            if meth in cls.__dict__:
                setattr(cls, meth, tracer.wrap(cls.__dict__[meth], PAIR_LAYER))
