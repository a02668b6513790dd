"""Differential matrix: the pair-workspace pass is bitwise-identical to a
plain NumPy reference, and workspaces live exactly one neighbor build.

The eager pairwise pass (:class:`~repro.core.neighbor.PairWorkspace`)
gathers with ``np.take`` into preallocated scratch, reads coefficients
through a per-pair type-pair index, and reuses buffers in place.  That is
only legal because it computes the same floating-point sequence as the
plain expressions.  The oracle here *is* those plain expressions —
``x[i] - x[j]``, a boolean cutoff mask, 2-D ``table[itype, jtype]``
lookups — driving the library's own accumulation (scatter / ScatterView)
and tally code, so any bit the workspace moves shows up as a mismatch in
forces, energy or virial.
"""

from __future__ import annotations

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest

from conftest import gather_by_tag, make_melt
from repro.core import Lammps
from repro.core import lammps as lammps_mod
from repro.kokkos.scatter_view import ScatterView
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    force_scatter_mode,
    scatter_add,
    scatter_mode,
)
from repro.parallel.driver import drain

EAM_QUENCH = Path(__file__).resolve().parent.parent / "examples/scripts/in.eam.quench"

EAM_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 {cells} 0 {cells} 0 {cells}
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 600 12345
pair_style eam/fs/kk 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
"""



def two_type_melt(style, coeffs, device="H100"):
    """3x3x3 fcc melt with a seeded random half of the atoms retyped to 2,
    so the pass sees three distinct type pairs."""
    lmp = Lammps(device=device)
    lmp.commands_string(
        "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
        "create_box 2 b\ncreate_atoms 1 box\nmass * 1.0\n"
    )
    n = lmp.atom.nlocal
    retype = np.random.default_rng(4242).permutation(n)[: n // 2]
    lmp.atom.type[retype] = 2
    lmp.commands_string(
        f"pair_style {style}\n{coeffs}\n"
        "velocity all create 1.44 87287\nneighbor 0.3 bin\nfix 1 all nve\n"
    )
    return lmp


STYLES = {
    "lj/cut/kk": (
        "lj/cut/kk 2.5",
        "pair_coeff 1 1 1.0 1.0\npair_coeff 2 2 0.8 1.1\npair_coeff 1 2 0.9 1.05",
    ),
    "morse/kk": (
        "morse/kk 2.5",
        "pair_coeff 1 1 1.0 5.0 1.1\npair_coeff 2 2 0.7 4.5 1.2\n"
        "pair_coeff 1 2 0.85 4.8 1.15",
    ),
    "lj/cut/coul/cut/kk": (
        "lj/cut/coul/cut/kk 2.5 3.0",
        "pair_coeff 1 1 1.0 1.0\npair_coeff 2 2 0.8 1.1\npair_coeff 1 2 0.9 1.05\n"
        "set type 1 charge 0.5\nset type 2 charge -0.5",
    ),
}


# ------------------------------------------------------------------ oracle
def oracle_compute_pairs(pair, phase, eflag, vflag, **_):
    """Reference pairwise pass: plain NumPy geometry and 2-D lookups.

    Mirrors ``PairKokkos._compute_pairs`` (kk styles) and
    ``PairLJCut._compute_pairs`` (host) with the workspace replaced by the
    unbuffered expressions; accumulation and tallies go through the same
    library calls.
    """
    lmp = pair.lmp
    atom = lmp.atom
    if pair.kokkos_style:
        space = pair.execution_space
        lmp.atom_kk.sync(space, ("x", "type", "f"))
        x = lmp.atom_kk.view("x", space).data
        f_view = lmp.atom_kk.view("f", space)
        full, newton = pair.neigh_mode == "full", pair.newton_mode
    else:
        x = atom.x[: atom.nall]
        full, newton = False, lmp.newton_pair
    i, j, itype, jtype, cutsq = pair.pair_table(lmp.neigh_list, atom, phase)
    dx = x[i] - x[j]
    rsq = np.einsum("ij,ij->i", dx, dx)
    mask = rsq < cutsq
    i, j, dx, rsq = i[mask], j[mask], dx[mask], rsq[mask]
    itype, jtype = itype[mask], jtype[mask]
    if hasattr(pair, "pair_eval_q"):
        q = atom.q
        fpair, evdwl, ecoul = pair.pair_eval_q(
            rsq, itype, jtype, q[i], q[j], lmp.update.units.qqr2e
        )
        evdwl = evdwl + ecoul
    else:
        fpair, evdwl = pair.pair_eval(rsq, itype, jtype)
    fvec = fpair[:, None] * dx
    jlocal = j < atom.nlocal
    if not pair.kokkos_style:
        pair.scatter_pair_forces(atom, i, j, fvec, jlocal, newton)
    elif full:
        scatter_add(f_view.data, i, fvec, mode=scatter_mode(), assume_sorted=True)
    else:
        sv = ScatterView(f_view)
        acc = sv.access()
        acc.add(i, fvec)
        if newton:
            acc.add(j, -fvec)
        else:
            acc.add(j[jlocal], -fvec[jlocal])
        sv.contribute()
    if pair.kokkos_style:
        lmp.atom_kk.modified(space, ("f",))
    if eflag or vflag:
        pair.tally_pairs(evdwl, dx, fpair, jlocal, full_list=full, newton=newton)


def oracle_eam_geometry(pair, phase="all", x=None):
    """Reference EAM geometry: the unbuffered form of ``_pair_geometry``."""
    atom = pair.lmp.atom
    i, j, itype, jtype, cutsq = pair.pair_table(pair.lmp.neigh_list, atom, phase)
    x = atom.x[: atom.nall] if x is None else x
    dx = x[i] - x[j]
    rsq = np.einsum("ij,ij->i", dx, dx)
    mask = rsq < cutsq
    tp = itype[mask].astype(np.intp) * pair.cut.shape[0] + jtype[mask]
    return i[mask], j[mask], dx[mask], np.sqrt(rsq[mask]), tp, len(i)


def use_oracle(lmp):
    """Route the instance's pair pass through the reference (instance patch)."""
    pair = lmp.pair
    if hasattr(pair, "_pair_geometry"):
        pair._pair_geometry = functools.partial(oracle_eam_geometry, pair)
    else:
        pair._compute_pairs = functools.partial(oracle_compute_pairs, pair)


def use_workspace(lmp):
    for name in ("_pair_geometry", "_compute_pairs"):
        lmp.pair.__dict__.pop(name, None)


def pass_result(lmp, phase="all"):
    """One pair pass from zeroed forces -> (f over local+ghost, energy, virial)."""
    pair, atom = lmp.pair, lmp.atom
    atom.f[: atom.nall] = 0.0
    if pair.kokkos_style:
        lmp.mark_host_writes("f")
    if hasattr(pair, "compute_gen"):  # EAM communicates mid-compute
        drain(pair.compute_gen(True, True))
    elif phase == "all":
        pair.compute(True, True)
    else:
        pair.reset_tallies()
        pair.compute_phase(phase, True, True)
    if pair.kokkos_style:
        lmp.sync_host_fields("f")
    return (
        atom.f[: atom.nall].copy(),
        float(pair.eng_vdwl),
        pair.virial.copy(),
    )


def assert_workspace_matches_oracle(lmp, tag, phase="all"):
    use_oracle(lmp)
    ref_f, ref_e, ref_v = pass_result(lmp, phase)
    use_workspace(lmp)
    # twice: the second pass runs on the reused (already written) scratch
    for attempt in ("first", "reused"):
        f, e, v = pass_result(lmp, phase)
        assert np.array_equal(f, ref_f), f"{tag} {attempt}: forces differ"
        assert e == ref_e, f"{tag} {attempt}: energy differs"
        assert np.array_equal(v, ref_v), f"{tag} {attempt}: virial differs"
    assert np.any(ref_f != 0.0) and ref_e != 0.0, f"{tag}: trivial pass"


# ------------------------------------------------------- lj matrix (kk/host)
def test_melt_kk_workspace_bitwise_across_scatter_sort_matrix():
    lmp = make_melt(device="H100", suffix="kk")
    lmp.run(0)
    default_sort = lmp.sort_every
    for scatter, sort_every in itertools.product((ATOMIC, SEGMENTED), (default_sort, 0)):
        lmp.sort_every = sort_every
        with force_scatter_mode(scatter):
            drain(lmp.rebuild_gen())
            assert_workspace_matches_oracle(lmp, f"melt-kk {scatter}/sort={sort_every}")


LIST_CELLS = {
    "full": dict(neigh="full", newton=False),
    "half+newton-on": dict(neigh="half", newton=True),
    "half+newton-off": dict(neigh="half", newton=False),
}


@pytest.mark.parametrize("cell", sorted(LIST_CELLS))
@pytest.mark.parametrize(
    "style,team",
    [
        ("lj/cut/kk", False),
        ("lj/cut/kk", True),
        ("morse/kk", False),
        ("lj/cut/coul/cut/kk", False),
    ],
)
def test_kk_styles_workspace_bitwise_across_list_cells(style, team, cell):
    lmp = two_type_melt(*STYLES[style])
    lmp.run(0)
    lmp.pair.set_options(team=team, **LIST_CELLS[cell])
    lmp.newton_pair = LIST_CELLS[cell]["newton"]
    drain(lmp.rebuild_gen())
    assert_workspace_matches_oracle(lmp, f"{style} team={team} {cell}")


@pytest.mark.parametrize("newton", [True, False])
def test_melt_host_workspace_bitwise(newton):
    lmp = make_melt()
    lmp.newton_pair = newton
    lmp.run(0)
    assert_workspace_matches_oracle(lmp, f"lj/cut newton={newton}")


@pytest.mark.parametrize("phase", ["all", "interior", "boundary"])
@pytest.mark.parametrize("suffix", [None, "kk"])
def test_overlap_phases_workspace_bitwise(suffix, phase):
    lmp = make_melt(device="H100", suffix=suffix)
    lmp.run(0)
    assert lmp.neigh_list.boundary_pairs and lmp.neigh_list.interior_pairs
    assert_workspace_matches_oracle(lmp, f"melt {suffix} {phase}", phase)


# ----------------------------------------------------------------------- eam
def test_eam_kk_workspace_bitwise():
    lmp = Lammps(device="H100", suffix="kk")
    lmp.commands_string(EAM_SCRIPT.format(cells=3))
    lmp.run(2)  # off-lattice, so every pair term is non-trivial
    assert_workspace_matches_oracle(lmp, "eam/fs/kk")


# ---------------------------------------------------------------- trajectory
@pytest.mark.parametrize("suffix", ["kk", None])
def test_melt_20_step_trajectory_matches_oracle(suffix):
    """20 steps, a rebuild every 5: workspaces are reused between rebuilds
    and replaced at each one."""

    def trajectory(oracle):
        lmp = make_melt(device="H100", suffix=suffix)
        lmp.commands_string("neigh_modify every 5 delay 0 check no")
        if oracle:
            use_oracle(lmp)
        lmp.run(20)
        assert lmp.neighbor.builds >= 4
        return gather_by_tag(lmp, "x"), gather_by_tag(lmp, "f"), lmp.pair.virial.copy()

    ref = trajectory(oracle=True)
    got = trajectory(oracle=False)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


def test_eam_kk_overlapped_trajectory_matches_oracle():
    """EAM/kk's interior/boundary phases each own a workspace."""

    def trajectory(oracle):
        lmp = Lammps(device="H100", suffix="kk")
        lmp.commands_string(EAM_SCRIPT.format(cells=3))
        lmp.overlap_comm = True
        if oracle:
            use_oracle(lmp)
        lmp.run(10)
        assert lmp.overlap_steps > 0
        return gather_by_tag(lmp, "x"), float(lmp.pair.eng_vdwl)

    ref_x, ref_e = trajectory(oracle=True)
    x, e = trajectory(oracle=False)
    assert np.array_equal(x, ref_x) and e == ref_e


# ------------------------------------------------------------------ lifetime
def test_rebuild_releases_workspace_before_new_list_is_built(monkeypatch):
    lmp = make_melt(device="H100", suffix="kk")
    lmp.run(0)
    lmp.pair.compute(True, True)
    old = lmp.neigh_list.pair_cache()
    assert old._workspaces
    seen = []
    real_exchange = lmp.comm_brick.exchange
    real_build = lammps_mod.build_neighbor_list

    def exchange(*args, **kw):
        seen.append(("exchange", bool(old._workspaces)))
        return real_exchange(*args, **kw)

    def build(*args, **kw):
        seen.append(("build", bool(old._workspaces)))
        return real_build(*args, **kw)

    monkeypatch.setattr(lmp.comm_brick, "exchange", exchange)
    monkeypatch.setattr(lammps_mod, "build_neighbor_list", build)
    drain(lmp.rebuild_gen())
    assert seen == [("exchange", False), ("build", False)]
    assert not lmp.neigh_list.pair_cache()._workspaces  # built lazily
    lmp.pair.compute(True, True)
    assert lmp.neigh_list.pair_cache()._workspaces


def test_pair_coeff_change_between_runs_reaches_forces():
    lmp = make_melt(device="H100", suffix="kk")
    lmp.run(0)
    f1 = gather_by_tag(lmp, "f")
    e1 = float(lmp.pair.eng_vdwl)
    # doubling epsilon doubles every lj1..lj4 entry exactly, so forces and
    # energy double bitwise
    lmp.commands_string("pair_coeff 1 1 2.0 1.0")
    lmp.run(0)
    assert np.array_equal(gather_by_tag(lmp, "f"), 2.0 * f1)
    assert float(lmp.pair.eng_vdwl) == 2.0 * e1


def test_interleaved_instances_match_solo_runs():
    """Two instances stepped alternately share no workspace or pass state."""

    def build(suffix, cells):
        lmp = make_melt(device="H100", suffix=suffix, cells=cells)
        lmp.commands_string("neigh_modify every 4 delay 0 check no")
        return lmp

    def result(lmp):
        return gather_by_tag(lmp, "x"), gather_by_tag(lmp, "f"), lmp.pair.virial.copy()

    specs = (("kk", 3), (None, 4))
    solo = []
    for suffix, cells in specs:
        lmp = build(suffix, cells)
        drain(lmp.verlet.run_gen(12))
        solo.append(result(lmp))

    pair = [build(suffix, cells) for suffix, cells in specs]
    gens = [lmp.verlet.run_gen(12) for lmp in pair]
    live = list(gens)
    while live:
        for gen in list(live):
            try:
                next(gen)
            except StopIteration:
                live.remove(gen)
    for lmp, ref in zip(pair, solo):
        for a, b in zip(result(lmp), ref):
            assert np.array_equal(a, b)


# --------------------------------------------------------- eam/kk + atom sort
def test_eam_quench_kk_with_atom_sort_runs():
    """Atom sort after EAM/kk left rho/fp device-modified must not raise."""
    script = EAM_QUENCH.read_text().replace(
        "block 0 3 0 3 0 3", "block 0 4 0 4 0 4"
    )
    assert "block 0 4 0 4 0 4" in script
    lmp = Lammps(device="H100", suffix="kk")
    assert lmp.sort_every > 0
    lmp.commands_string(script)
    assert lmp.natoms_total == 256
    assert lmp.neighbor.builds > 1
    pe = float(lmp.pair.eng_vdwl)
    assert np.isfinite(pe) and pe < 0.0
