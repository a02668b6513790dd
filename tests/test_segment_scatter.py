"""Segmented-reduction scatter: unit edge cases and mode equivalence.

The segmented path (:mod:`repro.kokkos.segment`) must be a drop-in
replacement for ``np.add.at`` everywhere the force kernels scatter:
same results (bit-identical for single zeroed-target reductions, ≤1e-12
relative in composed force pipelines), selectable per execution space,
and overridable globally for benchmarking.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kokkos as kk
from conftest import gather_by_tag, make_melt
from repro.core import Ensemble, Lammps
from repro.kokkos.core import Device, Host
from repro.kokkos.segment import (
    ATOMIC,
    SEGMENTED,
    force_scatter_mode,
    scatter_add,
    scatter_mode,
    scatter_sub,
    segment_sum,
    segment_sum_vec,
)


# --------------------------------------------------------------- unit tests
class TestSegmentSum:
    def test_empty_input(self):
        out = segment_sum(np.array([]), np.array([], dtype=int), 5)
        assert out.shape == (5,) and not out.any()

    def test_single_segment(self):
        v = np.array([1.0, 2.0, 4.0])
        out = segment_sum(v, np.array([2, 2, 2]), 4)
        assert list(out) == [0.0, 0.0, 7.0, 0.0]

    def test_unsorted_index_matches_add_at(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 17, size=300)
        v = rng.normal(size=300)
        ref = np.zeros(17)
        np.add.at(ref, idx, v)
        np.testing.assert_array_equal(segment_sum(v, idx, 17), ref)

    def test_sorted_fast_path_matches_unsorted(self):
        rng = np.random.default_rng(1)
        idx = np.sort(rng.integers(0, 9, size=100))
        v = rng.normal(size=100)
        # reduceat and bincount may associate partial sums differently
        np.testing.assert_allclose(
            segment_sum(v, idx, 9, assume_sorted=True),
            segment_sum(v, idx, 9),
            rtol=1e-13,
            atol=1e-14,
        )

    def test_complex_values(self):
        idx = np.array([0, 3, 0])
        v = np.array([1 + 2j, 3j, 2 - 1j])
        out = segment_sum(v, idx, 4)
        assert out[0] == 3 + 1j and out[3] == 3j

    def test_2d_values_narrow_and_wide(self):
        rng = np.random.default_rng(2)
        for ncols in (3, 12):  # bincount-per-column vs sort+reduceat routes
            idx = rng.integers(0, 11, size=200)
            v = rng.normal(size=(200, ncols))
            ref = np.zeros((11, ncols))
            np.add.at(ref, idx, v)
            np.testing.assert_allclose(
                segment_sum_vec(v, idx, 11), ref, rtol=1e-13, atol=1e-14
            )

    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            segment_sum(np.ones(3), np.zeros(4, dtype=int), 5)
        with pytest.raises(ValueError, match="1-D"):
            segment_sum(np.ones((3, 2)), np.zeros(3, dtype=int), 5)
        with pytest.raises(ValueError, match="mismatch"):
            segment_sum_vec(np.ones((3, 2)), np.zeros(4, dtype=int), 5)


class TestScatterAdd:
    def test_broadcast_scalar_value(self):
        idx = np.array([1, 1, 4, 0])
        a = np.zeros(6)
        b = np.zeros(6)
        scatter_add(a, idx, 1.0, mode=SEGMENTED)
        np.add.at(b, idx, 1.0)
        np.testing.assert_array_equal(a, b)

    def test_sub_matches_subtract_at(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 8, size=64)
        v = rng.normal(size=(64, 3))
        a = rng.normal(size=(8, 3))
        b = a.copy()
        scatter_sub(a, idx, v, mode=SEGMENTED)
        np.subtract.at(b, idx, v)
        # nonzero target: fold-in of the dense sums reassociates vs the
        # sequential in-place subtraction
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-14)

    def test_3d_target_falls_back_to_ufunc(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 5, size=20)
        v = rng.normal(size=(20, 2, 2))
        a = np.zeros((5, 2, 2))
        b = np.zeros((5, 2, 2))
        scatter_add(a, idx, v, mode=SEGMENTED)
        np.add.at(b, idx, v)
        np.testing.assert_array_equal(a, b)

    def test_mode_resolution(self):
        assert scatter_mode(Device) == ATOMIC
        assert scatter_mode(Host) == SEGMENTED
        assert scatter_mode(None) == SEGMENTED
        with force_scatter_mode(ATOMIC):
            assert scatter_mode(Host) == ATOMIC
        with force_scatter_mode(SEGMENTED):
            assert scatter_mode(Device) == SEGMENTED
        assert scatter_mode(Device) == ATOMIC  # context restored

    def test_unknown_forced_mode_rejected(self):
        with pytest.raises(ValueError, match="scatter mode"):
            with force_scatter_mode("sideways"):
                pass


class TestScatterViewContribution:
    @pytest.fixture(autouse=True)
    def _runtime(self):
        kk.initialize("H100")
        yield
        kk.finalize()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_contribution_modes_bit_identical(self, seed):
        from repro.kokkos.scatter_view import ScatterView

        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 16, size=200)
        vals = rng.normal(size=(200, 3))
        results = {}
        for mode in (ATOMIC, SEGMENTED):
            target = kk.View((16, 3))
            sv = ScatterView(target, contribution=mode)
            sv.access().add(idx, vals)
            sv.contribute()
            results[mode] = target.data.copy()
        np.testing.assert_array_equal(results[ATOMIC], results[SEGMENTED])

    def test_forced_mode_sets_default_contribution(self):
        from repro.kokkos.scatter_view import ScatterView

        with force_scatter_mode(ATOMIC):
            sv = ScatterView(kk.View((4,), space=kk.Host))
        assert sv.contribution == ATOMIC
        sv = ScatterView(kk.View((4,), space=kk.Host))
        assert sv.contribution == SEGMENTED


class TestPairCacheJOrder:
    def test_j_order_is_a_stable_sort_and_memoized(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        cache = lmp.neigh_list.pair_cache()
        order = cache.j_order()
        assert order is cache.j_order()  # memoized per build
        _, j = lmp.neigh_list.ij_pairs()
        js = j[order]
        assert (np.diff(js) >= 0).all()
        # stability: within one destination, stored-pair order is preserved
        starts = np.flatnonzero(np.r_[True, js[1:] != js[:-1]])
        for lo, hi in zip(starts, np.r_[starts[1:], len(js)]):
            assert (np.diff(order[lo:hi]) > 0).all()

    def test_cache_invalidated_by_rebuild(self):
        lmp = make_melt(cells=2)
        lmp.command("neigh_modify every 1 delay 0 check no")
        lmp.command("run 0")
        before = lmp.neigh_list.pair_cache()
        lmp.command("run 2")
        assert lmp.neigh_list.pair_cache() is not before


# ------------------------------------------------- force-field equivalence
EAM_SCRIPT = """\
units metal
lattice fcc 3.52
region box block 0 2 0 2 0 2
create_box 1 box
create_atoms 1 box
mass 1 58.7
velocity all create 600 12345
pair_style eam/fs 4.5
pair_coeff * * 2.0 0.3
neighbor 1.0 bin
fix 1 all nve
"""

COUL_SCRIPT = """\
units lj
lattice fcc 0.8442
region b block 0 3 0 3 0 3
create_box 2 b
create_atoms 1 box
mass * 1.0
"""


def _make_coul():
    lmp = Lammps()
    lmp.commands_string(COUL_SCRIPT)
    lmp.atom.type[: lmp.atom.nlocal : 2] = 2
    lmp.commands_string(
        "pair_style lj/cut/coul/cut 2.5 3.0\npair_coeff * * 1.0 1.0\n"
        "set type 1 charge 0.5\nset type 2 charge -0.5\n"
        "velocity all create 1.0 321\nfix 1 all nve"
    )
    return lmp


def _make_morse():
    lmp = Lammps()
    lmp.commands_string(
        "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
        "create_box 1 b\ncreate_atoms 1 box\nmass 1 1.0\n"
        "velocity all create 1.44 87287\n"
        "pair_style morse 2.5\npair_coeff 1 1 1.0 5.0 1.1\nfix 1 all nve"
    )
    return lmp


def _make_table():
    lmp = Lammps()
    lmp.commands_string(
        "units lj\nlattice fcc 0.8442\nregion b block 0 3 0 3 0 3\n"
        "create_box 1 b\ncreate_atoms 1 box\nmass 1 1.0\n"
        "velocity all create 1.44 87287\n"
        "pair_style table 4000 2.5\npair_coeff 1 1 lj 1.0 1.0\nfix 1 all nve"
    )
    return lmp


def _make_eam():
    lmp = Lammps()
    lmp.commands_string(EAM_SCRIPT)
    return lmp


def _make_snap():
    from repro.workloads.tantalum import setup_tantalum

    lmp = Lammps()
    setup_tantalum(lmp, cells=2, pair_style="snap", twojmax=4)
    return lmp


def _make_reaxff():
    from repro.workloads.hns import setup_hns

    lmp = Lammps()
    # tight QEq: the iterative CG otherwise leaves solver-tolerance charge
    # differences (~1e-8) that swamp the scatter-mode comparison
    setup_hns(lmp, 2, 2, 2, pair_style="reaxff cutoff 5.0 qeq_tol 1e-13")
    lmp.command("neighbor 0.5 bin")
    return lmp


def _make_newton_off():
    lmp = make_melt(cells=3)
    lmp.command("newton off")
    return lmp


def _make_two_rank():
    return make_melt(cells=3, nranks=2)


def _make_kokkos():
    return make_melt(cells=3, device="H100", suffix="kk")


CASES = {
    "lj-half-newton": lambda: make_melt(cells=3),
    "lj-newton-off": _make_newton_off,
    "lj-two-rank": _make_two_rank,
    "lj-kokkos": _make_kokkos,
    "lj-coul-cut": _make_coul,
    "morse": _make_morse,
    "table": _make_table,
    "eam-fs": _make_eam,
    "snap": _make_snap,
    "reaxff": _make_reaxff,
}


def _forces_energy(target, mode: str):
    """Single force evaluation on frozen coordinates under one mode."""
    with force_scatter_mode(mode):
        target.command("run 0")
    ranks = target.ranks if hasattr(target, "ranks") else [target]
    f = gather_by_tag(target).copy()
    e = sum(r.pair.eng_vdwl + r.pair.eng_coul for r in ranks)
    return f, e


@pytest.mark.parametrize("case", sorted(CASES))
def test_force_equivalence_atomic_vs_segmented(case):
    """Forces and energies agree ≤1e-12 relative between scatter modes,
    on identical coordinates a few steps into real dynamics."""
    target = CASES[case]()
    target.command("run 3")  # move off the lattice (and build ghost layouts)
    fa, ea = _forces_energy(target, ATOMIC)
    fs, es = _forces_energy(target, SEGMENTED)
    scale = np.abs(fa).max() or 1.0
    np.testing.assert_allclose(fs, fa, rtol=1e-12, atol=1e-12 * scale)
    assert es == pytest.approx(ea, rel=1e-12, abs=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=5, deadline=None)
def test_force_equivalence_random_ghost_layouts(seed):
    """Random dilute configurations: every periodic image arrangement must
    give mode-equivalent forces (probes irregular neighbor/ghost shapes)."""
    rng = np.random.default_rng(seed)
    lmp = Lammps()
    lmp.commands_string(
        "units lj\nregion b block 0 5 0 5 0 5\ncreate_box 1 b"
    )
    pts = rng.uniform(0.0, 5.0, size=(24, 3))
    lmp.create_atoms_from_arrays(pts, np.ones(24, dtype=int))
    lmp.commands_string(
        "mass 1 1.0\npair_style lj/cut 2.5\npair_coeff 1 1 1.0 0.8\n"
        "neighbor 0.3 bin\nfix 1 all nve"
    )
    fa, ea = _forces_energy(lmp, ATOMIC)
    fs, es = _forces_energy(lmp, SEGMENTED)
    scale = np.abs(fa).max() or 1.0
    np.testing.assert_allclose(fs, fa, rtol=1e-12, atol=1e-12 * scale)
    assert es == pytest.approx(ea, rel=1e-12, abs=1e-12)
