"""Shared BinGrid subsystem: brute-force equivalence, sorting, sharing.

Property tests for the neighbor subsystem (paper section 4.1): the
shared-grid half-stencil builder must produce exactly the pair sets of an
O(n^2) reference across every style/newton/ghost combination, one grid
must serve lists at several cutoffs, spatial atom sorting must be a pure
permutation of the physics, and the recorded benchmark JSON must keep
its published schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.potentials  # noqa: F401  (register pair styles)
from repro.bench.neighbor import validate_neighbor_bench
from repro.core import Lammps
from repro.core.bin_grid import BinGrid, spatial_sort_order
from repro.core.neighbor import brute_force_pairs, build_neighbor_list
from repro.workloads.melt import setup_melt

REPO_ROOT = Path(__file__).resolve().parent.parent


def random_config(seed: int, n: int = 150, box: float = 8.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, box, size=(n, 3))


def normalized_pairs(nl) -> set[tuple[int, int]]:
    """Orientation-free pair set: scan order differs between builders."""
    i, j = nl.ij_pairs()
    return {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}


def reference_pairs(x, nlocal, cutoff, style, newton) -> tuple[np.ndarray, np.ndarray]:
    """O(n^2) oracle: the ``(i, j)`` rows LAMMPS's list rules define.

    Full lists hold every ``j != i`` within the cutoff of each owned ``i``.
    Half lists hold each owned pair once; a ghost pair is kept by the
    z-then-y-then-x coordinate tie-break with newton on (one of the two
    images survives), and by every owner with newton off.  The squared
    distance is summed in the builder's order so cutoff ties agree.
    """
    d = x[:nlocal, None, :] - x[None, :, :]
    rsq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]
    i, j = np.nonzero(rsq < cutoff * cutoff)
    keep = i != j
    if style == "half":
        local = j < nlocal
        keep &= ~local | (j > i)
        if newton:
            xi, xj = x[i], x[j]
            win = (xj[:, 2] > xi[:, 2]) | (
                (xj[:, 2] == xi[:, 2])
                & ((xj[:, 1] > xi[:, 1]) | ((xj[:, 1] == xi[:, 1]) & (xj[:, 0] > xi[:, 0])))
            )
            keep &= local | win
    return i[keep], j[keep]


def assert_matches_reference(nl, x, nlocal, cutoff, style, newton) -> None:
    i, j = reference_pairs(x, nlocal, cutoff, style, newton)
    want = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}
    assert normalized_pairs(nl) == want
    # half lists carry each physical pair once — no double count hiding
    # behind the set comparison
    assert nl.total_pairs == len(i)


class TestReferenceEquivalence:
    """The shared builder reproduces the brute-force list exactly."""

    @given(
        seed=st.integers(0, 500),
        cutoff=st.floats(0.8, 2.5),
        style=st.sampled_from(["half", "full"]),
        newton=st.booleans(),
        ghost_frac=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=40, deadline=None)
    def test_pair_sets_match_reference(self, seed, cutoff, style, newton, ghost_frac):
        x = random_config(seed)
        nlocal = len(x) - int(ghost_frac * len(x))
        nl = build_neighbor_list(x, nlocal, cutoff, style=style, newton=newton)
        assert_matches_reference(nl, x, nlocal, cutoff, style, newton)

    def test_ghost_heavy_layout(self):
        """Many ghosts (multi-rank border shells) under both newton modes."""
        x = random_config(7, n=240)
        nlocal = 80  # two thirds of the array is ghost shell
        for newton in (True, False):
            nl = build_neighbor_list(x, nlocal, 1.6, style="half", newton=newton)
            assert_matches_reference(nl, x, nlocal, 1.6, "half", newton)


class TestSharedGrid:
    """One grid per rebuild serves every cutoff's list."""

    def test_multi_cutoff_builds_match_independent(self):
        """Lists at several cutoffs from one grid == private-grid builds."""
        x = random_config(11, n=300)
        nlocal = 220
        cutmax = 2.4
        grid = BinGrid(x, nlocal, 0.5 * cutmax)
        for cutoff in (0.9, 1.5, cutmax):
            for style, newton in (("full", False), ("half", True)):
                shared = build_neighbor_list(
                    x, nlocal, cutoff, style=style, newton=newton, grid=grid
                )
                private = build_neighbor_list(
                    x, nlocal, cutoff, style=style, newton=newton
                )
                assert shared.build_stats["grid_builds"] == 0  # reused
                assert private.build_stats["grid_builds"] == 1
                assert normalized_pairs(shared) == normalized_pairs(private)

    def test_mismatched_grid_is_ignored(self):
        """A grid over different atoms can't poison the build."""
        x = random_config(13, n=120)
        stale = BinGrid(x[:60], 40, 1.0)
        nl = build_neighbor_list(x, len(x), 1.5, style="full", grid=stale)
        assert nl.build_stats["grid_builds"] == 1  # built its own
        got = set(zip(*[a.tolist() for a in nl.ij_pairs()]))
        assert got == brute_force_pairs(x, len(x), 1.5)

    def test_one_grid_per_rebuild_in_dynamics(self):
        """A melt run assembles exactly one BinGrid per neighbor rebuild."""
        lmp = Lammps(quiet=True)
        setup_melt(lmp, cells=3, pair_style="lj/cut")
        lmp.run(0)
        builds0, grids0 = lmp.neighbor.builds, BinGrid.builds_total
        lmp.run(10)
        rebuilds = lmp.neighbor.builds - builds0
        grids = BinGrid.builds_total - grids0
        assert rebuilds >= 1
        assert grids == rebuilds


class TestSpatialSort:
    """``atom_modify sort``: a pure relabeling of the same physics."""

    @given(seed=st.integers(0, 300), cutoff=st.floats(0.9, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_sorted_build_matches_brute_force(self, seed, cutoff):
        x = random_config(seed)
        perm = spatial_sort_order(x, 0.5 * cutoff)
        xs = x[perm]
        nl = build_neighbor_list(xs, len(xs), cutoff, style="full")
        # map sorted-index pairs back to original labels
        got = {
            (int(perm[i]), int(perm[j]))
            for i, j in zip(*[a.tolist() for a in nl.ij_pairs()])
        }
        assert got == brute_force_pairs(x, len(x), cutoff)

    def test_sort_order_is_permutation_and_stable(self):
        x = random_config(5, n=200)
        perm = spatial_sort_order(x, 1.0)
        assert sorted(perm.tolist()) == list(range(len(x)))
        # atoms sharing a cell keep their relative order (stable sort)
        again = spatial_sort_order(x, 1.0)
        assert np.array_equal(perm, again)

    def test_sorted_dynamics_matches_unsorted(self):
        """Melt energies agree with sorting on vs off (pure relabeling)."""

        def energies(sort_every: int) -> list[float]:
            lmp = Lammps(quiet=True)
            setup_melt(lmp, cells=3, pair_style="lj/cut")
            lmp.sort_every = sort_every
            lmp.command("run 15")
            last = lmp.thermo.history[-1]
            return [last["pe"], last["ke"]]

        on, off = energies(1), energies(0)
        assert on == pytest.approx(off, rel=1e-9)

    def test_atom_modify_command(self):
        lmp = Lammps(quiet=True)
        lmp.command("atom_modify sort 50 2.5")
        assert lmp.sort_every == 50
        assert lmp.sort_binsize == 2.5
        lmp.command("atom_modify sort 0 0.0")  # disable
        assert lmp.sort_every == 0


class TestThermoNeighborStats:
    def test_run_stats_carry_neighbor_columns(self):
        lmp = Lammps(quiet=True)
        setup_melt(lmp, cells=3, pair_style="lj/cut")
        lmp.run(2)
        stats = lmp.last_run_stats
        nl = lmp.neigh_list
        assert stats["neighbor_builds"] == lmp.neighbor.builds
        assert stats["max_neighs"] == int(nl.numneigh.max())
        assert stats["ave_neighs"] == pytest.approx(nl.mean_neighbors)

    def test_maxneigh_memoized_and_correct(self):
        x = random_config(17)
        nl = build_neighbor_list(x, len(x), 1.5, style="full")
        assert nl.maxneigh == int(nl.numneigh.max())
        assert nl.maxneigh is nl.maxneigh  # cached int object survives


class TestBenchSchema:
    def test_checked_in_bench_json_matches_schema(self):
        """Schema-stability guard over the committed BENCH_neighbor.json."""
        path = REPO_ROOT / "BENCH_neighbor.json"
        results = json.loads(path.read_text())
        validate_neighbor_bench(results)

    def test_validator_rejects_missing_workload(self):
        with pytest.raises(ValueError, match="missing workload"):
            validate_neighbor_bench(
                {"benchmark": "neighbor", "units": "s", "workloads": []}
            )
