"""Failure injection and guard-rail coverage across the engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_melt
from repro.core import Lammps
from repro.core.errors import CommError, NeighborError, OverflowGuardError


class TestLostAndCorruptState:
    def test_forward_comm_detects_changed_ghost_counts(self):
        lmp = make_melt(cells=2)
        lmp.command("run 0")
        # sabotage: shrink a recorded swap's expectation
        lmp.comm_brick.swaps[0].nrecv += 1
        from repro.parallel.driver import drain

        with pytest.raises(CommError, match="size changed"):
            drain(lmp.comm_brick.forward_comm(lmp.atom))

    def test_exploding_dynamics_surfaces_as_numbers_not_hangs(self):
        lmp = make_melt(cells=2)
        lmp.command("velocity all create 1e6 1")  # absurd temperature
        lmp.command("neigh_modify every 1 delay 0 check yes")
        # atoms fly across the box; migration keeps every atom accounted for
        lmp.command("timestep 1e-6")
        lmp.command("run 5")
        assert lmp.atom.nlocal == lmp.natoms_total

    def test_overflow_guard_on_neighbor_index_width(self):
        from repro.core import neighbor as nb

        x = np.zeros((4, 3))
        # fake an absurd nall by monkeypatching the check threshold is not
        # possible cheaply; instead verify the guard exists and fires on the
        # documented condition via a constructed sparse case
        with pytest.raises(NeighborError):
            nb.build_neighbor_list(x, 10, 1.0)  # nlocal > nall

    def test_atom_capacity_growth_under_migration_burst(self):
        lmp = make_melt(cells=2, nranks=2)
        lmp.command("run 0")  # establishes the communication bricks
        # push all atoms into rank 0's subdomain and migrate
        lo, hi = lmp.ranks[0].decomp.subdomain(0)
        center = (lo + hi) / 2.0
        for r in lmp.ranks:
            r.atom.x[: r.atom.nlocal] = center
        from repro.parallel.driver import lockstep

        lockstep(
            [r.comm_brick.exchange(r.atom, r.domain.wrap) for r in lmp.ranks]
        )
        counts = [r.atom.nlocal for r in lmp.ranks]
        assert sum(counts) == lmp.ranks[0].natoms_total
        assert max(counts) == lmp.ranks[0].natoms_total  # all on one rank


def _snap_adjoint_case(twojmax: int, seed: int, natoms: int = 1):
    """``(idx, beta, U, V, rng)`` for ``natoms`` random 6-neighbor shells."""
    from repro.snap.compute_ui import compute_ui
    from repro.snap.compute_yi import compute_yi
    from repro.snap.indexing import SnapIndex
    from repro.snap.pair_snap import synthetic_beta

    idx = SnapIndex(twojmax)
    beta = synthetic_beta(idx.nbispectrum, 1.0, seed=seed % 97 + 1)
    rng = np.random.default_rng(seed)
    rij = rng.normal(size=(6 * natoms, 3))
    rij *= 3.0 / np.linalg.norm(rij, axis=1, keepdims=True)
    pair_i = np.repeat(np.arange(natoms), 6)
    U, _, _ = compute_ui(rij, pair_i, natoms, 4.7, twojmax)
    V = compute_yi(U, idx.adjoint_weights(beta), twojmax)
    return idx, beta, U, V, rng


class TestSNAPAdjointConsistency:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_y_adjoints_are_energy_gradients_in_u(self, seed):
        """V must be the exact on-manifold gradient of E = beta . B in U."""
        tj = 4
        idx, beta, U, V, rng = _snap_adjoint_case(tj, seed)

        # evaluate E = Re(sum beta C u1 u2 conj(u3)) directly from the
        # contraction tensor, independent of the folded adjoint
        t = idx.tensor
        w = beta[t.ib] * t.coeff

        def energy(u):
            return float(
                np.real((w * u[0, t.in1] * u[0, t.in2] * np.conj(u[0, t.out])).sum())
            )

        eps = 1e-7
        for h in rng.integers(0, idx.nhalf, size=4):
            m = idx.half[h]
            mbar, s = idx.mirror[m], idx.mirror_sign[m]
            # on-manifold perturbation: U[m] += d, U[m'] += s conj(d); the
            # self-mirror centre slots are real, so only real d there
            for part in (1.0,) if mbar == m else (1.0, 1j):
                fd_e = []
                for d in (part * eps, -part * eps):
                    up = U.copy()
                    up[0, m] += d
                    if mbar != m:
                        up[0, mbar] += s * np.conj(d)
                    fd_e.append(energy(up))
                fd = (fd_e[0] - fd_e[1]) / (2 * eps)
                expect = float(np.real(V[0, h] * part))
                # abs floor: central-difference round-off is ~ulp(E)/eps,
                # which for |E| ~ 10 exceeds 1e-8 when the derivative itself
                # is small (near-cancelling adjoint terms)
                assert fd == pytest.approx(expect, rel=1e-4, abs=5e-8)

    @pytest.mark.parametrize("twojmax", [2, 4, 6, 8])
    def test_folded_adjoint_matches_two_slot_oracle(self, twojmax):
        """Folding the two-slot partials (Y12 w.r.t. U, Y3 w.r.t. conj(U))
        onto the half set reproduces V."""
        idx, beta, U, V, _ = _snap_adjoint_case(twojmax, seed=11, natoms=2)
        t = idx.tensor
        w = beta[t.ib] * t.coeff
        rows = np.arange(U.shape[0])[:, None]
        y12 = np.zeros_like(U)
        y3 = np.zeros_like(U)
        np.add.at(y12, (rows, t.in1), w * U[:, t.in2] * np.conj(U[:, t.out]))
        np.add.at(y12, (rows, t.in2), w * U[:, t.in1] * np.conj(U[:, t.out]))
        np.add.at(y3, (rows, t.out), w * U[:, t.in1] * U[:, t.in2])
        # on the manifold conj(dU[m]) = s dU[m'], so dE = Re(G . dU) with
        # G[m] = Y12[m] + s Y3[m']; pairing m with m' gives V off the centres
        s, mir, half = idx.mirror_sign, idx.mirror, idx.half
        G = y12 + s * y3[:, mir]
        centre = mir[half] == half
        expect = G[:, half] + np.where(
            centre, 0.0, s[half] * np.conj(G[:, mir[half]])
        )
        np.testing.assert_allclose(
            V, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max()
        )

    @pytest.mark.parametrize("twojmax", [2, 4, 8])
    def test_energy_is_euler_contraction_of_adjoint(self, twojmax):
        """E is cubic in U, so beta . B = Re(sum_half V U) / 3."""
        from repro.snap.bispectrum import compute_bispectrum

        idx, beta, U, V, _ = _snap_adjoint_case(twojmax, seed=5, natoms=3)
        energy = float((compute_bispectrum(U, twojmax) @ beta).sum())
        euler = float(np.real((V * U[:, idx.half]).sum())) / 3.0
        assert euler == pytest.approx(energy, rel=1e-12)


class TestEwaldAccounting:
    def test_kernels_charged_with_kokkos_pair(self):
        import repro.kokkos as kk

        lmp = Lammps(device="H100", suffix="kk")
        lmp.commands_string(
            "units lj\nregion b block 0 4 0 4 0 4\ncreate_box 2 b"
        )
        pts, types = [], []
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    pts.append([i, j, k])
                    types.append(1 + (i + j + k) % 2)
        lmp.create_atoms_from_arrays(np.array(pts, float), np.array(types))
        # lj/cut/coul/cut/kk is kokkos-active; attach ewald on top of the
        # short-range style (physically double-counted Coulomb, but this
        # test only checks the accounting plumbing)
        lmp.commands_string(
            "mass * 1.0\nkspace_style ewald 1e-3\n"
            "pair_style lj/cut/coul/long 0.9 1.9\npair_coeff * * 0.0 1.0\n"
            "set type 1 charge 1.0\nset type 2 charge -1.0\n"
            "neighbor 0.1 bin\nfix 1 all nve"
        )
        lmp.command("run 1")
        # the plain long style is not kokkos; ewald charges only when a
        # kokkos style is active -> no device kernels is the correct outcome
        tl = kk.device_context().timeline
        assert "EwaldStructureFactor" not in tl.entries

    def test_reduce_protocol_single_vs_two_rank_energy(self):
        import sys

        sys.path.insert(0, "tests")
        from test_kspace_ewald import rocksalt, total_coulomb

        single = rocksalt(jiggle=0.03, seed=7)
        single.command("run 0")
        multi = rocksalt(jiggle=0.03, seed=7, nranks=2)
        multi.command("run 0")
        e1 = total_coulomb(single)
        e2 = sum(l.pair.eng_coul + l.kspace.energy_local for l in multi.ranks)
        assert e2 == pytest.approx(e1, rel=1e-10)
