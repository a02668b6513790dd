"""Embedded Atom Method pair style: ``pair_style eam/fs``.

EAM (Daw & Baskes 1983) is the many-body potential the paper's figure 1
uses to illustrate the KOKKOS class hierarchy — notably its *additional
communication*: the embedding derivative ``F'(rho_i)`` computed in the
density loop must be forward-communicated to ghost atoms before the force
loop can run.

The functional form here is a compact Finnis-Sinclair flavor with smooth
cutoffs (no potential files needed offline):

* density contribution   ``f(r)   = (rc - r)^2``
* embedding energy        ``F(rho) = -A * sqrt(rho)``
* pair repulsion          ``phi(r) = c * (rc - r)^2``

so ``E_i = F(rho_i) + 1/2 sum_j phi(r_ij)`` with
``rho_i = sum_j f(r_ij)``.  It is a real many-body potential (forces verified
against finite differences in the tests) with exactly LAMMPS-EAM's
communication and loop structure.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.kokkos.segment import scatter_add
from repro.potentials.pair import Pair


class EAMMixin:
    """Shared EAM parameter handling and math."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style eam/fs expects a cutoff")
        self.cut_global = float(args[0])
        if self.cut_global <= 0:
            raise InputError("cutoff must be positive")
        n = self.cut.shape[0]
        self.embed_A = np.zeros(n)  # per-type embedding strength
        self.pair_c = np.zeros((n, n))  # pair repulsion strength

    def coeff(self, args: list[str]) -> None:
        if len(args) != 4:
            raise InputError("pair_coeff i j <A_embed> <c_pair>")
        ti = self._parse_type(args[0])
        tj = self._parse_type(args[1])
        A, c = float(args[2]), float(args[3])
        if A < 0 or c < 0:
            raise InputError("eam/fs coefficients must be non-negative")
        for i in ti:
            self.embed_A[i] = A
        for i in ti:
            for j in tj:
                self.pair_c[i, j] = self.pair_c[j, i] = c
                self.cut[i, j] = self.cut[j, i] = self.cut_global
                self.setflag[i, j] = self.setflag[j, i] = True

    # analytic pieces -------------------------------------------------------
    def dens(self, r: np.ndarray) -> np.ndarray:
        return (self.cut_global - r) ** 2

    def ddens(self, r: np.ndarray) -> np.ndarray:
        return -2.0 * (self.cut_global - r)

    def embed(self, rho: np.ndarray, types: np.ndarray) -> np.ndarray:
        return -self.embed_A[types] * np.sqrt(np.maximum(rho, 0.0))

    def dembed(self, rho: np.ndarray, types: np.ndarray) -> np.ndarray:
        safe = np.maximum(rho, 1e-30)
        return -0.5 * self.embed_A[types] / np.sqrt(safe)

    def phi(self, r: np.ndarray, tp: np.ndarray) -> np.ndarray:
        """Pair repulsion; ``tp`` indexes the flattened ``pair_c`` table."""
        return np.take(self.pair_c.ravel(), tp) * (self.cut_global - r) ** 2

    def dphi(self, r: np.ndarray, tp: np.ndarray) -> np.ndarray:
        return -2.0 * np.take(self.pair_c.ravel(), tp) * (self.cut_global - r)


@register_pair("eam/fs")
class PairEAM(EAMMixin, Pair):
    """Host EAM: full neighbor list for the density loop simplicity."""

    supports_overlap = True

    def neighbor_request(self) -> tuple[str, bool]:
        # A full list makes both loops one-sided: each atom accumulates its
        # own density and its own force; no reverse communication needed.
        return "full", False

    # ------------------------------------------------------------- helpers
    def _pair_geometry(self, phase: str = "all", x: np.ndarray | None = None):
        """Cutoff-masked geometry ``(i, j, dx, r, tp, stored)`` for pairs.

        Computed in the phase's pair workspace against ``x`` (default: the
        host positions); ``tp`` is each cut pair's type-pair index and
        ``stored`` the phase's stored-pair count.  The arrays are workspace
        views, valid until the phase's next geometry pass.
        """
        ws = self.pair_workspace(phase)
        ws.geometry(self.lmp.atom.x if x is None else x)
        r = np.sqrt(ws.rsq, out=ws.rsq)
        return ws.i, ws.j, ws.dx, r, ws.tp, ws.stored

    def _embed_locals(self) -> None:
        """Embedding energy and its derivative fp for owned atoms."""
        atom = self.lmp.atom
        rho_local = atom.rho[: atom.nlocal]
        types_local = atom.type[: atom.nlocal]
        self.eng_vdwl += float(self.embed(rho_local, types_local).sum())
        atom.fp[: atom.nlocal] = self.dembed(rho_local, types_local)

    def _force_pass(
        self, i, j, dx, r, tp, eflag, vflag, *, sorted_i: bool = True
    ) -> None:
        atom = self.lmp.atom
        fp_sum = atom.fp[i] + atom.fp[j]
        dphi = self.dphi(r, tp)
        ddens = self.ddens(r)
        # dE/dr for the (i, j) bond as seen from atom i (full list: each
        # bond visited from both ends, so no factor 2).
        fpair = -(dphi + fp_sum * ddens) / r
        fvec = fpair[:, None] * dx
        scatter_add(atom.f, i, fvec, assume_sorted=sorted_i)
        if eflag or vflag:
            evdwl = self.phi(r, tp)
            self.tally_pairs(
                evdwl, dx, fpair, j < atom.nlocal, full_list=True, newton=False
            )

    # ------------------------------------------------------------- compute
    def compute_gen(self, eflag: bool = True, vflag: bool = True) -> Iterator[None]:
        lmp = self.lmp
        atom = lmp.atom
        nlist = lmp.neigh_list
        self.reset_tallies()
        atom.rho[: atom.nall] = 0.0
        atom.fp[: atom.nall] = 0.0
        if nlist is None or nlist.total_pairs == 0:
            return

        i, j, dx, r, tp, _ = self._pair_geometry()

        # Loop 1: electron density of owned atoms.
        scatter_add(atom.rho, i, self.dens(r), assume_sorted=True)
        self._embed_locals()

        # Figure 1's "additional communication": ghosts need fp before the
        # force loop can evaluate (fp_i + fp_j).
        yield from lmp.comm_brick.forward_comm_field(atom, "fp")

        # Loop 2: forces and pair energy.
        self._force_pass(i, j, dx, r, tp, eflag, vflag)

    def compute_overlap_gen(
        self, inflight, eflag: bool = True, vflag: bool = True
    ) -> Iterator[None]:
        """Overlapped compute: interior density runs while the halo is in
        flight; boundary density and everything downstream wait for it.

        The force loop itself cannot start before the fp forward comm, so
        only the density loop's interior portion hides the position halo —
        exactly the split available to real EAM.
        """
        lmp = self.lmp
        atom = lmp.atom
        nlist = lmp.neigh_list
        self.reset_tallies()
        atom.rho[: atom.nall] = 0.0
        atom.fp[: atom.nall] = 0.0
        if nlist is None or nlist.total_pairs == 0:
            yield from inflight.finish()
            return

        # Interior density: both atoms owned, positions already final.
        ii, ji, dxi, ri, tpi, _ = self._pair_geometry("interior")
        scatter_add(atom.rho, ii, self.dens(ri), assume_sorted=True)

        # Synchronize the position halo, then fold in ghost-pair density.
        yield from inflight.finish()
        lmp.mark_host_writes("x")
        ib, jb, dxb, rb, tpb, _ = self._pair_geometry("boundary")
        scatter_add(atom.rho, ib, self.dens(rb), assume_sorted=True)
        self._embed_locals()

        yield from lmp.comm_brick.forward_comm_field(atom, "fp")

        # the interior+boundary concatenation interleaves the i ordering, so
        # the force scatter cannot assume sorted segments here
        self._force_pass(
            np.concatenate([ii, ib]),
            np.concatenate([ji, jb]),
            np.concatenate([dxi, dxb]),
            np.concatenate([ri, rb]),
            np.concatenate([tpi, tpb]),
            eflag,
            vflag,
            sorted_i=False,
        )
