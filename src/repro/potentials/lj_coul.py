"""Charged pairwise style: ``pair_style lj/cut/coul/cut`` (+ ``/kk``).

Section 4 of the paper: "electrically charged systems may add the Coulomb
potential as well."  LJ dispersion plus a cut-off Coulomb term

    E = 4 eps [(s/r)^12 - (s/r)^6]  +  C q_i q_j / r

with independent LJ and Coulomb cutoffs, LAMMPS-style.  The Kokkos variant
again reuses the whole pair_kokkos execution machinery; the only addition
is that ``pair_eval_q`` consumes the charge array.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.potentials.lj import LJMixin
from repro.potentials.pair import Pair
from repro.potentials.pair_kokkos import PairKokkos


class LJCoulMixin(LJMixin):
    """LJ + cut Coulomb coefficient handling and kernel."""

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style lj/cut/coul/cut <cut_lj> [cut_coul]")
        super().settings(args[:1])
        self.cut_coul = float(args[1]) if len(args) > 1 else self.cut_global
        if self.cut_coul <= 0:
            raise InputError("coulomb cutoff must be positive")

    def init(self) -> None:
        super().init()
        # the interaction (neighbor) cutoff is the larger of the two; the
        # LJ term keeps its own table for masking inside the kernel
        self.cut_lj = self.cut.copy()
        grown = np.maximum(self.cut, self.cut_coul)
        self.cut = np.where(self.setflag, grown, self.cut)

    def pair_eval_q(
        self,
        rsq: np.ndarray,
        itype: np.ndarray,
        jtype: np.ndarray,
        qi: np.ndarray,
        qj: np.ndarray,
        qqr2e: float,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(fpair, evdwl, ecoul)`` with each term masked by its own cutoff."""
        r2inv = 1.0 / rsq
        lj_mask = rsq < self.cut_lj[itype, jtype] ** 2
        # call the LJ expression explicitly: the Kokkos subclass overrides
        # pair_eval to route through this method (avoid the cycle)
        fpair, evdwl = LJMixin.pair_eval(self, rsq, itype, jtype)
        fpair = np.where(lj_mask, fpair, 0.0)
        evdwl = np.where(lj_mask, evdwl, 0.0)

        coul_mask = rsq < self.cut_coul**2
        rinv = np.sqrt(r2inv)
        ecoul = np.where(coul_mask, qqr2e * qi * qj * rinv, 0.0)
        fpair = fpair + ecoul * r2inv  # d/dr of C q q / r, over r
        return fpair, evdwl, ecoul


@register_pair("lj/cut/coul/cut")
class PairLJCutCoulCut(LJCoulMixin, Pair):
    """Host charged LJ with a half neighbor list."""

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        lmp = self.lmp
        atom = lmp.atom
        nlist = lmp.neigh_list
        self.reset_tallies()
        if nlist is None or nlist.total_pairs == 0:
            return
        i, j, itype, jtype, cutsq = self.pair_table(nlist, atom)
        x = atom.x[: atom.nall]
        q = atom.q[: atom.nall]
        dx = x[i] - x[j]
        rsq = np.einsum("ij,ij->i", dx, dx)
        mask = rsq < cutsq
        i, j, dx, rsq = i[mask], j[mask], dx[mask], rsq[mask]
        itype, jtype = itype[mask], jtype[mask]
        fpair, evdwl, ecoul = self.pair_eval_q(
            rsq, itype, jtype, q[i], q[j], lmp.update.units.qqr2e
        )
        fvec = fpair[:, None] * dx
        jlocal = j < atom.nlocal
        self.scatter_pair_forces(atom, i, j, fvec, jlocal, lmp.newton_pair)
        if eflag or vflag:
            self.tally_pairs(
                evdwl, dx, fpair, jlocal,
                full_list=False, newton=lmp.newton_pair, ecoul=ecoul,
            )


@register_pair("lj/cut/coul/cut/kk")
class PairLJCutCoulCutKokkos(LJCoulMixin, PairKokkos):
    """Charged LJ on the shared Kokkos machinery.

    Overrides the generic evaluation hook to thread charges through;
    everything else — list styles, ScatterView, team variant, profiles —
    is inherited.
    """

    # runs the serial exchange-then-compute path even when overlap is asked
    supports_overlap = False

    def kernel_name(self) -> str:
        return "PairComputeLJCutCoulCut"

    def pair_eval_ws(self, ws):
        # the workspace carries the cut pairs' (i, j), so the charges pair up
        # directly; fold coulomb into the vdW tally (the generic base
        # tallies one energy channel; the host style splits them)
        q = self.lmp.atom.q
        itype, jtype = ws.type_pairs()
        fpair, evdwl, ecoul = self.pair_eval_q(
            ws.rsq, itype, jtype, q[ws.i], q[ws.j], self.lmp.update.units.qqr2e
        )
        return fpair, evdwl + ecoul
