"""Plain (non-Kokkos) Lennard-Jones pair style: ``pair_style lj/cut``.

Equation 1 of the paper: ``E = sum 4 eps [(sigma/r)^12 - (sigma/r)^6]`` over
pairs within the cutoff.  This is the baseline host implementation — half
neighbor list, newton per the global setting — against which the Kokkos
variants are verified and benchmarked (figure 5's CPU normalization).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError
from repro.core.styles import register_pair
from repro.potentials.pair import Pair


class LJMixin:
    """Shared LJ coefficient handling (plain and Kokkos styles)."""

    def _lj_alloc(self) -> None:
        n = self.cut.shape[0]
        self.epsilon = np.zeros((n, n))
        self.sigma = np.zeros((n, n))
        # precomputed kernel constants, LAMMPS names: lj1/lj2 force,
        # lj3/lj4 energy
        self.lj1 = np.zeros((n, n))
        self.lj2 = np.zeros((n, n))
        self.lj3 = np.zeros((n, n))
        self.lj4 = np.zeros((n, n))
        self.offset = np.zeros((n, n))
        self.shift = False

    def settings(self, args: list[str]) -> None:
        if len(args) < 1:
            raise InputError("pair_style lj/cut expects a global cutoff")
        self.cut_global = float(args[0])
        if self.cut_global <= 0:
            raise InputError("cutoff must be positive")
        self._lj_alloc()

    def coeff(self, args: list[str]) -> None:
        if len(args) < 4:
            raise InputError("pair_coeff i j epsilon sigma [cutoff]")
        ti = self._parse_type(args[0])
        tj = self._parse_type(args[1])
        eps, sig = float(args[2]), float(args[3])
        cut = float(args[4]) if len(args) > 4 else self.cut_global
        for i in ti:
            for j in tj:
                a, b = min(i, j), max(i, j)
                self.epsilon[a, b] = eps
                self.sigma[a, b] = sig
                self.cut[a, b] = cut
                self.setflag[a, b] = True
                self._set_constants(a, b)

    def init_one(self, i: int, j: int) -> None:
        # Lorentz-Berthelot mixing: geometric epsilon, arithmetic sigma.
        self.epsilon[i, j] = np.sqrt(self.epsilon[i, i] * self.epsilon[j, j])
        self.sigma[i, j] = 0.5 * (self.sigma[i, i] + self.sigma[j, j])
        self.cut[i, j] = max(self.cut[i, i], self.cut[j, j])
        self.setflag[i, j] = True
        self._set_constants(i, j)

    def _set_constants(self, i: int, j: int) -> None:
        eps, sig = self.epsilon[i, j], self.sigma[i, j]
        self.lj1[i, j] = self.lj1[j, i] = 48.0 * eps * sig**12
        self.lj2[i, j] = self.lj2[j, i] = 24.0 * eps * sig**6
        self.lj3[i, j] = self.lj3[j, i] = 4.0 * eps * sig**12
        self.lj4[i, j] = self.lj4[j, i] = 4.0 * eps * sig**6
        for (a, b) in ((i, j), (j, i)):
            self.epsilon[a, b] = eps
            self.sigma[a, b] = sig
            self.cut[a, b] = self.cut[i, j]
            self.setflag[a, b] = True

    def init(self) -> None:
        super().init()
        self.offset[:] = 0.0
        if self.shift:
            with np.errstate(divide="ignore"):
                rc6 = np.where(self.cut > 0, self.cut, np.inf) ** -6
            self.offset = self.lj3 * rc6 * rc6 - self.lj4 * rc6

    def pair_eval(
        self, rsq: np.ndarray, itype: np.ndarray, jtype: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(fpair, evdwl)`` for pair distances^2 and type pairs."""
        r2inv = 1.0 / rsq
        r6inv = r2inv * r2inv * r2inv
        lj1 = self.lj1[itype, jtype]
        lj2 = self.lj2[itype, jtype]
        forcelj = r6inv * (lj1 * r6inv - lj2)
        fpair = forcelj * r2inv
        evdwl = r6inv * (self.lj3[itype, jtype] * r6inv - self.lj4[itype, jtype])
        evdwl -= self.offset[itype, jtype]
        return fpair, evdwl

    def pair_eval_ws(self, ws) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`pair_eval` over a workspace's cut pairs, op for op.

        The 2-D coefficient lookups become 1-D ``np.take`` gathers through
        the type-pair index, and every ufunc writes workspace scratch
        (``1/rsq`` overwrites ``ws.rsq``); the operation sequence is the
        one of :meth:`pair_eval`, so the results are bitwise-equal.
        """
        r2 = np.divide(1.0, ws.rsq, out=ws.rsq)
        r6 = np.multiply(r2, r2, out=ws.scratch(1))
        np.multiply(r6, r2, out=r6)
        t = ws.gather(self.lj1, 2)
        np.multiply(t, r6, out=t)
        np.subtract(t, ws.gather(self.lj2, 3), out=t)
        np.multiply(r6, t, out=t)
        fpair = np.multiply(t, r2, out=t)
        e = ws.gather(self.lj3, 4)
        np.multiply(e, r6, out=e)
        np.subtract(e, ws.gather(self.lj4, 3), out=e)
        np.multiply(r6, e, out=e)
        evdwl = np.subtract(e, ws.gather(self.offset, 3), out=e)
        return fpair, evdwl


@register_pair("lj/cut")
class PairLJCut(LJMixin, Pair):
    """Host LJ with a half neighbor list (the classic CPU path)."""

    supports_overlap = True

    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        self.reset_tallies()
        nlist = self.lmp.neigh_list
        if nlist is None or nlist.total_pairs == 0:
            return
        self._compute_pairs("all", eflag, vflag)

    def compute_phase(
        self, phase: str, eflag: bool = True, vflag: bool = True
    ) -> None:
        if phase in ("all", "interior"):
            self.reset_tallies()
        nlist = self.lmp.neigh_list
        if nlist is None or nlist.total_pairs == 0:
            return
        self._compute_pairs(phase, eflag, vflag)

    def _compute_pairs(self, phase: str, eflag: bool, vflag: bool) -> None:
        atom = self.lmp.atom
        ws = self.pair_workspace(phase)
        if not ws.stored:
            return
        ws.geometry(atom.x)
        fpair, evdwl = self.pair_eval_ws(ws)
        fvec = ws.fvec(fpair)

        newton = self.lmp.newton_pair
        jlocal = ws.jlocal()
        self.scatter_pair_forces(atom, ws.i, ws.j, fvec, jlocal, newton)
        if eflag or vflag:
            self.tally_pairs(
                evdwl, ws.dx, fpair, jlocal, full_list=False, newton=newton, w=fvec
            )
