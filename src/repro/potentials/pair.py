"""Pair style base class (paper section 2.2).

A pair style owns per-type-pair coefficients, declares the neighbor list it
wants (half or full, newton on or off — the section 4.1 design space), and
tallies energies and the virial the way LAMMPS's ``ev_tally`` does:

* **half list, newton on** — each pair appears once globally: full energy,
  forces on both atoms (ghost forces reverse-communicated);
* **half list, newton off** — pairs with a ghost appear on both owning
  ranks: each side tallies half the energy and updates only its own atom;
* **full list** — every pair appears twice on this rank: each appearance
  tallies half the energy and updates atom ``i`` only.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import InputError, StyleError
from repro.kokkos.segment import scatter_add, scatter_mode, scatter_sub


class Pair:
    """Base pair style."""

    #: True on Kokkos-accelerated styles (drives DualView datamask syncs).
    kokkos_style = False
    #: True when the style can split its force work into an interior pass
    #: (pairs whose neighbor is an owned atom — independent of the halo
    #: exchange) and a boundary pass (pairs touching ghosts).  Styles that
    #: leave this False fall back to the serial exchange-then-compute path
    #: even when comm/compute overlap is requested.
    supports_overlap = False

    def __init__(self, lmp, args: list[str]) -> None:
        self.lmp = lmp
        self.eng_vdwl = 0.0
        self.eng_coul = 0.0
        self.virial = np.zeros(6)
        atom = lmp.require_box()
        n = atom.ntypes + 1
        self.cut = np.zeros((n, n))
        self.setflag = np.zeros((n, n), dtype=bool)
        self.settings(args)

    # -------------------------------------------------------- configuration
    def settings(self, args: list[str]) -> None:
        """Parse ``pair_style`` arguments."""
        raise NotImplementedError

    def coeff(self, args: list[str]) -> None:
        """Parse one ``pair_coeff`` line."""
        raise NotImplementedError

    def init(self) -> None:
        """Finalize coefficients (mixing) before a run."""
        n = self.cut.shape[0] - 1
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if not self.setflag[i, j]:
                    if self.setflag[i, i] and self.setflag[j, j]:
                        self.init_one(i, j)
                    else:
                        raise InputError(
                            f"pair coefficients for types ({i},{j}) not set"
                        )
                self.cut[j, i] = self.cut[i, j]

    def init_one(self, i: int, j: int) -> None:
        """Mix coefficients for an unset cross pair."""
        raise StyleError(
            f"{type(self).__name__} does not support coefficient mixing; "
            f"set pair_coeff for types ({i},{j}) explicitly"
        )

    def _parse_type(self, token: str) -> list[int]:
        """A type token: a number or ``*`` (all types)."""
        ntypes = self.cut.shape[0] - 1
        if token == "*":
            return list(range(1, ntypes + 1))
        t = int(token)
        if not 1 <= t <= ntypes:
            raise InputError(f"atom type {t} out of range [1, {ntypes}]")
        return [t]

    # ------------------------------------------------------------- queries
    def max_cutoff(self) -> float:
        return float(self.cut.max())

    def neighbor_request(self) -> tuple[str, bool]:
        """``(list_style, newton)`` this style wants."""
        return "half", self.lmp.newton_pair

    @property
    def needs_reverse_comm(self) -> bool:
        style, newton = self.neighbor_request()
        return style == "half" and newton

    # -------------------------------------------------------------- tallies
    def reset_tallies(self) -> None:
        self.eng_vdwl = 0.0
        self.eng_coul = 0.0
        self.virial[:] = 0.0

    def tally_pairs(
        self,
        evdwl: np.ndarray,
        dx: np.ndarray,
        fpair: np.ndarray,
        jlocal: np.ndarray,
        *,
        full_list: bool,
        newton: bool,
        ecoul: np.ndarray | None = None,
        w: np.ndarray | None = None,
    ) -> None:
        """ev_tally for a batch of pairs.

        ``fpair`` is the scalar force magnitude over r (force vector is
        ``fpair[:, None] * dx``); ``jlocal`` marks pairs whose j atom is
        owned by this rank.  Callers that already hold the force vectors
        may pass them as ``w`` to skip recomputing the product (it is
        bitwise-identical either way).
        """
        if full_list:
            factor = np.full(len(evdwl), 0.5)
        elif newton:
            factor = np.ones(len(evdwl))
        else:
            factor = np.where(jlocal, 1.0, 0.5)
        self.eng_vdwl += float(np.dot(factor, evdwl))
        if ecoul is not None:
            self.eng_coul += float(np.dot(factor, ecoul))
        if w is None:
            w = fpair[:, None] * dx
        # virial components xx, yy, zz, xy, xz, yz
        self.virial[0] += float(np.dot(factor, dx[:, 0] * w[:, 0]))
        self.virial[1] += float(np.dot(factor, dx[:, 1] * w[:, 1]))
        self.virial[2] += float(np.dot(factor, dx[:, 2] * w[:, 2]))
        self.virial[3] += float(np.dot(factor, dx[:, 0] * w[:, 1]))
        self.virial[4] += float(np.dot(factor, dx[:, 0] * w[:, 2]))
        self.virial[5] += float(np.dot(factor, dx[:, 1] * w[:, 2]))

    # ----------------------------------------------------- pair-table cache
    def pair_table(
        self, nlist, atom, phase: str = "all"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Neighbor-constant per-pair arrays ``(i, j, itype, jtype, cutsq)``.

        All five come from the list's :class:`~repro.core.neighbor.PairCache`
        — computed once per rebuild instead of re-gathered every force call.
        ``phase`` restricts to the interior/boundary split of the overlap
        driver (itself cached).
        """
        cache = nlist.pair_cache()
        i, j = cache.ij()
        itype, jtype = cache.type_pairs(atom.type)
        cutsq = cache.cutsq_pairs(self.cut)
        sel = cache.phase_sel(phase)
        if sel is None:
            return i, j, itype, jtype, cutsq
        return i[sel], j[sel], itype[sel], jtype[sel], cutsq[sel]

    def scatter_pair_forces(
        self,
        atom,
        i: np.ndarray,
        j: np.ndarray,
        fvec: np.ndarray,
        jlocal: np.ndarray,
        newton: bool,
    ) -> None:
        """Accumulate ``+fvec`` on i and ``-fvec`` on j (half-list styles).

        The i side is a sorted segmented reduction (stored pairs are
        row-major, and cutoff masks preserve that order).  The j side is
        unsorted; for 3-wide force rows the per-column bincount inside
        :func:`~repro.kokkos.segment.scatter_sub` beats replaying the pair
        cache's j-sort, which would have to gather the value rows into
        sorted order every step (wide per-pair rows are where
        ``PairCache.j_order`` pays off instead).
        """
        mode = scatter_mode()
        scatter_add(atom.f, i, fvec, mode=mode, assume_sorted=True)
        if newton:
            scatter_sub(atom.f, j, fvec, mode=mode)
        else:
            scatter_sub(atom.f, j[jlocal], fvec[jlocal], mode=mode)

    # ------------------------------------------------- interior/boundary
    @staticmethod
    def phase_pairs(nlist, phase: str) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(i, j)`` pair arrays restricted to an overlap phase.

        ``"all"`` is the whole list; ``"interior"`` keeps pairs whose j atom
        is owned (safe to evaluate while the halo exchange is in flight);
        ``"boundary"`` keeps pairs whose j atom is a ghost.  The selection
        indices are memoized on the list's pair cache.
        """
        i, j = nlist.ij_pairs()
        if phase == "all":
            return i, j
        if phase not in ("interior", "boundary"):
            raise StyleError(f"unknown compute phase {phase!r}")
        sel = nlist.pair_cache().phase_sel(phase)
        return i[sel], j[sel]

    def compute_phase(
        self, phase: str, eflag: bool = True, vflag: bool = True
    ) -> None:
        """Run one overlap phase.  Styles with ``supports_overlap`` override."""
        raise StyleError(
            f"{type(self).__name__} does not support phased (overlapped) compute"
        )

    # ------------------------------------------------------ pair workspace
    def pair_workspace(self, phase: str = "all"):
        """The current list's :class:`~repro.core.neighbor.PairWorkspace`.

        One per overlap phase, built on first use after a rebuild and
        released by the next one (see ``Lammps.rebuild_gen``).
        """
        cache = self.lmp.neigh_list.pair_cache()
        return cache.workspace(phase, self.lmp.atom.type, self.cut)

    def pair_eval_ws(self, ws) -> tuple[np.ndarray, np.ndarray]:
        """``(fpair, evdwl)`` over a workspace's cut pairs.

        The generic form decodes the type pairs and defers to
        :meth:`pair_eval`; styles override it to read their coefficient
        tables through ``ws.tp`` into workspace scratch (see ``LJMixin``).
        """
        itype, jtype = ws.type_pairs()
        return self.pair_eval(ws.rsq, itype, jtype)

    # --------------------------------------------------------------- hooks
    def compute(self, eflag: bool = True, vflag: bool = True) -> None:
        raise NotImplementedError
