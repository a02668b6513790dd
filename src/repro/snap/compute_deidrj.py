"""ComputeFusedDeidrj: per-pair force contraction (steps 3+4, fused).

For each (atom, neighbor) pair the weighted Wigner derivative is

    dU_pair/dr = (dsfac/dr) rhat (x) u_pair + sfac * du_pair,

(the ComputeDuidrj recursion), and the force contribution contracts it
against the folded adjoint over the half set:

    dE/dr = Re( dsfac rhat (V . u) + sfac (V . du) ),

so neither the weighted derivative nor the upper rows are ever staged.
All three Cartesian directions are evaluated in one pass — the paper's
ComputeFusedDeidrj, which eliminated the redundant recomputation of u and
the repeated loads of Y between the per-direction kernels (Table 2's
1.49x / 1.74x uplift).  Pairs are processed in chunks so the du recursion
never exceeds a bounded footprint — the Python analogue of eliminating
global-memory staging (section 4.3.3).
"""

from __future__ import annotations

import numpy as np

from repro.snap.wigner import compute_u_blocks, switching

#: pairs processed per chunk: keeps the derivative recursion's per-layer
#: temporaries (3 * rows * J * chunk complex) cache-resident
PAIR_CHUNK = 512


def compute_fused_deidrj(
    rij: np.ndarray,
    pair_i: np.ndarray,
    V: np.ndarray,
    rcut: float,
    twojmax: int,
    *,
    rmin0: float = 0.0,
    chunk: int = PAIR_CHUNK,
) -> np.ndarray:
    """``dE/dr_k`` for every pair, shape (npairs, 3) real.

    ``rij = x_neighbor - x_center``; ``V`` is the :func:`compute_yi`
    adjoint.  The caller applies Newton's third law (force on the
    neighbor, opposite force on the center).
    """
    npairs = rij.shape[0]
    dedr = np.zeros((npairs, 3))
    Vt = np.ascontiguousarray(V.T)  # (nhalf, natoms): gathers pairs last
    for lo in range(0, npairs, chunk):
        sl = slice(lo, min(lo + chunk, npairs))
        rij_c = rij[sl]
        u, du = compute_u_blocks(
            rij_c, rcut, rmin0=rmin0, twojmax=twojmax, derivatives=True
        )
        r = np.sqrt(np.einsum("ij,ij->i", rij_c, rij_c))
        sfac, dsfac = switching(r, rcut, rmin0)
        y = Vt[:, pair_i[sl]]
        yu = np.einsum("hp,hp->p", y, u).real
        ydu = np.einsum("hp,dhp->pd", y, du).real
        dedr[sl] = (dsfac * yu / r)[:, None] * rij_c + sfac[:, None] * ydu
    return dedr
