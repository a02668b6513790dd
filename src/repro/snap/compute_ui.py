"""ComputeUi: accumulate per-pair Wigner matrices into per-atom U.

Step (1) of the paper's four-step SNAP evaluation: every (atom, neighbor)
pair's ``u_j`` set is weighted by the radial switching function and summed
into the per-atom total ``U_j``; the central atom contributes the identity
(``wself`` on the diagonal).  On GPUs this accumulation is the
atomic-addition-limited kernel whose work batching (each thread summing
``batch`` neighbors locally before one atomic add) gives the 2.23x H100
uplift of Table 2 — the ``batch`` argument reproduces that reduction in
atomic traffic for the cost model while leaving results bit-identical.

Only the half set is accumulated per pair; the upper rows of each per-atom
total come from the mirror identity (:meth:`SnapIndex.expand_half`).
"""

from __future__ import annotations

import numpy as np

from repro.kokkos.segment import scatter_add
from repro.snap.indexing import SnapIndex
from repro.snap.wigner import compute_u_blocks, switching


def compute_ui(
    rij: np.ndarray,
    pair_i: np.ndarray,
    natoms: int,
    rcut: float,
    twojmax: int,
    *,
    rmin0: float = 0.0,
    wself: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-atom totals.

    Returns ``(U, u_pairs, sfac)``: ``U`` is (natoms, idxu_max) complex,
    ``u_pairs`` the bare per-pair half-set matrices (nhalf, npairs), and
    ``sfac`` the per-pair switching weights.
    """
    idx = SnapIndex(twojmax)
    u_pairs, _ = compute_u_blocks(rij, rcut, rmin0=rmin0, twojmax=twojmax)
    r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
    sfac, _ = switching(r, rcut, rmin0)

    Uh = np.zeros((natoms, idx.nhalf), dtype=np.complex128)
    # pair_i follows the row-major list ordering, so the per-atom totals are
    # one reduceat over contiguous segments instead of atomic adds
    scatter_add(Uh, pair_i, (u_pairs * sfac).T, assume_sorted=True)
    # the upper rows follow from the mirror identity per atom, not per pair
    U = idx.expand_half(Uh)
    U[:, idx.diag_indices()] += wself
    return U, u_pairs, sfac


def ui_atomic_adds(npairs: int, idxu_max: int, batch: int = 1) -> float:
    """Atomic FP64 additions ComputeUi issues (cost-profile helper).

    Each pair contributes ``2 * idxu_max`` scalar adds (complex); local
    pre-summing over ``batch`` neighbors divides the atomic traffic
    (section 4.3.4's ComputeUi optimization).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    return 2.0 * idxu_max * npairs / batch
