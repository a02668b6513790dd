"""ComputeYi: the folded adjoint (step 2 of the SNAP evaluation).

The energy is trilinear in the U totals,

    E_i = sum_b beta_b sum_t C_t U[in1] U[in2] conj(U[out]).

Through the mirror identity ``conj(U[m]) = s_m U[m']`` (``m'`` the mirror
slot, ``s_m = (-1)^(mb + ma)``; see :mod:`repro.snap.indexing`) every term
is a product of three bare U's, and since U lives on the mirror-symmetric
manifold its free variables are the half-set slots.  The gradient therefore
collapses into one complex adjoint ``V`` over the half set:

    dE_i = Re( sum_{m in half} V[m] dU[m] ),

for any on-manifold variation (``dU[m'] = s_m conj(dU[m])``; real on the
self-mirror centre slots).  Each term contributes to its three factors'
slots; a slot outside the half set folds onto its mirror, and duplicate
``(slot, factor pair)`` entries merge, so the folded tensor
(:class:`~repro.snap.indexing.AdjointTensor`) has 30,047 terms at ``2J = 8``
against the 3 x 32,578 products of the unfolded partials — LAMMPS's
single-Y form.  Its weights are linear in beta and computed once per
``pair_coeff`` (:meth:`SnapIndex.adjoint_weights`).  By Euler's theorem
``E_i = Re(sum_half V U) / 3``.

The ``batch`` knob models section 4.3.4's ComputeYi work batching: threads
handling several atoms share the Clebsch-Gordan look-up table traffic,
reducing L1 transactions (Table 2's 1.54x on H100).
"""

from __future__ import annotations

import numpy as np

from repro.snap.indexing import SnapIndex


def compute_yi(U: np.ndarray, weights: np.ndarray, twojmax: int) -> np.ndarray:
    """Adjoint ``V`` (natoms, nhalf) of the energy over the half set.

    ``weights`` are :meth:`SnapIndex.adjoint_weights` of the coefficients.
    """
    idx = SnapIndex(twojmax)
    a = idx.adjoint
    if weights.shape != (a.nterms,):
        raise ValueError(f"weights have {weights.shape}, expected ({a.nterms},)")
    V = np.zeros((U.shape[0], idx.nhalf), dtype=np.complex128)
    for i in range(U.shape[0]):
        u = U[i]
        prod = u[a.f1] * u[a.f2]
        prod *= weights
        V[i, a.targets] = np.add.reduceat(prod, a.starts)
    return V


def yi_l1_transactions(natoms: int, nterms: int, batch: int = 1) -> float:
    """L1 look-up-table transactions (cost-profile helper).

    The CG coefficient stream is shared across atoms; batching ``batch``
    atoms per thread amortizes it (section 4.3.4).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    return nterms * (natoms / batch + natoms)
