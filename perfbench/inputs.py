"""Seeded input generators for the benchmark workloads.

Each generator turns a workload's ``generator`` record (``workloads.json``)
and a seed into the files the program reads: an input script, plus a data
file for workloads whose structure the script language cannot build.  The
seed drives the velocity seed (and, for HNS, the lattice jitter); the same
seed always gives byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

#: atoms per conventional cell
BASIS = {"fcc": 4, "bcc": 2}


def _physics(gen: dict, rng: random.Random, steps: int) -> str:
    """Velocities, force field, integrator and run: shared by every workload."""
    lines = [
        f"velocity all create {gen['temp']} {rng.randrange(1, 2**31 - 1)}",
        f"pair_style {gen['pair_style']}",
        f"pair_coeff {gen['pair_coeff']}",
        *([f"timestep {gen['timestep']}"] if "timestep" in gen else []),
        f"neighbor {gen['skin']} bin",
        f"neigh_modify every {gen['neigh_every']} delay 0 check {gen['neigh_check']}",
        "fix 1 all nve",
        f"thermo {gen['thermo']}",
        f"run {steps}",
    ]
    return "\n".join(lines) + "\n"


def _lattice(gen: dict, rng: random.Random, steps: int, workdir: Path) -> tuple[str, int]:
    """A one-type crystal the script language builds itself."""
    c = gen["cells"]
    script = (
        f"units {gen['units']}\n"
        f"lattice {gen['lattice']} {gen['scale']}\n"
        f"region box block 0 {c} 0 {c} 0 {c}\n"
        "create_box 1 box\n"
        "create_atoms 1 box\n"
        f"mass 1 {gen['mass']}\n"
    )
    return script + _physics(gen, rng, steps), BASIS[gen["lattice"]] * c**3


HNS_MASSES = {1: 12.011, 2: 1.008, 3: 14.007, 4: 15.999}  # C, H, N, O


def _hns_data(gen: dict, rng: random.Random, steps: int, workdir: Path) -> tuple[str, int]:
    """HNS-like CHNO crystal: O-C-N-C-O-H zig-zag chains on a molecular lattice."""
    nx, ny, nz = gen["cells"]
    cell = np.asarray(gen["cell_A"], dtype=float)
    types = np.asarray(gen["chain_types"], dtype=np.int64)
    k = np.arange(len(types))
    chain = np.stack(
        [k * gen["bond_dx"] + 0.6, np.where(k % 2 == 0, 0.0, gen["bond_dy"]) + 1.2,
         np.full(len(types), 1.6)],
        axis=1,
    )
    ii, jj, kk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    origins = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1) * cell
    x = (origins[:, None, :] + chain[None, :, :]).reshape(-1, 3)
    jitter = np.random.default_rng(rng.randrange(2**32)).uniform(
        -gen["jitter_A"], gen["jitter_A"], size=x.shape
    )
    x = x + jitter
    atom_types = np.tile(types, len(origins))
    hi = (cell * np.array([nx, ny, nz])).tolist()
    lines = [
        "HNS-like CHNO crystal (benchmark generator)", "",
        f"{len(x)} atoms", "4 atom types", "",
        f"0 {hi[0]!r} xlo xhi", f"0 {hi[1]!r} ylo yhi", f"0 {hi[2]!r} zlo zhi", "",
        "Masses", "",
        *(f"{t} {m}" for t, m in HNS_MASSES.items()), "",
        "Atoms # charge", "",
        *(f"{n + 1} {t} 0.0 {p[0]!r} {p[1]!r} {p[2]!r}"
          for n, (t, p) in enumerate(zip(atom_types.tolist(), x.tolist()))),
    ]
    data = workdir / "hns.data"
    data.write_text("\n".join(lines) + "\n")
    script = f"units real\natom_style charge\nread_data {data.name}\n"
    return script + _physics(gen, rng, steps), len(x)


GENERATORS = {"lattice": _lattice, "hns_data": _hns_data}


def make_inputs(workload: dict, seed: int, steps: int, workdir: Path) -> tuple[Path, int]:
    """Write the workload's input files for ``seed``; return (script, natoms)."""
    gen = workload["generator"]
    rng = random.Random(seed)
    script, natoms = GENERATORS[gen["kind"]](gen, rng, steps, workdir)
    path = workdir / "in.bench"
    path.write_text(script)
    return path, natoms
