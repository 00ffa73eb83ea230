"""Seeded benchmark inputs, generated once per seed and cached on disk.

Generation runs in its own process (``python3 perfbench/fleet.py KIND
SEED OUT...``) so neither its time nor its memory reaches any metric of
the process that measures releases.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

#: Per input kind: (fleets, objects, points per trajectory, road lattice
#: side, hotspots). ``release`` feeds gl-release and purel-publish: eight
#: dense fleets, released in turn, so that no one fleet's cost sets a
#: seed's figures. ``serve`` is serve-closed's mix of small per-job
#: fleets, several per seed for the same reason.
SHAPES = {"release": (8, 60, 150, 12, 8), "serve": (32, 24, 40, 16, 12)}


def fleet_csvs(kind: str, seed: int, root: Path, work: Path) -> list[Path]:
    """Paths of the cached ``kind`` fleet CSVs for ``seed``, generated
    in a child process on first use."""
    fleets = SHAPES[kind][0]
    shape = "x".join(map(str, SHAPES[kind]))
    paths = [
        work / "inputs" / f"{kind}-{shape}-seed{seed}-{part}.csv"
        for part in range(fleets)
    ]
    if all(path.is_file() for path in paths):
        return paths
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    staging = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in paths]
    subprocess.run(
        [sys.executable, str(Path(__file__)), kind, str(seed), *map(str, staging)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True,
        timeout=150,
    )
    for done, path in zip(staging, paths):
        done.replace(path)
    return paths


def _generate(kind: str, seed: int, outputs: list[str]) -> None:
    from repro.datagen.generator import FleetConfig, generate_fleet
    from repro.trajectory.io import write_csv

    _, objects, points, roads, hotspots = SHAPES[kind]
    for part, out in enumerate(outputs):
        fleet = generate_fleet(
            FleetConfig(
                n_objects=objects,
                points_per_trajectory=points,
                rows=roads,
                cols=roads,
                n_hotspots=hotspots,
                seed=seed * len(outputs) + part,
            )
        )
        write_csv(fleet.dataset, out)


if __name__ == "__main__":
    _generate(sys.argv[1], int(sys.argv[2]), sys.argv[3:])
