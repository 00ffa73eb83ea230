"""Set-up probe: import what a workload needs, build its spec, say so.

``python3 perfbench/setup_probe.py WORKLOAD`` prints ``ready`` once
the process could start its first release; run.py times it from the
outside as ``setup_s``.
"""

import sys

from workload_engine import MODELS, cli_spec

from repro.api import build, publish, run  # noqa: F401
from repro.data.registry import load_dataset  # noqa: F401
from repro.trajectory.io import write_csv  # noqa: F401

if sys.argv[1] == "purel-publish":
    import repro.engine.publish  # noqa: F401

build(cli_spec(MODELS[sys.argv[1]], 0))
print("ready")
