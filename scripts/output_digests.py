"""SHA-256 digests of the pipeline's outputs on the shipped fixtures, in
both seam modes: the G-code, and the report with its timings removed
(`timings_s` and the ordering layers' `*_s` stage times). Two checkouts
that print the same lines give the same outputs.

    python scripts/output_digests.py [wedge|hatch|dome|wedge40x20|loops|retracts|hops ...]

With no names, every input runs. The 40x20 wedge takes several seconds
per seam mode. `loops` is the nested closed loops of the tests over the
20x10 wedge, the one input whose paths are closed. `retracts` is the
20x10 wedge with a wipe-retract before each travel and a prime after it,
the one input with retractions. `hops` is the cross-hatched 20x10 wedge
with a Z hop opening each layer after the first, the one input whose
layers start with a move above their deposition height."""

import hashlib
import json
import os
import sys

for folder in ("src", "tests"):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", folder))

from toolpath_aa.pipeline import PipelineConfig, run_pipeline
import fixtures
from scenes import hop_wedge_gcode, nested_loops_gcode, retract_wedge_gcode

INPUTS = {
    "wedge": lambda: fixtures.wedge_fixture(),
    "hatch": lambda: fixtures.wedge_fixture(cross_hatch=True),
    "dome": lambda: fixtures.dome_fixture(),
    "wedge40x20": lambda: fixtures.wedge_fixture(base=40.0, depth=20.0),
    "loops": lambda: (fixtures.wedge_mesh(), nested_loops_gcode()),
    "retracts": lambda: (fixtures.wedge_mesh(), retract_wedge_gcode()),
    "hops": lambda: (fixtures.wedge_mesh(), hop_wedge_gcode()),
}


def digests(mesh, gcode, weighted):
    """(G-code digest, timing-free report digest, total expansions)."""
    _, report, text = run_pipeline(PipelineConfig(weighted_seams=weighted),
                                   gcode_text=gcode, mesh=mesh)
    del report["timings_s"]
    layers = report["ordering"]["layers"]
    for layer in layers:
        for key in [k for k in layer if k.endswith("_s")]:
            del layer[key]
    body = json.dumps(report, indent=2, sort_keys=True)
    return (hashlib.sha256(text.encode()).hexdigest(),
            hashlib.sha256(body.encode()).hexdigest(),
            sum(layer.get("expansions", 0) for layer in layers))


def main(names):
    for name in names or INPUTS:
        mesh, gcode = INPUTS[name]()
        for weighted in (False, True):
            gcode_sha, report_sha, expansions = digests(mesh, gcode, weighted)
            mode = "weighted" if weighted else "plain"
            print(f"{name:<10} {mode:<8} gcode {gcode_sha}  "
                  f"report {report_sha}  expansions {expansions}")


if __name__ == "__main__":
    main(sys.argv[1:])
