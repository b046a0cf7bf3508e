"""SHA-256 digests of the pipeline's outputs on the shipped fixtures, in
both seam modes: the G-code, and the report with its timings removed
(`timings_s` and the ordering layers' `*_s` stage times). Two checkouts
that print the same lines give the same outputs.

    python scripts/output_digests.py [wedge|hatch|dome|wedge40x20|loops|retracts|hops|emap|bulk|parse ...]

With no names, every input but `parse` runs. The 40x20 wedge takes several seconds
per seam mode. `loops` is the nested closed loops of the tests over the
20x10 wedge, the one input whose paths are closed. `retracts` is the
20x10 wedge with a wipe-retract before each travel and a prime after it,
the one input with retractions. `hops` is the cross-hatched 20x10 wedge
with a Z hop opening each layer after the first, the one input whose
layers start with a move above their deposition height. `emap` runs the
dome without ordering and with an error map, once with a CSV and once with
a PLY, written into a temporary directory, and prints their digests and
the timing-free report's. `bulk` runs the benchmark's seed-0 `bulk` part
(`perfbench/parts.bulk`, its G-code and its STL bytes, read only) without
ordering, as the benchmark's `bulk` workload does, and prints the digests
of its G-code and of its timing-free report, so that a checkout can check
the benchmark's output byte for byte without the harness. `parse` reads
the parse-stress program of the tests (comments on moves, M83, G92, G91
blocks, CRLF, duplicate vertices, no `;LAYER:` lines) with the parser
alone, and prints the digests of the G-code emitted from it and of its
toolpaths' vertex bytes in order."""

import hashlib
import json
import os
import sys
import tempfile

for folder in ("src", "tests", "perfbench"):
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", folder))

from toolpath_aa.gcode import emit_gcode, parse_gcode
from toolpath_aa.geometry import load_mesh
from toolpath_aa.pipeline import PipelineConfig, run_pipeline
import fixtures
import parts
from scenes import (hop_wedge_gcode, nested_loops_gcode, parse_stress_gcode,
                    retract_wedge_gcode)

INPUTS = {
    "wedge": lambda: fixtures.wedge_fixture(),
    "hatch": lambda: fixtures.wedge_fixture(cross_hatch=True),
    "dome": lambda: fixtures.dome_fixture(),
    "wedge40x20": lambda: fixtures.wedge_fixture(base=40.0, depth=20.0),
    "loops": lambda: (fixtures.wedge_mesh(), nested_loops_gcode()),
    "retracts": lambda: (fixtures.wedge_mesh(), retract_wedge_gcode()),
    "hops": lambda: (fixtures.wedge_mesh(), hop_wedge_gcode()),
}


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def report_digest(report):
    """Digest of the report without its timings."""
    del report["timings_s"]
    for layer in report.get("ordering", {}).get("layers", []):
        for key in [k for k in layer if k.endswith("_s")]:
            del layer[key]
    return sha256(json.dumps(report, indent=2, sort_keys=True).encode())


def digests(mesh, gcode, weighted):
    """(G-code digest, timing-free report digest, total expansions)."""
    _, report, text = run_pipeline(PipelineConfig(weighted_seams=weighted),
                                   gcode_text=gcode, mesh=mesh)
    layers = report["ordering"]["layers"]
    return (sha256(text.encode()), report_digest(report),
            sum(layer.get("expansions", 0) for layer in layers))


def error_map_digests(folder):
    """(CSV digest, PLY digest, timing-free report digest) of the dome's
    error map, the files written into `folder`."""
    mesh, gcode = fixtures.dome_fixture()
    files = []
    for suffix in ("csv", "ply"):
        path = os.path.join(folder, f"map.{suffix}")
        _, report, _ = run_pipeline(
            PipelineConfig(ordering_enabled=False, error_map_path=path),
            gcode_text=gcode, mesh=mesh)
        with open(path, "rb") as fh:
            files.append(sha256(fh.read()))
    return (*files, report_digest(report))


def bulk_digests():
    """(G-code digest, timing-free report digest) of the seed-0 `bulk`
    part, run from its STL bytes without ordering."""
    part = parts.bulk(0, parts.offset(0))
    _, report, text = run_pipeline(PipelineConfig(ordering_enabled=False),
                                   gcode_text=part.gcode,
                                   mesh=load_mesh(part.stl))
    return sha256(text.encode()), report_digest(report)


def parse_digests():
    """(emitted G-code digest, vertex bytes digest) of the parse-stress
    program."""
    program = parse_gcode(parse_stress_gcode())
    return (sha256(emit_gcode(program).encode()),
            sha256(b"".join(p.vertices.tobytes() for p in program.all_toolpaths())))


def main(names):
    for name in names or [*INPUTS, "emap", "bulk"]:
        if name == "parse":
            gcode_sha, vertex_sha = parse_digests()
            print(f"{name:<10} {'-':<8} gcode {gcode_sha}  vertices {vertex_sha}")
            continue
        if name == "emap":
            with tempfile.TemporaryDirectory() as folder:
                csv_sha, ply_sha, report_sha = error_map_digests(folder)
            print(f"{name:<10} {'plain':<8} csv {csv_sha}  ply {ply_sha}  "
                  f"report {report_sha}")
            continue
        if name == "bulk":
            gcode_sha, report_sha = bulk_digests()
            print(f"{name:<10} {'plain':<8} gcode {gcode_sha}  "
                  f"report {report_sha}")
            continue
        mesh, gcode = INPUTS[name]()
        for weighted in (False, True):
            gcode_sha, report_sha, expansions = digests(mesh, gcode, weighted)
            mode = "weighted" if weighted else "plain"
            print(f"{name:<10} {mode:<8} gcode {gcode_sha}  "
                  f"report {report_sha}  expansions {expansions}")


if __name__ == "__main__":
    main(sys.argv[1:])
