"""`aa` command line: anti-alias a flat-sliced G-code file against its
source mesh.

Exit codes: 0 ok, 2 configuration error (any setting out of range or
not finite), 3 G-code parse error (a number out of range included), 4
geometry error, 7 evaluation error (a move without a feedrate), 8 I/O
error (an input that cannot be read, an output that cannot be written).
Codes 5 and 6 are unused: height cycles are repaired, not raised, and the
settings leave no track thinner than the slicing plane position s.
"""

from __future__ import annotations

import argparse
import math
import sys

from .evaluate import EvaluationError
from .gcode import GcodeParseError, PrinterProfile
from .geometry import MeshError
from .pipeline import PipelineConfig, run_pipeline

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_GEOMETRY = 4
EXIT_EVALUATION = 7
EXIT_IO = 8


def build_parser():
    p = argparse.ArgumentParser(
        prog="aa",
        description="Anti-alias flat-sliced toolpaths: displace vertices "
                    "towards the true surface, rescale flow and speed, and "
                    "re-order paths against nozzle interference.")
    p.add_argument("--gcode", required=True, help="input G-code (flat sliced)")
    p.add_argument("--mesh", required=True, help="input mesh (STL)")
    p.add_argument("--out", required=True, help="output G-code path")
    p.add_argument("--w", type=float, default=0.8,
                   help="inner nozzle diameter, mm (default 0.8)")
    p.add_argument("--tau", type=float, default=1.25,
                   help="outer nozzle diameter, mm (default 1.25)")
    p.add_argument("--alpha", type=float, default=45.0,
                   help="nozzle side inclination, degrees (default 45)")
    p.add_argument("--h", type=float, default=0.6,
                   help="base layer thickness, mm (default 0.6)")
    p.add_argument("--s", type=float, default=None,
                   help="slicing plane position in [0, h], mm (default h/2)")
    p.add_argument("--d", type=float, default=None,
                   help="track width, mm (default w)")
    p.add_argument("--fini", type=float, default=20.0,
                   help="initial deposition speed, mm/s (default 20)")
    p.add_argument("--fmin", type=float, default=13.0,
                   help="minimum deposition speed, mm/s (default 13)")
    p.add_argument("--filament-diameter", type=float, default=2.85)
    p.add_argument("--report", help="write stats JSON here")
    p.add_argument("--error-map", help="write error map (.ply or .csv)")
    p.add_argument("--sweep-s",
                   help="comma-separated slicing plane positions to sweep")
    p.add_argument("--weighted-seams", action="store_true",
                   help="weight seams by local surface opening angle")
    p.add_argument("--no-ordering", action="store_true",
                   help="skip interference ordering (for studies)")
    return p


# each error class the pipeline raises: its message label and exit code,
# in the order the classes are matched
FAILURES = (
    (ValueError, "configuration error", EXIT_CONFIG),
    (GcodeParseError, "G-code parse error", EXIT_PARSE),
    (MeshError, "geometry error", EXIT_GEOMETRY),
    (EvaluationError, "evaluation error", EXIT_EVALUATION),
    (OSError, "I/O error", EXIT_IO),
)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        sweep = []
        if args.sweep_s:
            sweep = [float(v) for v in args.sweep_s.split(",") if v.strip()]
        profile = PrinterProfile(
            w=args.w, tau=args.tau, alpha=math.radians(args.alpha), h=args.h,
            f_ini=args.fini, f_min=args.fmin, s=args.s, d=args.d,
            filament_diameter=args.filament_diameter)
        config = PipelineConfig(
            gcode_path=args.gcode, mesh_path=args.mesh, out_path=args.out,
            profile=profile, ordering_enabled=not args.no_ordering,
            weighted_seams=args.weighted_seams,
            report_path=args.report, error_map_path=args.error_map,
            sweep_s=sweep)
        _program, report, _text = run_pipeline(config)
    except tuple(cls for cls, _label, _code in FAILURES) as exc:
        label, code = next((label, code) for cls, label, code in FAILURES
                           if isinstance(exc, cls))
        print(f"aa: {label}: {exc}", file=sys.stderr)
        return code

    moved = report["displacement"]["vertices_displaced"]
    total = report["displacement"]["vertices_total"]
    print(f"aa: displaced {moved}/{total} vertices; "
          f"estimated print time {report['output']['estimated_print_time_s']:.1f} s")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
