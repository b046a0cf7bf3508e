"""Sub-layer anti-aliasing for FFF toolpaths.

Takes flat-sliced G-code plus the source triangle mesh, displaces path
vertices vertically (at most half a layer) to track the true surface,
rescales extrusion and feedrate, compensates cross-layer overlaps, and
re-orders paths so the hot nozzle never ploughs through taller
neighbours.
"""

__version__ = "0.1.0"
