"""Seeded end-to-end benchmark of the simulator, with a traced run for
per-layer host-time costs.  See ``perfbench/README.md``."""
