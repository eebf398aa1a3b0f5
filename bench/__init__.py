"""Seeded end-to-end and per-layer benchmark for binauralkit (see run.py)."""
