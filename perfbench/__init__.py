"""Benchmark harness for arrayvad; the entry point is ``perfbench/run.py``."""
