"""Benchmark harness for nisim; run it through ``perfbench/run.py``."""
