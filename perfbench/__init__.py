"""Benchmark harness for ptinertia; run it with ``python3 perfbench/run.py``."""
