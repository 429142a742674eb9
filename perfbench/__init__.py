"""Benchmark harness for cotloop; see run.py."""
