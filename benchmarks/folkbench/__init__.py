"""Benchmark for the folkit kernel: seeded workloads, oracles and a tracer.

Entry point: ``benchmarks/run.py``.  See ``benchmarks/README.md``.
"""
