"""The repository benchmark: cold FPRAS, cold exact counting, and a
mixed read/write daemon, end to end and per layer.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
