"""End-to-end and per-layer benchmark of polylens.

Run it from the repository root::

    python3 perfbench/run.py --workload verify_all --seed 7 --seconds 20 --trace 0

See NOTES.md for the workloads, the metrics and how they relate.
"""
