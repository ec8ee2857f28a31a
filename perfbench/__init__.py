"""Whole-toolchain benchmark for pyrtos-sc (see README.md in this directory).

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
