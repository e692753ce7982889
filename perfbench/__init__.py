"""Benchmark harness for markovpop; run with ``python3 -m perfbench.run``."""
