"""pytest-benchmark targets for the DESIGN.md section 4 rows nothing
else times (creation, clustering, RUBE87, queries, extensions, the
latency sweep); run with ``pytest benchmarks/ --benchmark-only``.
"""
