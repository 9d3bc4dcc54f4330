#!/usr/bin/env python
"""Assert a regenerated BENCH document's ``cells`` equal the baseline's.

The virtual-time grids are pure functions of their parameters, so CI
holds them to exact equality, not just ``bench-diff`` thresholds.
Usage: ``python scripts/check_cells_equal.py BASELINE.json CANDIDATE.json``.
"""

import json
import sys

baseline, candidate = (
    json.load(open(path, encoding="utf-8"))["cells"] for path in sys.argv[1:3]
)
if baseline != candidate:
    sys.exit(f"cells of {sys.argv[2]} differ from baseline {sys.argv[1]}")
print(f"cells of {sys.argv[2]} equal the baseline's exactly")
