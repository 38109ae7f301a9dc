#!/usr/bin/env python3
"""Tests of spread.py's quartile spread.  The quartiles in the comments are
those statistics.quantiles(values, n=4) gives."""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from spread import spread  # noqa: E402

CASES = [
    # [1..10]: quartiles 2.75 and 8.25, median 5.5.
    (list(range(1, 11)), 1.0),
    # [1, 2]: quartiles 0.75 and 2.25, median 1.5.
    ([2, 1], 1.0),
    # [1, 3, 4, 10, 12]: quartiles 2.0 and 11.0, median 4.
    ([10, 1, 12, 3, 4], 2.25),
    # One value: no spread.
    ([3.5], 0.0),
]


def main():
    failed = 0
    for values, want in CASES:
        got = spread(values)
        if abs(got - want) > 1e-12:
            print(f"FAIL spread({values}) = {got}, want {want}")
            failed += 1
    print(f"spread_test: {len(CASES) - failed}/{len(CASES)} passed")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
