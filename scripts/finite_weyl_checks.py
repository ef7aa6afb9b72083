#!/usr/bin/env python3
"""Sweep the clock/shift isomorphism checks over a range of dimensions.

Usage: python3 scripts/finite_weyl_checks.py [N ...]

Exits 1 when any dimension fails a check.
"""

import sys

from moyalmetric.cli import _finite_checks


def main() -> int:
    dims = [int(arg) for arg in sys.argv[1:]] or [2, 3, 5, 8, 13, 21]
    tol = 1e-9
    names = None
    failed = False
    for n in dims:
        checks = _finite_checks(n, pairs=25, seed=11)
        if names is None:
            names = list(checks)
            print("N    " + "  ".join(f"{name:>20s}" for name in names))
        row = "  ".join(f"{checks[name]:20.3e}" for name in names)
        ok = all(dev < tol for dev in checks.values())
        failed |= not ok
        print(f"{n:<4d} {row}  {'ok' if ok else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
