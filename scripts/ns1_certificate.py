#!/usr/bin/env python3
"""Certificate that every non-solvable 3-dimensional algebra has a first-family pair.

    python scripts/ns1_certificate.py

``classify`` tags a non-solvable dimension-3 algebra NonSolvableNS1 from a pair
(x, y) with P(x, y) = det[x, y, xy] * det[y, xy, y(xy)] != 0. In dimension 3 the
algebra is non-solvable iff A*A = A, i.e. det C != 0 for C the matrix of the
products e1e2, e1e3, e2e3. For each factor of P, take its coefficients as a
polynomial in the coordinates of x and y (polynomials in the nine structure
constants) together with 1 - s * det C. If the reduced Groebner basis of that
ideal is {1}, no algebra with det C != 0 makes the factor vanish identically,
so P is a nonzero polynomial on every non-solvable algebra. P has degree <= 4
in each coordinate of x and <= 6 in each of y, so by the Combinatorial
Nullstellensatz (Alon, 1999) it is nonzero somewhere on the grid {-3..3}^6:
the pair search finds an NS1 pair of height <= 3, and needs no fallback.

Needs sympy (not a dependency of the package or its tests); without it the
script prints a notice and exits 0. Takes about half a minute.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    try:
        import sympy as sp
    except ImportError:
        print("sympy is not installed; the certificate was not checked")
        return 0
    consts = sp.symbols("a1 b1 g1 a2 b2 g2 a3 b3 g3")
    table = {(0, 1): consts[0:3], (0, 2): consts[3:6], (1, 2): consts[6:9]}
    xs, ys, s = sp.symbols("x1:4"), sp.symbols("y1:4"), sp.Symbol("s")

    def mul(u, v):
        return [sp.expand(sum((u[r] * v[q] - u[q] * v[r]) * c[k] for (r, q), c in table.items()))
                for k in range(3)]

    def det(*cols):
        return sp.expand(sp.Matrix(cols).T.det())

    det_c = det(*table.values())
    z = mul(xs, ys)
    failed = False
    for name, factor in (("det[x, y, xy]", det(xs, ys, z)),
                         ("det[y, xy, y(xy)]", det(ys, z, mul(ys, z)))):
        start = time.perf_counter()
        coeffs = sp.Poly(factor, *xs, *ys).coeffs()
        basis = sp.groebner([*coeffs, 1 - s * det_c], *consts, s, order="grevlex")
        unit = list(basis.exprs) == [1]
        failed |= not unit
        print(f"{name}: {len(coeffs)} coefficients, Groebner basis "
              f"{'{1}' if unit else 'is not {1}'} ({time.perf_counter() - start:.1f} s)")
    print("certificate " + ("FAILED" if failed else "holds: a height-3 NS1 pair always exists"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
