#!/usr/bin/env python3
"""Exact Dixon's identity from doubly-repeated permanents of the 3x3 cyclic
sign matrix: for p = (2n, 2n, 2n),

    p! [z^p] 1/Det(I - Diag(z) A)  =  p! [z^p] (Az)^p
                                   =  p! * sum_k (-1)^k C(2n,k)^3
                                   =  p! * (-1)^n (3n)!/(n!)^3.

Prints all four exact big integers per n.  The monomial route is the one
`identities.verify_dixon` checks: (Az)^p one linear form at a time on the
exponent box c <= p (`identities._form_power`).
"""

import math

from permkit.combinatorics import factorial_product
from permkit.identities import DIXON_MATRIX, _form_power, _n_matrix_rhs, _normalize

N_MAX = 4


def main() -> None:
    caps = (2 * N_MAX,) * 3
    mat, ring = _normalize(DIXON_MATRIX)
    inv = _n_matrix_rhs([mat], ring, caps)
    for n in range(1, N_MAX + 1):
        p = (2 * n,) * 3
        pf = factorial_product(p)
        from_det = pf * inv.coefficient(p)
        from_monomial = pf * _form_power(mat, ring, p, p).coefficient(p)
        binom = pf * sum((-1) ** k * math.comb(2 * n, k) ** 3 for k in range(2 * n + 1))
        closed = pf * (-1) ** n * math.factorial(3 * n) // math.factorial(n) ** 3
        print(f"n={n}  p={p}")
        print(f"  det-series route : {from_det}")
        print(f"  monomial route   : {from_monomial}")
        print(f"  binomial cubes   : {binom}")
        print(f"  closed form      : {closed}")
        assert from_det == from_monomial == binom == closed


if __name__ == "__main__":
    main()
