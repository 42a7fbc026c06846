#!/usr/bin/env python3
"""Exact Dixon's identity from doubly-repeated permanents of the 3x3 cyclic
sign matrix: for p = (2n, 2n, 2n),

    p! [z^p] 1/Det(I - Diag(z) A)  =  p! [z^p] (Az)^p
                                   =  p! * sum_k (-1)^k C(2n,k)^3
                                   =  p! * (-1)^n (3n)!/(n!)^3.

Prints all four exact big integers per n, as `identities._dixon_routes`
gives them to `identities.verify_dixon`.  The monomial route expands (Az)^p
one linear form at a time on the exponent box c <= p.
"""

from permkit.identities import _dixon_routes

N_MAX = 4
LABELS = ("det-series route ", "monomial route   ", "binomial cubes   ", "closed form      ")


def main() -> None:
    for p, *routes in _dixon_routes(N_MAX):
        print(f"n={p[0] // 2}  p={p}")
        for label, value in zip(LABELS, routes):
            print(f"  {label}: {value}")
        assert len(set(routes)) == 1


if __name__ == "__main__":
    main()
