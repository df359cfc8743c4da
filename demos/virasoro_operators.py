"""Quantize quadratic Hamiltonians on the loop space and check the algebra.

The dilation sandwich hbar^{-1/2} (hbar d/dhbar hbar)^{m+1} hbar^{-1/2}
quantizes to the Virasoro operators; their commutators, normal-ordered
exactly, close up to the central 1/16 bookkeeping.
"""

from fractions import Fraction as F

from todamirror import (
    commutation_check,
    family_bracket_check,
    family_operator,
    loop_d_operator,
    point_virasoro,
    quantize,
    string_operator,
)

print("quantization versus the closed forms (coefficient blocks):")
for m in (-1, 0, 1, 2):
    q = quantize(loop_d_operator(m), 6)
    same = q == point_virasoro(m, 6)
    print(f"  m = {m:2d}: match = {same}")
    if m in (-1, 2):
        print("        blocks:", q.blocks_report())

print("\nresidual operators [L_m, L_m'] - (m - m') L_{m+m'}, modes <= 4:")
for m, mp in ((1, -1), (0, 1), (2, -1), (0, 2), (1, 2)):
    r = commutation_check(m, mp)
    print(f"  [L_{m}, L_{mp}]: central term = {r.scalar} "
          f"(expected {r.expected_scalar}), other terms left: {r.leftover_terms}")

print("\nstring operator from quantizing multiplication by 1/hbar (eta = antidiag):")
eta = [[F(0), F(1)], [F(1), F(0)]]
mu = [F(-1, 2), F(1, 2)]
rho = [[F(0), F(0)], [F(2), F(0)]]
fam = family_operator(mu, rho, -1)
print("  matches the closed-form string operator:",
      quantize(fam, 5, eta=eta) == string_operator(eta, 5))

print("\nunquantized family bracket (closes with the transposed sign):")
for m, mp in ((-1, 0), (-1, 1), (0, 2), (1, 2)):
    r = family_bracket_check(mu, rho, m, mp, range(-6, 7))
    print(f"  [L_{m}^f, L_{mp}^f] = {r.coefficient} * L_{m+mp}^f exactly: {r.exact}")
