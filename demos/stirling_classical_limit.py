"""The exact classical-limit identity behind the q = 0 normalization.

At q = 0 the diagonal of the asymptotic fundamental solution is exp(b) with
b built from Bernoulli numbers and inverse-power sums of the fixed-point
weights; the same series must fall out of the Stirling tail of ln Gamma
summed over the weights.  Both sides are computed independently over formal
weight symbols and compared coefficient by coefficient - no tolerance.
"""

import itertools

from todamirror import (
    FixedPointData,
    classical_limit_b,
    gamma_stirling_tail,
    verify_classical_limit,
)
from todamirror.semiclassical import stirling_tail_series, stirling_numeric_residual

print("Stirling tail coefficients B_2k/(2k(2k-1)):", gamma_stirling_tail(4))

fp = FixedPointData.from_permutation(1, (0, 1))
b = classical_limit_b(fp, 3)
print("\nsingle-weight diagonal series:")
print(" ", b.canonical_str())
tail = stirling_tail_series(fp.weight_symbols(), 3)
print("matches the Stirling tail exactly:", b == tail)

print("\nall permutations, n = 1..3, through hbar^7:")
for n in (1, 2, 3):
    reports = [verify_classical_limit(n, perm, 4)
               for perm in itertools.permutations(range(n + 1))]
    print(f"  n={n}: {sum(r.ok for r in reports)}/{len(reports)} exact matches, "
          f"orthogonality b(h) + b(-h) = 0 everywhere: "
          f"{all(r.orthogonal for r in reports)}")

print("\nnumeric sanity of the truncated expansion of ln Gamma (60-digit decimal):")
for z in (5.0, 10.0):
    err, bound, ok = stirling_numeric_residual(4, z)
    print(f"  z={z}: remainder {err:.2e}, first omitted term {bound:.2e}, "
          f"same sign and smaller: {ok}")
