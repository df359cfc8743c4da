"""Evaluate the mirror integrals and verify the eigenvalue equations.

For n = 1 the integral over the positive contour reduces, after u = sqrt(q)
e^s, to a modified Bessel function of the second kind, which gives an
independent oracle.  The operators act by differentiation under the
integral sign, as exact amplitudes summed over the converged grid; every
residual |D_i I - sigma_i I| / |I| should be tiny.  One IntegralTask
(lambda, hbar, chart, q) is the input of both the integral and the residuals.
"""

from todamirror import (
    build_graph,
    eigen_residual,
    evaluate,
    IntegralTask,
    make_chart,
    q_to_zero_factorization,
    whittaker_closed_form,
)

lam0, q = 0.25, 1.0
chart = make_chart(build_graph(1), (0,))
task = IntegralTask(n=1, lam=(lam0, -lam0), hbar=-1.0, chart=chart, q=(q,))
res = evaluate(task)
oracle = whittaker_closed_form(lam0, q, -1.0)
print(f"n=1 integral at lam0={lam0}, q={q}: {res.value:.12f}")
print(f"Bessel-K oracle:                    {oracle:.12f}")
print(f"relative difference: {abs(res.value - oracle) / oracle:.2e} "
      f"({res.nodes_per_axis} nodes/axis, {res.evaluations} evaluations)")

rep = eigen_residual(task)
print(f"\nn=1 eigen residuals: {['%.2e' % r for r in rep.residuals]}")

task2 = IntegralTask(n=2, lam=(0.25, 0.125, -0.375), hbar=-1.0,
                     chart=make_chart(build_graph(2), (0, 0)), q=(1.0, 1.0))
rep2 = eigen_residual(task2)
print(f"n=2 eigen residuals: {['%.2e' % r for r in rep2.residuals]}")

lam = (0.6, -0.6)
chart = make_chart(build_graph(1), (0,))
for qs in (1e-4, 1e-6):
    mismatch, _, _ = q_to_zero_factorization(1, lam, -1.0, chart, qs)
    print(f"q -> 0 factorisation mismatch at q = {qs:g}: {mismatch:.2e}")
