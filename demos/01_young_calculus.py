"""Tour of the Young-function calculus: the built-in catalog, growth
indices, convex conjugates, and the doubling classification."""

import numpy as np

import orlicz_lab as ol

print("== catalog ==")
for kind, phi in ol.catalog():
    l, m = ol.simonenko_indices(phi)
    rep = ol.check_delta2(phi)
    tag = f"doubling (C <= {rep.bound:.3g})" if rep.satisfied \
        else f"NOT doubling (witness t = {rep.witness:.3g})"
    print(f"  {kind:>10s}  {phi.label():30s} indices ({l:g}, {m:g})  {tag}")

print()
print("== conjugate pairs ==")
# For t**p / p the conjugate is s**q / q with 1/p + 1/q = 1.
for p in (1.5, 2.0, 3.0):
    phi = ol.Power(p)
    conj = phi.conjugate()
    q = p / (p - 1.0)
    ss = np.geomspace(0.1, 10.0, 5)
    got = np.asarray(conj.value(ss), dtype=float)
    want = ss ** q / q
    err = float(np.max(np.abs(got - want) / want))
    print(f"  p = {p:g}: conjugate matches s**{q:.3g}/{q:.3g} "
          f"to {err:.2e} relative")

print()
print("== Young's inequality, equality at s = phi'(t) ==")
phi = ol.Plasticity(2.0, 1.0)
conj = phi.conjugate()
for t in (0.3, 1.0, 4.0):
    s_eq = float(phi.derivative(t))
    lhs = s_eq * t
    rhs = float(phi.value(t)) + float(conj.value(s_eq))
    print(f"  t = {t:g}: s*t = {lhs:.6g}, "
          f"Phi(t) + conj(s) = {rhs:.6g}  (gap {abs(lhs - rhs):.2e})")

print()
print("== essentially-slower growth ==")
pairs = [(ol.Power(2.0), ol.Power(3.0)),
         (ol.Plasticity(2.0, 1.0), ol.Power(4.0)),
         (ol.Power(3.0), ol.Power(2.0))]
for slow, fast in pairs:
    flag = ol.dominates_essentially(slow, fast)
    print(f"  {slow.label():24s} << {fast.label():12s} : {flag}")
