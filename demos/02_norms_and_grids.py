"""Grids, weights, and Luxemburg norms.

Builds the three domain shapes, evaluates modulars and norms against
closed forms, and runs the embedding-constant estimate.
"""

import numpy as np

import orlicz_lab as ol

rng = np.random.default_rng(0)

print("== domains ==")
for cfg in ({"shape": "interval", "n": 257, "extent": [0.0, 1.0]},
            {"shape": "box", "n": 33, "extent": [0.0, 1.0]},
            {"shape": "disc", "n": 65, "extent": [1.0]}):
    dom = ol.domain_from_config(cfg)
    print(f"  {dom.kind:>8s}: n={dom.n} h={dom.h:.4g} "
          f"quadrature mass {float(dom.node_qw.sum()):.6g} "
          f"(measure {dom.measure:.6g})")

print()
print("== Luxemburg norm vs closed forms ==")
dom = ol.domain_from_config({"shape": "interval", "n": 257,
                             "extent": [0.0, 1.0]})
w = ol.WeightField.constant(dom)
phi2 = ol.Power(2.0, 1.0)
one = ol.GridFunction(dom, np.ones(257), trace="free")
print(f"  ||1||_(t^2) on unit interval = "
      f"{ol.luxemburg_norm(phi2, w, one):.10g}  (exact 1)")
u = ol.GridFunction.from_callable(dom, lambda x: x * (1.0 - x))
phi3 = ol.Power(3.0, 1.0)
got = ol.luxemburg_norm(phi3, w, u)
want = (np.trapezoid((dom.axis * (1 - dom.axis)) ** 3, dom.axis)) ** (1 / 3)
print(f"  ||x(1-x)||_(t^3) = {got:.8g}  (weighted 3-norm {want:.8g})")

print()
print("== the norm normalizes the modular to one ==")
phi = ol.Plasticity(2.0, 1.0)
vals = rng.normal(size=257)
vals[[0, -1]] = 0.0
v = ol.GridFunction(dom, vals)
nrm = ol.luxemburg_norm(phi, w, v)
print(f"  modular(v / ||v||) = "
      f"{ol.modular(phi, w, v.scaled(1.0 / nrm)):.10g}")

print()
print("== embedding constant on (0,1) ==")
est = ol.poincare_estimate(ol.EnergySetup(phi2, phi2, w, w, dom), trials=16,
                           seed=3)
print(f"  empirical C with ||u||_2 <= C ||u'||_2: {est:.6g} "
      f"(sharp constant 1/pi = {1 / np.pi:.6g})")

print()
print("== weighted Sobolev norm splits into state and gradient parts ==")
w1 = ol.WeightField.from_callable(dom, lambda x: 1.0 + x)
full = ol.sobolev_norm(phi3, phi2, w, w1, u)
state = ol.luxemburg_norm(phi2, w1, u)
grad = ol.gradient_norm(phi3, w, u)
print(f"  ||u||_W = {full:.8g} = {state:.8g} + {grad:.8g}")
