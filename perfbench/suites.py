"""The eight randomized inequality suites of the norm-suites workload.

Each suite is split in two: ``prepare_*`` draws its random inputs from the
workload's generator during set-up, and the returned closure evaluates the
inequality through the public package API and returns the number of
violations beyond a 1e-9 relative slack.  These generators belong to the
benchmark, so editing the test suites cannot change the workload.
"""

from __future__ import annotations

import numpy as np

import orlicz_lab as ol

REL_SLACK = 1e-9
GRID_N = 64


def _exceeding(lhs, rhs, slack=REL_SLACK) -> int:
    """Violations of ``lhs <= rhs`` beyond a relative slack."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    return int(np.sum(lhs > rhs + slack * (1.0 + np.abs(rhs))))


def _split(trials: int, parts: int) -> list:
    base = trials // parts
    return [base] * (parts - 1) + [trials - base * (parts - 1)]


def _log_uniform(rng, lo, hi, size):
    return 10.0 ** rng.uniform(lo, hi, size=size)


def _interval_rows(rng, cnt, lo, hi):
    """Random zero-trace rows on the suite grid with log-uniform amplitude."""
    u = _log_uniform(rng, lo, hi, (cnt, 1)) * rng.normal(size=(cnt, GRID_N))
    u[:, [0, -1]] = 0.0
    return u


def prepare_young_inequality(rng, trials, ctx):
    """s t <= Phi(t) + conj(Phi)(s), with near equality at s = phi'(t)."""
    draws = []
    for (phi, conj), cnt in zip(ctx["members"],
                                _split(trials, len(ctx["members"]))):
        draws.append((phi, conj, _log_uniform(rng, -2.0, 2.0, cnt),
                      _log_uniform(rng, -2.0, 2.0, cnt),
                      # phi'(t) must stay inside the conjugate table
                      _log_uniform(rng, -2.0, 1.4, cnt)))

    def run():
        bad = 0
        for phi, conj, t, s, t_eq in draws:
            bad += _exceeding(s * t, phi.value(t) + conj.value(s))
            s_eq = phi.derivative(t_eq)
            total = phi.value(t_eq) + conj.value(s_eq)
            bad += int(np.sum(np.abs(s_eq * t_eq - total)
                              > 1e-6 * (1.0 + np.abs(total))))
        return bad
    return run


def prepare_weighted_holder(rng, trials, ctx):
    """int w |u v| <= 2 ||u||_Phi,w ||v||_conj(Phi),w on random pairs."""
    dom, weight = ctx["domain"], ctx["weight"]
    draws = [(phi, conj, _interval_rows(rng, cnt, -1.0, 1.0),
              _interval_rows(rng, cnt, -1.0, 1.0))
             for (phi, conj), cnt in zip(ctx["members"],
                                         _split(trials, len(ctx["members"])))]

    def run():
        bad = 0
        for phi, conj, u, v in draws:
            lhs = np.sum(weight * dom.node_qw * np.abs(u * v), axis=1)
            nu = ol.luxemburg_values(phi, weight, dom.node_qw, u)
            nv = ol.luxemburg_values(conj, weight, dom.node_qw, v)
            bad += _exceeding(lhs, 2.0 * nu * nv)
        return bad
    return run


def prepare_parallelogram(rng, trials, ctx):
    """Phi(|a+b|/2) + Phi(|a-b|/2) <= (Phi(|a|) + Phi(|b|))/2 when
    t -> Phi(sqrt(t)) is convex."""
    members = ctx["sqrt_convex"]
    draws = []
    for phi, cnt in zip(members, _split(trials, len(members))):
        scale = _log_uniform(rng, -1.0, 1.0, cnt)
        draws.append((phi, scale * rng.normal(size=cnt),
                      scale * rng.normal(size=cnt)))

    def run():
        bad = 0
        for phi, a, b in draws:
            lhs = phi.value(np.abs(a + b) / 2) + phi.value(np.abs(a - b) / 2)
            rhs = (phi.value(np.abs(a)) + phi.value(np.abs(b))) / 2
            bad += _exceeding(lhs, rhs)
        return bad
    return run


def prepare_conjugate_of_slope(rng, trials, ctx):
    """conj(Phi)(phi'(t)) <= m Phi(t), m the upper growth index."""
    draws = [(phi, conj, ctx["indices"][id(phi)][1],
              _log_uniform(rng, -2.0, 1.4, cnt))
             for (phi, conj), cnt in zip(ctx["members"],
                                         _split(trials, len(ctx["members"])))]

    def run():
        return sum(_exceeding(conj.value(phi.derivative(t)), m * phi.value(t))
                   for phi, conj, m, t in draws)
    return run


def prepare_scaling_bracket(rng, trials, ctx):
    """min{a^l, a^m} Phi(b) <= Phi(ab) <= max{a^l, a^m} Phi(b)."""
    draws = [(phi, ctx["indices"][id(phi)], _log_uniform(rng, -3.0, 3.0, cnt),
              _log_uniform(rng, -3.0, 3.0, cnt))
             for (phi, _), cnt in zip(ctx["members"],
                                      _split(trials, len(ctx["members"])))]

    def run():
        bad = 0
        for phi, (l, m), a, b in draws:
            mid = phi.value(a * b)
            base = phi.value(b)
            bad += _exceeding(np.minimum(a ** l, a ** m) * base, mid)
            bad += _exceeding(mid, np.maximum(a ** l, a ** m) * base)
        return bad
    return run


def prepare_norm_modular_bracket(rng, trials, ctx):
    """min{||u||^l, ||u||^m} <= modular(u) <= max{||u||^l, ||u||^m}."""
    dom, weight = ctx["domain"], ctx["weight"]
    draws = [(phi, ctx["indices"][id(phi)],
              _interval_rows(rng, cnt, -1.5, 1.5))
             for (phi, _), cnt in zip(ctx["members"],
                                      _split(trials, len(ctx["members"])))]

    def run():
        bad = 0
        for phi, (l, m), u in draws:
            norms = ol.luxemburg_values(phi, weight, dom.node_qw, u)
            mods = ol.modular_values(phi, weight, dom.node_qw, u)
            bad += _exceeding(np.minimum(norms ** l, norms ** m), mods)
            bad += _exceeding(mods, np.maximum(norms ** l, norms ** m))
        return bad
    return run


def prepare_slope_value_chain(rng, trials, ctx):
    """Phi(t) <= t phi'(t) <= Phi(2t) and conj(Phi)(phi'(t)) <= t phi'(t);
    the unbounded exp-square member obeys the conjugate-free part."""
    draws = [(phi, conj, _log_uniform(rng, -2.0, 1.4, cnt))
             for (phi, conj), cnt in zip(ctx["members"],
                                         _split(trials, len(ctx["members"])))]
    exp_phi = ctx["exp_square"]
    t_exp = _log_uniform(rng, -3.0, np.log10(8.0), max(trials // 8, 16))

    def run():
        bad = 0
        for phi, conj, t in draws:
            slope = phi.derivative(t)
            tslope = t * slope
            bad += _exceeding(phi.value(t), tslope)
            bad += _exceeding(tslope, phi.value(2.0 * t))
            bad += _exceeding(conj.value(slope), tslope)
        tslope = t_exp * exp_phi.derivative(t_exp)
        bad += _exceeding(exp_phi.value(t_exp), tslope)
        bad += _exceeding(tslope, exp_phi.value(2.0 * t_exp))
        return bad
    return run


def prepare_reaction_derivative_bracket(rng, trials, ctx):
    """l1 J(u) <= <J'(u), u> <= m1 J(u) through the assembled pairing."""
    setups = ctx["reaction_setups"]
    dom = ctx["domain"]
    draws = []
    for setup, cnt in zip(setups, _split(trials, len(setups))):
        amp = _log_uniform(rng, -1.0, 1.0, (cnt, 1))
        draws.append((setup, amp * rng.normal(size=(cnt,) + dom.node_shape)))

    def run():
        bad = 0
        for setup, rows in draws:
            for vals in rows:
                u = ol.GridFunction(dom, vals)
                j = ol.energy_J(setup, u)
                pairing = ol.gateaux_J(setup, u).pairing(u)
                bad += _exceeding(setup.psi_l * j, pairing)
                bad += _exceeding(pairing, setup.psi_m * j)
        return bad
    return run


SUITES = (
    ("young_inequality", prepare_young_inequality),
    ("weighted_holder", prepare_weighted_holder),
    ("parallelogram_lower_bound", prepare_parallelogram),
    ("conjugate_of_slope", prepare_conjugate_of_slope),
    ("scaling_bracket", prepare_scaling_bracket),
    ("norm_modular_bracket", prepare_norm_modular_bracket),
    ("slope_value_chain", prepare_slope_value_chain),
    ("reaction_derivative_bracket", prepare_reaction_derivative_bracket),
)


def build_context(rng) -> dict:
    """Young functions, conjugate tables, grid, weights and energy set-ups
    shared by the suites."""
    members = [phi for _, phi in ol.catalog()
               if ol.check_delta2(phi).satisfied]
    dom = ol.domain_from_config({"shape": "interval", "n": GRID_N,
                                 "extent": [0.0, 1.0]})
    weight = 1.0 + rng.random(dom.node_shape)
    w = ol.WeightField.constant(dom)
    w1 = ol.WeightField(dom, 1.0 + rng.random(dom.node_shape))
    return {
        "members": [(phi, phi.conjugate()) for phi in members],
        "sqrt_convex": [phi for phi in members
                        if ol.sqrt_convexity_holds(phi)],
        "indices": {id(phi): ol.simonenko_indices(phi) for phi in members},
        "exp_square": ol.ExpSquare(),
        "domain": dom,
        "weight": weight,
        "reaction_setups": [ol.EnergySetup(ol.Power(2.0), psi, w, w1, dom)
                            for psi in (ol.Power(2.0), ol.Power(3.0),
                                        ol.Plasticity(2.0, 1.0))],
    }
