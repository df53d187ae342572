"""Executable acquire/release reasoning laws over reachable lock-client
states, plus hand-mutated variants that the harness must falsify."""

import pytest

from lock_rules import (check_lock_rules, cond_meth, definite,
                        definite_meth, lock_rules, possible_meth)
from rarcheck.assertions import MethodInstance, eval_hidden
from rarcheck.explore import explore, successors
from rarcheck.litmus import build_system, load_corpus
from rarcheck.state import LOCK_ACQUIRE, LOCK_RELEASE

VERSIONS = range(0, 9)


def lock_steps(name):
    system = build_system(load_corpus(name))
    res = explore(system.cfg0, system.ctx, 64)
    steps = []
    for cfg in res.configs.values():
        for t, lab, nxt in successors(cfg, system.ctx):
            if lab.action is not None and lab.action.kind in (
                    LOCK_ACQUIRE, LOCK_RELEASE):
                steps.append((cfg, t, lab.action, nxt))
    return system, steps


def occurring_ints(system):
    """The integers (not booleans) that occur in the explored states: in
    operations of either component and in registers."""
    def ints(vals):  # filtered first: in a set, True would stand for 1
        return {v for v in vals if isinstance(v, int)
                and not isinstance(v, bool)}

    res = explore(system.cfg0, system.ctx, 64)
    out = set()
    for cfg in res.configs.values():
        for comp in (cfg.gamma, cfg.beta):
            out |= ints(op.action.val for op in comp.ops)
        for ls in cfg.rho.values():
            out |= ints(ls.values())
    return sorted(out)


def rules_for(system):
    return list(lock_rules("l", VERSIONS, sorted(system.cfg0.gamma.variables()),
                           occurring_ints(system), system.ctx.threads,
                           system.ctx.object_spec))


@pytest.fixture(scope="module")
def lockmp_steps():
    return lock_steps("lockmp")


@pytest.fixture(scope="module")
def rounds_steps():
    return lock_steps("lock-two-rounds")


class TestRulesHold:
    def test_zero_violations_on_lockmp(self, lockmp_steps):
        system, steps = lockmp_steps
        assert check_lock_rules(steps, rules_for(system)) == []

    def test_zero_violations_on_two_rounds(self, rounds_steps):
        system, steps = rounds_steps
        assert check_lock_rules(steps, rules_for(system)) == []

    def test_all_rules_fire_somewhere(self, rounds_steps):
        system, steps = rounds_steps
        fired = set()
        for rule_id, inst, applies, pre, post in rules_for(system):
            if rule_id in fired:
                continue
            if any(applies(t, a) and pre(cfg) for cfg, t, a, _ in steps):
                fired.add(rule_id)
        assert fired == {1, 2, 3, 4, 5, 6}


def rel(u):
    return MethodInstance("l", LOCK_RELEASE, index=u)


def acq(u):
    return MethodInstance("l", LOCK_ACQUIRE, index=u)


def mutated_rules(system, us, xs, vs, threads):
    """Hand-broken variants of each rule; every one must be falsified."""
    spec = system.ctx.object_spec
    out = []
    for u in [u for u in us if u >= 2 and u % 2 == 0]:
        out.append((1, f"u={u}",
                    lambda t, a: a.kind == LOCK_ACQUIRE,
                    lambda cfg, u=u: eval_hidden(cfg.beta, rel(u)),
                    lambda cfg2, a, u=u: a.index > u + 3))  # was u + 1
        out.append((2, f"u={u}",
                    lambda t, a: a.kind in (LOCK_ACQUIRE, LOCK_RELEASE),
                    lambda cfg, u=u: eval_hidden(cfg.beta, rel(u)),
                    # was: the same release stays hidden
                    lambda cfg2, a, u=u: eval_hidden(cfg2.beta, rel(u + 2))))
        for t0 in threads:
            out.append((3, f"u={u},t={t0}",
                        lambda t, a, t0=t0: a.kind == LOCK_ACQUIRE
                        and t == t0,
                        lambda cfg, u=u, t0=t0:
                            definite_meth(cfg, t0, rel(u)),
                        # was: acquire u + 1
                        lambda cfg2, a, u=u, t0=t0:
                            definite_meth(cfg2, t0, acq(u + 2))))
        for x in xs:
            for v in vs:
                for t0 in threads:
                    out.append((4, f"{u},{x},{v},{t0}",
                                lambda t, a, t0=t0:
                                    a.kind in (LOCK_ACQUIRE, LOCK_RELEASE)
                                    and t != t0,
                                lambda cfg, x=x, v=v, t0=t0:
                                    definite(cfg, t0, x, v),
                                # was: the same value stays definite
                                lambda cfg2, a, x=x, v=v, t0=t0:
                                    definite(cfg2, t0, x, v + 1)))
                    out.append((5, f"{u},{x},{v},{t0}",
                                lambda t, a, t0=t0:
                                    a.kind == LOCK_ACQUIRE and t == t0,
                                lambda cfg, u=u, x=x, v=v, t0=t0:
                                    cond_meth(cfg, t0, rel(u), x, v, spec),
                                # was: v, not v + 1
                                lambda cfg2, a, u=u, x=x, v=v, t0=t0:
                                    a.index != u + 1
                                    or definite(cfg2, t0, x, v + 1)))
                    for t1 in threads:
                        if t1 == t0:
                            continue
                        out.append((6, f"{u},{x},{v},{t0},{t1}",
                                    lambda t, a, u=u, t0=t0:
                                        a.kind == LOCK_RELEASE and t == t0
                                        and a.index == u,
                                    lambda cfg, u=u, x=x, v=v, t0=t0, t1=t1:
                                        not possible_meth(cfg, t1, rel(u))
                                        and definite(cfg, t0, x, v),
                                    # was: value v, not v + 1
                                    lambda cfg2, a, u=u, x=x, v=v, t1=t1:
                                        cond_meth(cfg2, t1, rel(u), x, v + 1,
                                                  spec)))
    return out


class TestMutantsFalsified:
    def test_each_mutated_rule_fails(self, rounds_steps):
        system, steps = rounds_steps
        mutants = mutated_rules(system, VERSIONS,
                                sorted(system.cfg0.gamma.variables()),
                                occurring_ints(system),
                                system.ctx.threads)
        violations = check_lock_rules(steps, mutants)
        assert {rule_id for rule_id, *_ in violations} == {1, 2, 3, 4, 5, 6}
