"""Executable lock-step reasoning rules.

Hoare-style laws about abstract lock steps, checked over every reachable
configuration of a lock client and every enabled acquire/release step.
Each rule is (rule-id, instance, applies, pre, post) instantiated over
finite parameter ranges.  The rules read views through the view atoms'
evaluators (`rarcheck.assertions.pobs`, `dobs`, `cond`).
"""

from rarcheck.assertions import (MethodInstance, cond, dobs, eval_hidden,
                                 pobs, wrote)
from rarcheck.state import LOCK_ACQUIRE, LOCK_RELEASE


def definite(cfg, t, x, v):
    """dobs(t, x=v)"""
    return dobs(cfg.gamma, t, x, wrote(v))


def definite_meth(cfg, t, m):
    """dobs(t, m)"""
    return dobs(cfg.beta, t, m.obj, m.matches)


def possible_meth(cfg, t, m):
    """pobs(t, m)"""
    return pobs(cfg.beta, t, m.obj, m.matches)


def cond_meth(cfg, t, m, y, v, spec):
    """cond(t, m, y=v): m synchronises, and every instance of m that t can
    observe pins y to v."""
    return spec.is_sync(m) and cond(cfg.beta, t, m.obj, m.matches,
                                    lambda _: True, cfg.gamma, y, v)


def lock_rules(lock: str, versions, client_vars, values, threads, spec):
    """Instantiate the six acquire/release rules over parameter ranges.

    Yields (rule-id, instance-description, applies, pre, post) where
    applies takes (t, action), pre takes cfg, post takes (cfg2, action).
    """
    def rel(u):
        return MethodInstance(lock, LOCK_RELEASE, index=u)

    def acq(u):
        return MethodInstance(lock, LOCK_ACQUIRE, index=u)

    # release versions are even and start at 2; acquire versions are odd
    for u in [u for u in versions if u >= 2 and u % 2 == 0]:
        yield (1, f"u={u}",
               lambda t, a: a.kind == LOCK_ACQUIRE,
               lambda cfg, u=u: eval_hidden(cfg.beta, rel(u)),
               lambda cfg2, a, u=u: a.index > u + 1)
        yield (2, f"u={u}",
               lambda t, a: a.kind in (LOCK_ACQUIRE, LOCK_RELEASE),
               lambda cfg, u=u: eval_hidden(cfg.beta, rel(u)),
               lambda cfg2, a, u=u: eval_hidden(cfg2.beta, rel(u)))
        for t0 in threads:
            yield (3, f"u={u},t={t0}",
                   lambda t, a, t0=t0: a.kind == LOCK_ACQUIRE and t == t0,
                   lambda cfg, u=u, t0=t0: definite_meth(cfg, t0, rel(u)),
                   lambda cfg2, a, u=u, t0=t0:
                       definite_meth(cfg2, t0, acq(u + 1)))
        for x in client_vars:
            for v in values:
                for t0 in threads:
                    yield (4, f"u={u},x={x},v={v},t={t0}",
                           lambda t, a, t0=t0:
                               a.kind in (LOCK_ACQUIRE, LOCK_RELEASE)
                               and t != t0,
                           lambda cfg, x=x, v=v, t0=t0:
                               definite(cfg, t0, x, v),
                           lambda cfg2, a, x=x, v=v, t0=t0:
                               definite(cfg2, t0, x, v))
                    yield (5, f"u={u},x={x},v={v},t={t0}",
                           lambda t, a, t0=t0:
                               a.kind == LOCK_ACQUIRE and t == t0,
                           lambda cfg, u=u, x=x, v=v, t0=t0:
                               cond_meth(cfg, t0, rel(u), x, v, spec),
                           lambda cfg2, a, u=u, x=x, v=v, t0=t0:
                               a.index != u + 1
                               or definite(cfg2, t0, x, v))
                    for t1 in threads:
                        if t1 == t0:
                            continue
                        yield (6, f"u={u},x={x},v={v},t={t0},t'={t1}",
                               lambda t, a, u=u, t0=t0:
                                   a.kind == LOCK_RELEASE and t == t0
                                   and a.index == u,
                               lambda cfg, u=u, x=x, v=v, t0=t0, t1=t1:
                                   not possible_meth(cfg, t1, rel(u))
                                   and definite(cfg, t0, x, v),
                               lambda cfg2, a, u=u, x=x, v=v, t1=t1:
                                   cond_meth(cfg2, t1, rel(u), x, v, spec))


def check_lock_rules(steps, rules):
    """steps: iterable of (cfg, t, action, cfg2) for abstract lock steps.
    Returns violations as (rule-id, instance, cfg, action)."""
    violations = []
    for rule_id, inst, applies, pre, post in rules:
        for cfg, t, action, cfg2 in steps:
            if not applies(t, action):
                continue
            if not pre(cfg):
                continue
            if not post(cfg2, action):
                violations.append((rule_id, inst, cfg, action))
    return violations
