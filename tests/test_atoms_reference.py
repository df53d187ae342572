"""The view atoms (`pobs`, `dobs`, `cond`, each over a variable or a method
subject) agree with the reference evaluators of `reference_assertions`, one
per atom and subject kind, at every reachable configuration of the corpus,
of the FIFO oracle's two-enqueue program and of generated files.

Every atom is instantiated over the system's threads, its client variables
with a set of values of every kind, every method instance of its object
(with and without an index or a value), and, for `cond`, every client
variable and value as the pinned target.  An atom that the reference
answers with a StateError must raise one too.
"""

from hypothesis import HealthCheck, given, settings

import reference_assertions as R
from component_views import variables
from rarcheck.assertions import (Cond, Def, MethodInstance, Poss, VarEq,
                                 eval_assertion)
from rarcheck.explore import explore
from rarcheck.litmus import (LitmusError, build_system, load_corpus,
                             parse_litmus)
from rarcheck.oracle import fifo_litmus
from rarcheck.program import Lit, ProgramError
from rarcheck.state import (BOT, DEQUEUE, EMPTY, ENQUEUE, FALSE,
                            LOCK_ACQUIRE, LOCK_RELEASE, TRUE, StateError)
from test_cli_fuzz import litmus_files
from test_litmus import CORPUS

VALUES = (0, 1, 2, 3, 5, 7, TRUE, FALSE, BOT, EMPTY)
KINDS = {"lock": ("init", LOCK_ACQUIRE, LOCK_RELEASE),
         "queue": ("init", ENQUEUE, DEQUEUE)}


def method_instances(spec):
    """Every instance of the object's methods: bare, with each index in
    0..8, and with each value."""
    if spec is None:
        return []
    return [MethodInstance(spec.name, kind, index, val)
            for kind in KINDS[spec.kind]
            for index, val in [(None, None)]
            + [(i, None) for i in range(9)] + [(None, v) for v in VALUES]]


def instances(system):
    """(atom, reference) pairs: the reference takes a configuration."""
    spec = system.ctx.object_spec
    xs = sorted(variables(system.cfg0.gamma))
    targets = [(y, v) for y in xs for v in VALUES]
    out = []
    for t in system.ctx.threads:
        for x in xs:
            for u in VALUES:
                s = VarEq(x, Lit(u))
                out.append((Poss(t, s), lambda c, t=t, x=x, u=u:
                            R.eval_possible(c.gamma, t, x, u)))
                out.append((Def(t, s), lambda c, t=t, x=x, u=u:
                            R.eval_definite(c.gamma, t, x, u)))
                out += [(Cond(t, s, y, Lit(v)),
                         lambda c, t=t, x=x, u=u, y=y, v=v:
                             R.eval_conditional(c.gamma, t, x, u, y, v))
                        for y, v in targets]
        for m in method_instances(spec):
            out.append((Poss(t, m), lambda c, t=t, m=m:
                        R.eval_possible_meth(c.beta, t, m)))
            out.append((Def(t, m), lambda c, t=t, m=m:
                        R.eval_definite_meth(c.beta, t, m)))
            out += [(Cond(t, m, y, Lit(v)), lambda c, t=t, m=m, y=y, v=v:
                     R.eval_cond_cross(c.beta, c.gamma, t, m, y, v, spec))
                    for y, v in targets]
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except StateError:
        return StateError


def mismatches(system, configs):
    """The (atom, configuration) pairs on which the atom and its reference
    disagree, and the number of pairs compared."""
    ectx = system.ctx
    pairs = instances(system)
    bad, n = [], 0
    for cfg in configs:
        for atom, ref in pairs:
            n += 1
            if outcome(eval_assertion, atom, cfg, ectx, {}) != outcome(ref,
                                                                       cfg):
                bad.append((atom, cfg))
    return bad, n


def test_atoms_agree_with_the_reference_on_the_corpus_and_fifo():
    systems = [build_system(load_corpus(name)) for name in CORPUS]
    systems.append(build_system(parse_litmus(fifo_litmus(2))))
    total = 0
    for system in systems:
        res = explore(system.cfg0, system.ctx, 64)
        bad, n = mismatches(system, res.states[:res.states_explored])
        assert bad == [], (system.lf.name, bad[:3])
        total += n
    assert total > 100_000


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(litmus_files())
def test_atoms_agree_with_the_reference_on_generated_files(text):
    try:
        system = build_system(parse_litmus(text))
        res = explore(system.cfg0, system.ctx, 12)
    except (LitmusError, ProgramError, StateError):
        return  # an input error: no states to compare at
    bad, _ = mismatches(system, res.states[:res.states_explored])
    assert bad == [], (text, bad[:3])
