import random

import pytest

from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.oracle import fifo_litmus
from rarcheck.refine import builtin_impls
from reference_unfolded import explore_unfolded, single_steps


def _systems():
    out = []
    for name in ("mp-relaxed", "mp-relacq", "lockmp", "queue-mp",
                 "lock-two-rounds"):
        out.append(build_system(load_corpus(name)))
    out.append(build_system(parse_litmus(fifo_litmus(3))))
    impls = builtin_impls()
    for name, client in (("seqlock", "seqlock-refine"),
                         ("ticketlock", "ticketlock-refine"),
                         ("seqlock-relaxed", "seqlock-refine"),
                         ("ticketlock-relaxed", "ticketlock-refine")):
        out.append(build_system(load_corpus(client), impls[name]))
    return out


@pytest.fixture(scope="session")
def state_corpus():
    """(system, configuration) pairs drawn from full exploration of every
    bundled litmus system, by single steps (`reference_unfolded`), so the
    states inside an implementation's silent runs are among them; well
    over a thousand distinct states."""
    pairs = []
    for system in _systems():
        res = explore_unfolded(system.cfg0, system.ctx, 64)
        for cfg in res.states[:res.states_explored]:
            pairs.append((system, cfg))
    assert len(pairs) >= 1000
    return pairs


@pytest.fixture(scope="session")
def step_corpus(state_corpus):
    """(system, cfg, thread, label, cfg') single-step transitions sampled
    across the state corpus; at least a thousand."""
    rng = random.Random(7)
    sample = state_corpus if len(state_corpus) <= 1500 else \
        rng.sample(state_corpus, 1500)
    steps = []
    for system, cfg in sample:
        for t, lab, nxt in single_steps(cfg, system.ctx):
            steps.append((system, cfg, t, lab, nxt))
    assert len(steps) >= 1000
    return steps
