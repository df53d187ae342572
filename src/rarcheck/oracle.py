"""Brute-force cross-checks, independent of the view-based semantics.

The FIFO oracle runs one enqueuer and one dequeuer against a plain
sequential queue under every interleaving of the two call sequences and
compares the dequeue-result tuples with the view-based exploration.
"""

from __future__ import annotations

from .explore import explore
from .litmus import build_system, parse_litmus
from .state import EMPTY


def sequential_fifo_outcomes(enq_values, n_deqs: int):
    """Dequeue-result tuples over all interleavings, FIFO semantics."""
    results = set()
    # (enqueues done, queue contents, dequeue results so far)
    stack = [(0, (), ())]
    while stack:
        qi, queue, acc = stack.pop()
        if len(acc) == n_deqs:
            results.add(acc)
            continue
        if qi < len(enq_values):
            stack.append((qi + 1, queue + (enq_values[qi],), acc))
        if queue:
            stack.append((qi, queue[1:], acc + (queue[0],)))
        else:
            stack.append((qi, queue, acc + (EMPTY,)))
    return results


def matched_order_ok(state) -> bool:
    """Matched pairs must be order-preserving: earlier enqueues are taken
    by earlier dequeues.  A pair whose enqueue a reduced run forgot, (-1,
    d), had its enqueue below every kept one, so its dequeue must come
    before every kept pair's."""
    pairs = sorted(state.matched)
    kept = [(e, d) for e, d in pairs if e >= 0]
    forgot = [d for e, d in pairs if e < 0]
    return (all(e1 < e2 and d1 < d2
                for (e1, d1), (e2, d2) in zip(kept, kept[1:]))
            and (not kept or all(d < kept[0][1] for d in forgot)))


def fifo_litmus(n_enqs: int) -> str:
    enqs = " ".join(f"q.enq({i});" for i in range(1, n_enqs + 1))
    deqs = " ".join(f"r{i} := q.deq();" for i in range(1, n_enqs + 1))
    return (f"name fifo-oracle-{n_enqs}\n"
            f"object queue q\n"
            f"thread 1 {{ {enqs} }}\n"
            f"thread 2 {{ {deqs} }}\n")


def fifo_check(n_enqs: int = 3, max_steps: int = 96) -> dict:
    """Explore the view-based queue and compare against the oracle."""
    system = build_system(parse_litmus(fifo_litmus(n_enqs)))
    res = explore(system.cfg0, system.ctx, max_steps, reduce=True)
    regs = [f"r{i}" for i in range(1, n_enqs + 1)]
    model = {tuple(oc[r] for r in regs) for oc in res.outcomes}
    oracle = sequential_fifo_outcomes(list(range(1, n_enqs + 1)), n_enqs)
    order_ok = all(map(matched_order_ok,
                       {cfg.beta for cfg in res.states}))
    ok = model == oracle and order_ok and not res.truncated
    return {
        "verdict": "pass" if ok else "fail",
        "states_explored": res.states_explored,
        "truncated": res.truncated,
        "matched_order_preserving": order_ok,
        "model_outcomes": sorted(map(repr, model)),
        "oracle_outcomes": sorted(map(repr, oracle)),
        "model_minus_oracle": sorted(map(repr, model - oracle)),
        "oracle_minus_model": sorted(map(repr, oracle - model)),
    }
