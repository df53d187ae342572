"""A reference for full exploration, independent of the folding of
implementation-silent runs in `rarcheck.explore`.

It is the plain breadth-first search of single scheduler steps, built from
the engine's own rules (a thread state's local moves and a component rule's
successors): every step is one edge, and every configuration it reaches is
numbered when first reached, inside an implementation's silent runs too.
States stopped at the step bound have their successors numbered after every
explored state, as `explore` numbers them.  Its result has the fields the
refinement checks read, so `refine._game` can play over it as over
`explore`'s graph, and `single_steps` can stand in for the successors that
refinement's trace search pulls.
"""

from rarcheck import explore as ex


def single_steps(cfg, ctx, *_):
    """All (thread, label, configuration) successors of cfg by one
    scheduler step, in `successors()` order: by thread, then by label
    text.  It stands in for `successors` under the full fold policy, whose
    other arguments it ignores: a single step fits every step budget."""
    locs, gamma, beta = cfg
    out = []
    for i, ts in enumerate(locs):
        found = []
        for move in ex._moves(ts, ctx):
            if move.step.kind == "eps":
                found.append((move.label, move.next_state(ctx, ts.t), gamma,
                              beta))
                continue
            for g2, b2, result, label in ex._component_steps(
                    ctx, ts.t, move, gamma, beta):
                found.append((label, move.next_state(ctx, ts.t, result,
                                                     label), g2, b2))
        found.sort(key=lambda f: f[0].text)
        for label, ts2, g2, b2 in found:
            out.append((ts.t, label, ex.Configuration(
                (locs[:i] + (ts2,) + locs[i + 1:], g2, b2))))
    return out


def explore_unfolded(cfg0, ctx, max_steps=64):
    """The full state graph of single steps from cfg0 under the step bound,
    as an `ExploreResult`."""
    number = {cfg0: 0}
    states, via, edges, terminals = [cfg0], [None], [], []
    outcomes, truncated = set(), False
    frontier, level, beyond = [0], 0, 0
    while frontier:
        later = []
        expand = level < max_steps
        for n in frontier:
            succs = single_steps(states[n], ctx)
            if not succs:
                terminals.append(n)
                outcomes.add(ex._outcome_of(states[n], ctx))
            elif not expand:
                truncated = True
            out = []
            for t, label, nxt in succs:
                m = number.get(nxt)
                if m is None:
                    m = number[nxt] = len(states)
                    states.append(nxt)
                    via.append((n, t, label))
                    if expand:
                        later.append(m)
                    else:
                        beyond += 1
                out.append((t, label, m))
            edges.append(tuple(out))
        frontier = later
        level += 1
    outcomes = sorted(({r: v for r, v in oc} for oc in outcomes),
                      key=lambda d: sorted((k, repr(v)) for k, v in d.items()))
    return ex.ExploreResult(len(states) - beyond, outcomes, truncated, states,
                            edges, via, terminals)
