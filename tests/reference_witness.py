"""A reference for witness paths, independent of the edge that `explore`
records where it lands each state (`ExploreResult.via`).

It replays exploration's own order over the explored graph: level by level
in scheduler steps, each state's edges in `successors()` order, an edge of
n steps landing n levels on.  The first edge in that order to reach a state
is the one its witness ends with.  A reduced run keeps no edges, so each
state's are computed again, under the step budget `explore` gave it; and a
reduced edge also says how many queue operations it forgot, which every
later queue position on the path counts back in, as a full run names it.
"""

from rarcheck.explore import StepLabel, successors


def reference_paths(res, ctx, max_steps, reduce):
    """Stored state number -> its witness path, for every state the replay
    reaches."""
    number = {cfg: n for n, cfg in enumerate(res.states)}

    def edges(k, budget):
        if k >= res.states_explored:  # stored past the step bound
            return ()
        if res.edges is not None:
            return [(t, label, nxt, 0) for t, label, nxt in res.edges[k]]
        return [(t, label, number[nxt], forgot)
                for t, label, nxt, forgot in successors(
                    res.states[k], ctx, reduce, max(budget, 1))
                if nxt in number]

    parent = {0: None}
    frontier = [0]
    level = 0
    while frontier:
        later = []
        for k in frontier:
            if type(k) is tuple:  # an edge still on its way
                rest, via = k
                if rest > 1:
                    later.append((rest - 1, via))
                elif via[3] not in parent:
                    parent[via[3]] = via
                    later.append(via[3])
                continue
            for t, label, nxt, forgot in edges(k, max_steps - level):
                if type(label) is tuple:
                    later.append((len(label) - 1, (k, t, label, nxt, forgot)))
                elif nxt not in parent:
                    parent[nxt] = (k, t, label, nxt, forgot)
                    later.append(nxt)
        frontier = later
        level += 1
    return {n: _path(parent, n) for n in parent}


def _path(parent, key):
    edges = []
    while parent[key] is not None:
        key, t, label, _, forgot = parent[key]
        edges.append((t, label, forgot))
    path, forgotten = [], 0
    for t, label, forgot in reversed(edges):
        for lab in label if type(label) is tuple else (label,):
            if lab.component == "library" and lab.rank is not None:
                lab = StepLabel(lab.component, lab.action,
                                lab.rank + forgotten, lab.at_hole)
            path.append({"thread": t, "label": lab.text})
        forgotten += forgot
    return path
