"""A reference for refinement's trace check: the depth-first walk over two
finished explorations that `check_simulation` replaced by its breadth-first
search.

It pairs each concrete state with the abstract states that may answer the
concrete trace to it (`refine._answer_sets`: the same answer sets), walks
every node that the concrete graph reaches, last found first, and stops at
the first concrete edge with an empty answer set.  On a passing check it
walks the nodes and edges the search walks, so its `traces_checked` is the
search's; a violation's path is a violating trace, but not in general a
shortest one.
"""

import rarcheck.refine as rf
from rarcheck.explore import step_path


def trace_refinement(conc, ab, project) -> rf.TraceCheckResult:
    """Trace inclusion of the concrete exploration `conc` in the abstract
    one `ab` (neither truncated), under the projector `project`: each
    state projected once, by its number, as in `check_simulation`."""
    aproj = [project(c) for c in ab.states]
    start, answer = rf._answer_sets(ab, aproj, rf._refines_memo())
    cproj = [project(c) for c in conc.states]
    node = (0, start)
    parents = {node: None}
    work = [node]
    visible = 0
    while work:
        node = work.pop()
        ck, aset = node
        for t, label, ck2 in conc.edges[ck]:
            if cproj[ck2] != cproj[ck]:
                visible += 1
            aset2 = answer(aset, cproj[ck2])
            if not aset2:
                path = rf._trace_path(parents, node) + step_path(t, label)
                return rf.TraceCheckResult(
                    "violation", path, visible,
                    "concrete client trace has no abstract match")
            node2 = (ck2, aset2)
            if node2 not in parents:
                parents[node2] = (node, t, label)
                work.append(node2)
    return rf.TraceCheckResult("trace-refinement", None, visible)
