import pytest
from hypothesis import given, strategies as st

from component_views import cvd, mview, ops, tview, variables
import rarcheck.memory
import rarcheck.objects
from rarcheck.objects import spec_of
from rarcheck.explore import explore
from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.oracle import fifo_litmus
from rarcheck.refine import builtin_impls
from rarcheck.state import (BOT, RVAL, ComponentState, StateError, TOp,
                            insert_fresh_timestamp, make_init_states,
                            merge_views, write, LOCK_ACQUIRE, UPDATE)


def mk_state(n_writes, var="d", threads=(1, 2)):
    """A client with n_writes writes on var after its initial write, each
    appended by thread 1, so positions 0..n_writes; thread 2 views the init."""
    _, g, b = make_init_states([(var, 0)], (), set(threads))
    for i in range(1, n_writes + 1):
        g, b, _ = insert_fresh_timestamp(g, b, 1, i - 1, write(var, i))
    return g, b, g.ops_on(var)


def init_lock_system():
    return make_init_states([("d", 0)],
                            spec_of("lock", "l").init_actions(), {1, 2})


def positions_dense(comp) -> bool:
    """Each variable's n operations at positions 0..n-1, one each."""
    return sorted((op.action.var, op.ts) for op in ops(comp)) == sorted(
        (x, r) for x in variables(comp) for r in range(len(comp.ops_on(x))))


class TestMakeInit:
    def test_lock_init(self):
        rho, gamma, beta = init_lock_system()
        assert {op.action.kind for op in ops(beta)} == {"lock_init"}
        (lock_op,) = ops(beta)
        assert lock_op.ts == 0 and lock_op.action.index == 0
        (d_op,) = ops(gamma)
        assert d_op.action.val == 0 and d_op.ts == 0
        assert cvd(gamma) == frozenset() and cvd(beta) == frozenset()
        assert rho[1][RVAL] is BOT
        # init mviews span both components
        assert mview(beta)[lock_op]["d"] == d_op.ts
        assert mview(gamma)[d_op]["l"] == lock_op.ts

    def test_empty_init(self):
        rho, gamma, beta = make_init_states([], (), {1})
        assert ops(gamma) == frozenset() and ops(beta) == frozenset()
        assert tview(gamma)[1] == {} and tview(beta)[1] == {}

    def test_two_vars_definite_for_all_threads(self):
        rho, gamma, beta = make_init_states(
            [("d1", 0), ("d2", 0)],
            spec_of("lock", "l").init_actions(), {1, 2})
        for t in (1, 2):
            for x in ("d1", "d2"):
                viewed = tview(gamma)[t][x]
                assert viewed.action.val == 0
                assert viewed == max(gamma.ops_on(x), key=lambda o: o.ts)

    def test_duplicate_init_rejected(self):
        with pytest.raises(StateError):
            make_init_states([("d", 0), ("d", 1)], (), {1})


class TestObservable:
    def test_init_only(self):
        _, gamma, _ = init_lock_system()
        (d_op,) = ops(gamma)
        assert gamma.obs(1, "d") == [d_op]

    def test_filter_by_view(self):
        state, _, ops = mk_state(2)
        assert state.obs(1, "d") == [ops[2]]
        assert state.obs(2, "d") == ops
        view = list(state.view(1))
        view[state.lay.vix["d"]] = 1
        state = state.with_view(1, tuple(view))
        assert state.obs(1, "d") == [ops[1], ops[2]]

    def test_unknown_variable(self):
        _, gamma, _ = init_lock_system()
        with pytest.raises(StateError):
            gamma.obs(1, "nope")


class TestMaxTs:
    def test_lock_init_zero(self):
        _, _, beta = init_lock_system()
        assert beta.max_op("l").ts == 0

    def test_plain_max(self):
        state, _, ops = mk_state(3)
        assert state.max_op("d") == ops[-1] and ops[-1].ts == 3

    def test_no_ops(self):
        _, gamma, _ = init_lock_system()
        with pytest.raises(StateError):
            gamma.max_op("zz")


class TestMergeViews:
    def test_idempotent(self):
        v = (0, 3, 1)
        assert merge_views(v, v) == v

    def test_later_wins(self):
        assert merge_views((1,), (2,)) == (2,)
        assert merge_views((2,), (1,)) == (2,)

    def test_pointwise(self):
        assert merge_views((2, 0), (1, 3)) == (2, 3)

    def test_domain_is_first_argument(self):
        # a recorded view continues with the other component's variables
        assert merge_views((1,), (0, 5)) == (1,)

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6),
           st.lists(st.integers(0, 40), min_size=6, max_size=8))
    def test_pointwise_max_property(self, v1, v2):
        got = merge_views(tuple(v1), tuple(v2))
        assert len(got) == len(v1)
        assert all(g == max(a, b) for g, a, b in zip(got, v1, v2))


class TestFreshTimestamp:
    def test_no_successor(self):
        state, other, ops = mk_state(0)
        s2, _, new = insert_fresh_timestamp(state, other, 1, 0, write("d", 9))
        assert new.ts == 1 and s2.ops_on("d") == [ops[0], new]

    def test_forced_interval(self):
        # inserting right after the init pushes the later write up by one
        state, other, ops = mk_state(1)
        s2, _, new = insert_fresh_timestamp(state, other, 2, 0, write("d", 9))
        assert new.ts == 1
        assert [op.action.val for op in s2.ops_on("d")] == [0, 9, 1]
        assert [op.ts for op in s2.ops_on("d")] == [0, 1, 2]

    def test_midpoint(self):
        state, other, ops = mk_state(2)
        s2, _, new = insert_fresh_timestamp(state, other, 2, 1, write("d", 9))
        assert new.ts == 2
        assert [op.action.val for op in s2.ops_on("d")] == [0, 1, 9, 2]
        # thread 1 viewed the last write; its view moved up with it
        assert tview(s2)[1]["d"].action.val == 2
        assert tview(s2)[2]["d"] == new

    def test_pred_not_in_ops(self):
        state, other, _ = mk_state(0)
        with pytest.raises(StateError):
            insert_fresh_timestamp(state, other, 1, 9, write("d", 9))
        with pytest.raises(StateError):
            insert_fresh_timestamp(state, other, 1, 0, write("zz", 9))

    @given(st.lists(st.tuples(st.sampled_from(["d", "e", "g"]),
                              st.integers(0, 20), st.sampled_from([1, 2])),
                    min_size=1, max_size=10))
    def test_fresh_predicate_always_holds(self, inserts):
        # random insertions into a client (d, e) and a library (g) whose
        # recorded views refer to each other: each new op lands right after
        # its predecessor, every later position on its variable moves up by
        # one, every reference to that variable follows, and no position on
        # any other variable changes
        _, g, b = make_init_states([("d", 0), ("e", 0)],
                                   [write("g", 0)], {1, 2})
        for i, (x, k, t) in enumerate(inserts, start=1):
            (c, other) = (b, g) if x == "g" else (g, b)
            pred = c.ops_on(x)[k % len(c.ops_on(x))]
            c2, other2, new = insert_fresh_timestamp(c, other, t, pred.ts,
                                                     write(x, 100 + i))

            def moved(r, y):
                return r + 1 if y == x and r >= new.ts else r

            assert new.ts == pred.ts + 1 and positions_dense(c2)
            assert ops(c2) == {op._replace(ts=moved(op.ts, op.action.var))
                               for op in ops(c)} | {new}
            for t2, view in tview(c).items():
                for y, op in view.items():
                    expect = new if (t2, y) == (t, x) else \
                        op._replace(ts=moved(op.ts, y))
                    assert tview(c2)[t2][y] == expect
            for comp, comp2 in ((c, c2), (other, other2)):
                for op, mv in mview(comp).items():
                    op2 = op._replace(ts=moved(op.ts, op.action.var))
                    assert mview(comp2)[op2] == {y: moved(r, y)
                                                for y, r in mv.items()}
            assert tview(other2) == tview(other)
            g, b = (other2, c2) if x == "g" else (c2, other2)


def _up(view, i, nr):
    r = view[i]
    return view if r < nr else view[:i] + (r + 1,) + view[i + 1:]


def reference_insert(state, other, t, pred, action, sync_from=None,
                     match=False):
    """insert_fresh_timestamp as first written: every insertion renumbers
    every position in every column of both components, also where none
    moves, as when the new operation tops its variable; and the covered
    operations are a mask over (variable, position) pairs, renumbered the
    same way, where an update or an acquire covers its predecessor.  Also
    returns that mask."""
    lay = state.lay
    m = len(lay.own)
    x = action.var
    xi = lay.vix[x]
    ti = lay.tix[t]
    nr = pred + 1
    action = lay.intern(action)
    tv, ctv = state.views[ti], other.views[ti]
    if sync_from is not None:
        src = state.mviews[xi][sync_from]
        tv = merge_views(tv, src)
        ctv = merge_views(ctv, src[m:])
    tv = tv[:xi] + (nr,) + tv[xi + 1:]
    views = [_up(v, xi, nr) for v in state.views]
    views[ti] = tv
    acts = [list(col) for col in state.acts]
    acts[xi].insert(nr, action)
    mviews = [[_up(v, xi, nr) for v in col] for col in state.mviews]
    mviews[xi].insert(nr, tv + ctv)
    covered = {(y, r + (y == x and r >= nr)) for y in lay.own
               for r, op in enumerate(state.ops_on(y)) if state.covers(op)}
    if action.kind in (UPDATE, LOCK_ACQUIRE):
        covered.add((x, pred))
    matched = tuple((e + (e >= nr), d + (d >= nr)) for e, d in state.matched)
    if match:
        matched = tuple(sorted(matched + ((sync_from, nr),)))
    state2 = ComponentState(lay, tuple(map(tuple, acts)), tuple(views),
                            tuple(map(tuple, mviews)), matched)
    oxi = len(other.lay.own) + xi
    omviews = tuple(tuple(_up(v, oxi, nr) for v in col)
                    for col in other.mviews)
    other_views = list(other.views)
    other_views[ti] = ctv
    other2 = ComponentState(other.lay, other.acts, tuple(other_views),
                            omviews, other.matched)
    return state2, other2, TOp(action, nr), covered


def _corpus_systems():
    impls = builtin_impls()
    names = ("lock-two-rounds", "lockmp", "lockmp-mutant", "mp-relacq",
             "mp-relaxed", "queue-mp", "seqlock-refine", "ticketlock-refine")
    systems = [build_system(load_corpus(name)) for name in names]
    systems.append(build_system(parse_litmus(fifo_litmus(3))))
    for client in ("seqlock-refine", "ticketlock-refine",
                   "lock-two-rounds"):
        for impl in impls.values():
            systems.append(build_system(load_corpus(client), impl))
    return systems


@pytest.fixture(scope="module")
def corpus_insertions():
    """Every insertion the corpus explorations make, top appends and
    insertions below the top alike: (args, kwargs, result) each."""
    calls = []

    def recording(*args, **kwargs):
        result = insert_fresh_timestamp(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        for module in (rarcheck.memory, rarcheck.objects):
            mp.setattr(module, "insert_fresh_timestamp", recording)
        for system in _corpus_systems():
            explore(system.cfg0, system.ctx, 64)
    return calls


def test_insertions_match_the_general_renumbering(corpus_insertions):
    tops = 0
    for args, kwargs, (s2, o2, new) in corpus_insertions:
        r2, ro2, rnew, covered = reference_insert(*args, **kwargs)
        assert (s2._parts(), o2._parts(), new) == \
            (r2._parts(), ro2._parts(), rnew)
        assert all(s2.covers(op) == ((op.action.var, op.ts) in covered)
                   for op in ops(s2))
        tops += new == s2.max_op(new.action.var)
    assert 0 < tops < len(corpus_insertions)


def test_insertions_share_the_columns_they_leave_alone(corpus_insertions):
    # every own column but x's is the very object of the state inserted
    # into; a top append moves no recorded view, so it shares those too,
    # and it leaves the other component's columns alone
    tops = 0
    for (state, other, *_), _, (s2, o2, new) in corpus_insertions:
        xi = state.lay.vix[new.action.var]
        top = new == s2.max_op(new.action.var)
        tops += top
        assert o2.acts is other.acts
        for yi, col in enumerate(state.acts):
            assert (s2.acts[yi] is col) == (yi != xi)
            if top and yi != xi:
                assert s2.mviews[yi] is state.mviews[yi]
        if top:
            assert o2.mviews is other.mviews
    assert 0 < tops < len(corpus_insertions)


def test_with_view_shares_every_column():
    state, _, _ = mk_state(2)
    s2 = state.with_view(2, (2,))
    assert s2.view(2) == (2,) and s2.view(1) == state.view(1)
    assert s2.acts is state.acts and s2.mviews is state.mviews
