from component_views import cvd, mview, tview
from rarcheck.memory import mem_read, mem_update, mem_write
from rarcheck.objects import spec_of
from rarcheck.state import (fai, make_init_states, open_read, update, write,
                            wrval)


def mp_init():
    """d and f, two threads, no library."""
    return make_init_states([("d", 0), ("f", 0)], {"d", "f"}, (), {1, 2})


def values_read(g, b, t, x, **kw):
    """The value each successor of t's open read of x reads."""
    return [v for _, _, _, v in mem_read(g, b, t, open_read(x, **kw))]


def reading(g, b, t, x, v, **kw):
    """The one successor of t's open read of x that reads v."""
    (succ,) = [s for s in mem_read(g, b, t, open_read(x, **kw)) if s[3] == v]
    return succ


class TestRead:
    def test_init_read_zero(self):
        _, g, b = mp_init()
        out = mem_read(g, b, 1, open_read("d"))
        assert len(out) == 1
        g2, b2, r, v = out[0]
        assert b2 is b and (r.ts, v) == (0, 0)

    def test_init_read_absent_value(self):
        # only the initial 0 can be read, so no successor reads 5
        _, g, b = mp_init()
        assert values_read(g, b, 1, "d") == [0]

    def test_message_passing_sync_blocks_stale_read(self):
        # t1: d := 5; f :=R 1.  t2: rA f reading 1, then rd(d, 0) must fail.
        _, g, b = mp_init()
        (g, b, _, _), = mem_write(g, b, 1, write("d", 5))
        # choose the insertion after the later write on f's timeline
        (g, b, _, _), = mem_write(g, b, 1, write("f", 1, releasing=True))
        assert values_read(g, b, 2, "f", acquiring=True) == [0, 1]
        g, b, _, _ = reading(g, b, 2, "f", 1, acquiring=True)
        assert values_read(g, b, 2, "d") == [5]

    def test_relaxed_write_gives_no_sync(self):
        _, g, b = mp_init()
        (g, b, _, _), = mem_write(g, b, 1, write("d", 5))
        (g, b, _, _), = mem_write(g, b, 1, write("f", 1))  # relaxed flag
        g, b, _, _ = reading(g, b, 2, "f", 1, acquiring=True)
        # stale read of d is still possible
        assert values_read(g, b, 2, "d") == [0, 5]

    def test_failed_cas_read_skips_expected_value(self):
        _, g, b = mp_init()
        for v in (5, 0, 7):
            (g, b, _, _), = mem_write(g, b, 1, write("d", v))
        assert values_read(g, b, 2, "d") == [0, 5, 0, 7]
        assert values_read(g, b, 2, "d", skip=0) == [5, 7]
        assert values_read(g, b, 2, "d", skip=7) == [0, 5, 0]


class TestWrite:
    def test_single_successor_and_view_advance(self):
        _, g, b = mp_init()
        out = mem_write(g, b, 1, write("d", 5))
        assert len(out) == 1
        g2, _, new, _ = out[0]
        assert g2.obs(1, "d") == [new]
        # the other thread still sees both writes
        assert len(g2.obs(2, "d")) == 2

    def test_covered_predecessor_is_skipped(self):
        _, g, b = mp_init()
        (init_d,) = g.ops_on("d")
        (g, b, _, _), = mem_update(g, b, 2, update("d", 0, 5))
        assert g.covers(init_d)
        # thread 1 observes the covered initial write and the update, and
        # writes only after the update
        assert [w.ts for w in g.obs(1, "d")] == [0, 1]
        assert [new.ts for _, _, new, _ in mem_write(
            g, b, 1, write("d", 7))] == [2]

    def test_two_observable_predecessors_two_successors(self):
        _, g, b = mp_init()
        (g, b, _, _), = mem_write(g, b, 1, write("d", 5))
        # thread 2 still observes init and the new write: two insertion points
        out = mem_write(g, b, 2, write("d", 7))
        assert len(out) == 2
        positions = sorted(new.ts for _, _, new, _ in out)
        all_ts = sorted(op.ts for op in out[0][0].ops_on("d"))
        assert len(set(positions)) == 2

    def test_mview_spans_context(self):
        rho, g, b = make_init_states(
            [("d", 0)], {"d"}, spec_of("lock", "l").init_actions(), {1, 2})
        (g2, _, new, _), = mem_write(g, b, 1, write("d", 5))
        assert "l" in mview(g2)[new]  # records the library viewfront too

    def test_fresh_timestamps_along_runs(self):
        _, g, b = mp_init()
        for i, v in enumerate((5, 7, 9)):
            (g, b, _, _), = mem_write(g, b, 1, write("d", v))
        times = [op.ts for op in g.ops_on("d")]
        assert len(set(times)) == 4


class TestUpdate:
    def test_update_covers_predecessor(self):
        rho, g, b = make_init_states([], set(), [write("glb", 0)], {1, 2})
        out = mem_update(b, g, 1, update("glb", 0, 1))
        assert len(out) == 1
        b2, g2, new, _ = out[0]
        (init_glb,) = b.ops_on("glb")
        assert init_glb in cvd(b2)
        assert new.action.aux == 0 and new.action.val == 1

    def test_value_mismatch_everywhere(self):
        rho, g, b = make_init_states([], set(), [write("glb", 0)], {1})
        assert mem_update(b, g, 1, update("glb", 7, 8)) == []

    def test_two_fai_adjacent_and_covered(self):
        # ticket-lock prelude: two threads fetch-and-increment nt
        rho, g, b = make_init_states([], set(), [write("nt", 0)], {1, 2})
        (b, g, op1, _), = mem_update(b, g, 1, update("nt", 0, 1))
        out = mem_update(b, g, 2, update("nt", 1, 2))
        assert len(out) == 1
        b2, g2, op2, _ = out[0]
        times = sorted(o.ts for o in b2.ops_on("nt"))
        assert times.index(op2.ts) == times.index(op1.ts) + 1
        assert op1 in cvd(b2)
        # second FAI of the same expected value is now impossible
        assert mem_update(b2, g2, 1, update("nt", 1, 2)) == []

    def test_update_synchronises_when_reading_release(self):
        _, g, b = mp_init()
        (g, b, _, _), = mem_write(g, b, 1, write("d", 5))
        (g, b, _, _), = mem_write(g, b, 1, write("f", 1, releasing=True))
        (g2, b2, _, _), = mem_update(g, b, 2, update("f", 1, 2))
        assert values_read(g2, b2, 2, "d") == [5]

    def test_fai_reads_each_integer_and_writes_its_successor(self):
        rho, g, b = make_init_states([], set(), [write("nt", 0)], {1, 2})
        for v in (4, True, 9):
            (b, g, _, _), = mem_write(b, g, 2, write("nt", v))
        out = mem_update(b, g, 1, fai("nt"))
        # booleans are not fetch-and-increment bases
        assert [(op.action.aux, op.action.val) for _, _, op, _ in out] == \
            [(0, 1), (4, 5), (9, 10)]
        for b2, _, op, _ in out:
            pred = b2.ops_on("nt")[op.ts - 1]
            assert pred in cvd(b2) and wrval(pred.action) == op.action.aux


class TestViewMonotonicity:
    def test_writer_view_never_decreases(self):
        _, g, b = mp_init()
        before = {x: op.ts for x, op in tview(g)[1].items()}
        (g2, _, _, _), = mem_write(g, b, 1, write("d", 5))
        after = {x: op.ts for x, op in tview(g2)[1].items()}
        assert all(after[x] >= before[x] for x in before)

    def test_other_thread_views_unchanged(self):
        _, g, b = mp_init()
        (g2, b2, _, _), = mem_write(g, b, 1, write("d", 5))
        assert tview(g2)[2] == tview(g)[2]
        assert tview(b2) == tview(b)
