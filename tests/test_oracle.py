import pytest

from rarcheck.explore import explore
from rarcheck.litmus import build_system, parse_litmus
from rarcheck.oracle import (fifo_check, fifo_litmus, matched_order_ok,
                             sequential_fifo_outcomes)
from rarcheck.state import (EMPTY, OBJ, Action, ComponentState, Layout,
                            DEQUEUE, ENQUEUE)


class TestSequentialOracle:
    def test_single_element(self):
        got = sequential_fifo_outcomes([1], 1)
        assert got == {(1,), (EMPTY,)}

    def test_two_elements_order(self):
        got = sequential_fifo_outcomes([1, 2], 2)
        # dequeued non-empty values always appear in enqueue order
        for tup in got:
            vals = [v for v in tup if v is not EMPTY]
            assert vals == sorted(vals)
        assert (1, 2) in got and (EMPTY, EMPTY) in got
        assert (2, 1) not in got

    def test_interleaving_count_consistency(self):
        # with 3+3 operations the oracle sees every C(6,3) = 20 interleaving
        got = sequential_fifo_outcomes([1, 2, 3], 3)
        assert (1, 2, 3) in got
        assert (EMPTY, EMPTY, EMPTY) in got
        assert (EMPTY, 1, 2) in got
        assert all(tuple(v for v in t if v is not EMPTY) ==
                   tuple(sorted(v for v in t if v is not EMPTY)) for t in got)


class TestModelAgainstOracle:
    def test_two_enqueues(self):
        res = fifo_check(2)
        assert res["verdict"] == "pass"
        assert res["model_minus_oracle"] == []
        assert res["oracle_minus_model"] == []

    def test_litmus_text_parses(self):
        from rarcheck.litmus import parse_litmus
        lf = parse_litmus(fifo_litmus(3))
        assert len(lf.threads) == 2


class TestMatchedOrder:
    def test_empty_ok(self):
        class S:
            matched = frozenset()
        assert matched_order_ok(S())

    def test_inversion_detected(self):
        class S:
            matched = frozenset({(1, 4), (2, 3)})
        assert not matched_order_ok(S())


def _library(kinds: str, matched):
    """A hand-built queue component of two threads, its column read from
    `kinds` ('e' an enqueue of its position, 'd' a dequeue), as a reduced
    run stores it: its dead prefix forgotten, so no initial operation."""
    lay = Layout(["q"], [], [1, 2])
    col = tuple(Action(ENQUEUE if k == "e" else DEQUEUE, "q", val=r,
                       sync=OBJ) for r, k in enumerate(kinds))
    views = ((0,), (0,))
    return ComponentState(lay, (col,), views,
                          (tuple((r,) for r in range(len(col))),),
                          tuple(sorted(matched)))


class TestMatchedOrderOfForgottenStates:
    def test_two_kept_pairs_in_the_wrong_order_fail(self):
        # the earlier enqueue (0) is taken by the later dequeue (3)
        assert not matched_order_ok(_library("eedd", [(0, 3), (1, 2)]))
        assert matched_order_ok(_library("eedd", [(0, 2), (1, 3)]))

    def test_a_straddling_pair_comes_first(self):
        # (-1, 2)'s enqueue was forgotten, so it lay below the kept enqueue
        # 0, and its dequeue must come before the kept pair's
        assert not matched_order_ok(_library("edd", [(-1, 2), (0, 1)]))
        assert matched_order_ok(_library("edd", [(-1, 1), (0, 2)]))

    def test_straddling_pairs_alone_pass(self):
        # their forgotten enqueues cannot be ordered against each other
        assert matched_order_ok(_library("dd", [(-1, 0), (-1, 1)]))


@pytest.mark.parametrize("n", range(8))
def test_every_reachable_fifo_library_state_passes(n):
    system = build_system(parse_litmus(fifo_litmus(n)))
    res = explore(system.cfg0, system.ctx, 96, reduce=True)
    assert not res.truncated
    betas = {cfg.beta for cfg in res.states}
    assert all(map(matched_order_ok, betas))
    if n >= 3:  # the dead prefix is forgotten in some of them
        assert any(e < 0 for beta in betas for e, _ in beta.matched)
