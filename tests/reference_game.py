"""A reference for the simulation game's losing pairs, independent of the
counter-based attractor in `rarcheck.refine`.

It is the greatest-fixpoint loop taken literally: each round rescans every
pair and prunes those with a concrete step all of whose candidate replies
were pruned in earlier rounds.  The round a pair is pruned in is its layer.
"""


def rounds(moves):
    """Pair number -> the round it is pruned in.  `moves[n]` lists pair n's
    concrete steps as (step, candidate pair numbers)."""
    losing = {}
    round_no = 0
    while True:
        fresh = [n for n, step_moves in enumerate(moves)
                 if n not in losing
                 and any(all(p in losing for p in cands)
                         for _, cands in step_moves)]
        if not fresh:
            return losing
        for n in fresh:
            losing[n] = round_no
        round_no += 1
