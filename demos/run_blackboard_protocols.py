"""
Blackboard protocols for set-chase intersection
===============================================

2p players share a blackboard and run one exact protocol: each player
extends a chase by its own layer once it has read the next player's set.
Only the speaking order differs.  In the standard order (players 0 to
2p-1, every round) a set moves one layer per round, so the protocol takes
p rounds; in the reverse order each player speaks after the one it reads,
so it takes one round.  The transcripts expose the bit accounting that
makes pass/round trade-offs visible.
"""

import numpy as np

from chasebench import games, protocols

rng = np.random.default_rng(20260825)
inst = games.sample_intersect_sc(8, 2, rng, include_prob=0.3)
print("truth:", games.eval_intersect_sc(inst))

# Forward: p rounds, each layer broadcast as an n-bit set indicator.
answer, tr = protocols.forward_sc_protocol(inst)
print(f"forward : answer={answer} rounds={tr.rounds} total_bits={tr.total_bits}")
print(f"          set-message bits={protocols.set_message_bits(tr, inst.n)} (= 2pn = {4 * inst.n})")

# Reverse order: one round.  Player order runs from the outermost table
# down to player 0, who announces the answer.
answer, tr = protocols.reverse_order_sc_protocol(inst)
print(f"reverse : answer={answer} rounds={tr.rounds} total_bits={tr.total_bits}")

# The transcript dump shows (round, player, bits) per message.
print("\nreverse-order transcript:")
print(tr.dump())

# Agreement holds on every instance, not just this one.
mismatch = 0
for _ in range(500):
    g = games.sample_intersect_sc(6, int(rng.integers(1, 4)), rng)
    truth = games.eval_intersect_sc(g)
    mismatch += protocols.forward_sc_protocol(g)[0] != truth
    mismatch += protocols.reverse_order_sc_protocol(g)[0] != truth
print("mismatches over 500 random instances:", mismatch)
