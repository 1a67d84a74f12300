"""
Graph gadgets and multipass streaming
=====================================

A set-chase intersection instance compiles into three graph gadgets:
a layered path graph where the answer controls whether dist(u, v) is
2(p+1) or larger, a directed copy for reachability, and a bipartite
gadget whose perfect matching exists iff the answer is 1.  Edge streams
are then fed to one-pass and multipass algorithms whose pass counts
depend on the arrival order the gadget fixes.
"""

import numpy as np

from chasebench import gadgets, games, oracles, streaming

rng = np.random.default_rng(5)
inst = games.sample_intersect_sc(4, 2, rng, include_prob=0.35)
truth = games.eval_intersect_sc(inst)
print("game answer:", truth)

# All three gadget oracles agree with the game.
dist_g = gadgets.build_distance_gadget(inst)
reach_g = gadgets.build_reachability_gadget(inst)
match_g = gadgets.build_matching_gadget(inst)
d = oracles.oracle_distance(dist_g)
print(f"distance gadget : nv={dist_g.nv} ne={dist_g.ne} dist={d} (answer iff <= {2 * inst.p})")
print(f"reach gadget    : reachable={oracles.oracle_reachable(reach_g)}")
print(f"matching gadget : nv={match_g.nv} perfect_matching={oracles.oracle_perfect_matching(match_g)}")

# The text form is the exchange format the CLI uses.
print("\nfirst lines of the distance stream:")
print("\n".join(gadgets.serialize_stream(dist_g).splitlines()[:4]))

# Streaming pass counts on the canonical chain instance (identity tables,
# so the chase is a single path and the answer is 1).
ident = games.SetFunctionTable.identity(4)
side = games.ScInstance(4, 2, (ident, ident))
chain = gadgets.build_distance_gadget(games.IntersectScInstance(side, side))

for name in sorted(streaming.ALGORITHMS):
    factory = streaming.ALGORITHMS[name]
    alg = factory(2 * (chain.p + 1)) if name.endswith("bfs") else factory()
    rep = streaming.run_streaming(alg, chain, chain.nv + 1)
    print(f"{name:17s} answer={rep.answer} passes={rep.passes_used} state_bits={rep.max_state_bits}")

# Arrival order matters: the gadget emits blocks outermost-table-first,
# which lets a directed frontier walk finish a whole chase layer per
# pass.  Reversing the stream costs it an extra pass; forward BFS is
# oblivious to order and pays 2 passes per chase step either way.
reach_chain = gadgets.build_reachability_gadget(games.IntersectScInstance(side, side))
for label, s in (("gadget order", reach_chain), ("reversed", gadgets.reverse_stream(reach_chain))):
    rep = streaming.run_streaming(streaming.alg_directed_frontier(), s, s.nv + 1)
    print(f"directed-frontier on {label:12s}: passes={rep.passes_used}")
for label, s in (("gadget order", chain), ("reversed", gadgets.reverse_stream(chain))):
    rep = streaming.run_streaming(streaming.alg_forward_bfs(2 * (s.p + 1)), s, s.nv + 1)
    print(f"forward-bfs on {label:12s}: passes={rep.passes_used}")

# State snapshots at pass boundaries are first-class: serialize, drop
# everything, restore into a fresh algorithm, and finish the run.
alg = streaming.alg_forward_bfs(2 * (chain.p + 1))
alg.init(streaming.StreamMeta.of(chain))
for _ in range(2):
    alg.run_pass(chain.edges)
blob = alg.serialize_state()
print("snapshot after 2 passes:", len(blob), "bytes")

resumed = streaming.alg_forward_bfs(2 * (chain.p + 1))
resumed.init(streaming.StreamMeta.of(chain))
resumed.restore_state(blob)
answer = None
while answer is None:
    answer = resumed.run_pass(chain.edges)
print("resumed run answer:", answer)
