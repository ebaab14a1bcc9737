"""
Hybridization number, brute-forced
==================================

min_reticulations finds the least r such that some network with r
reticulations displays every tree of a given set, by exhaustive search
through the tower of the set's first tree: level by level, the networks
that display it, in canonical order.  worst_case_r maximizes that over
all t-element tree sets, one tower per tree shape, giving ground truth
for the counting lower bound.
"""

from retnet import ROOTED, counting_lower_bound, min_reticulations, worst_case_r
from retnet.generate import enumerate_trees
from retnet.model import tree_set
from retnet.serialize import network_to_enewick, tree_to_newick

trees = enumerate_trees(3, ROOTED)
ts = tree_set(trees[:2])
r, witness = min_reticulations(ts)
print("two trees on 3 leaves need r =", r)
print("witness:", network_to_enewick(witness))

r_worst, hardest = worst_case_r(3, 2, ROOTED)
print("\nworst pair on 3 leaves needs r =", r_worst)
for T in hardest.trees:
    print("  ", tree_to_newick(T))

print("\ncounting_lower_bound(3, 2) =", counting_lower_bound(3, 2, ROOTED),
      "<=", r_worst)
