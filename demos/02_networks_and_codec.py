"""
Networks as trees: the pendant-pair codec
=========================================

A reticulation-labelled network on n leaves with r reticulations turns
into an ordinary tree on n + 2r leaves: each numbered edge h is replaced
by pendant leaves n + 2h - 1 and n + 2h at its two endpoints.  The map
is injective, which is how networks get counted by trees.  A labelling
carries its network (`lab.host`): `encode_tau(lab)` reads it from there,
and `decode_tau` returns the labelling alone.
"""

from retnet import (ROOTED, canonical_code, decode_tau, encode_tau,
                    enumerate_networks)
from retnet.generate import all_reticulation_labellings
from retnet.serialize import network_to_enewick, tree_to_newick

nets = enumerate_networks(3, 1, ROOTED)
print(f"{len(nets)} rooted networks with 3 leaves, 1 reticulation")

N = nets[0]
print("\nfirst network:", network_to_enewick(N))
for lab in all_reticulation_labellings(N):
    T = encode_tau(lab)
    numbered = tuple((N.edges[i], h) for i, h in lab.numbered)  # (edge, number) pairs
    print("  labelling", numbered, "->", tree_to_newick(T))
    back = decode_tau(T, 3, 1)
    assert canonical_code(back) == canonical_code(lab)  # back.host is N, up to node ids

# injectivity across the whole class: every labelled network, one tree
labelled, images = set(), set()
for N in nets:
    for lab in all_reticulation_labellings(N):
        labelled.add(canonical_code(lab).bytes)
        images.add(canonical_code(encode_tau(lab)).bytes)
print(f"\n{len(labelled)} labelled networks -> {len(images)} distinct trees")
assert len(labelled) == len(images)
