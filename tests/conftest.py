import pytest

from retnet import model
from retnet.model import Graph, ROOTED


def six_leaf_network() -> Graph:
    """Rooted binary network with 6 leaves and 4 reticulations.

    Used across tests as a nontrivial worked example: reticulations at
    every depth, one reticulation chain, and 16 switchings.
    """
    ids: dict[str, int] = {}

    def nid(name: str) -> int:
        return ids.setdefault(name, len(ids))

    edges = []
    for a, b in [("t9", "t8"), ("t9", "t7"), ("t8", "l1"), ("t8", "r2"),
                 ("t7", "r2"), ("t7", "t6"), ("t6", "r3"), ("t6", "t5"),
                 ("t5", "l6"), ("t5", "r1"), ("t1", "l4"), ("t1", "r1"),
                 ("t2", "t1"), ("t2", "r4"), ("t3", "l2"), ("t3", "r4"),
                 ("t4", "t3"), ("t4", "r3"), ("r1", "l5"), ("r2", "t4"),
                 ("r3", "t2"), ("r4", "l3")]:
        edges.append((nid(a), nid(b)))
    labels = {nid(f"l{i}"): i for i in (1, 2, 3, 4, 5, 6)}
    return model.make_graph(ROOTED, range(len(ids)), edges, labels)


@pytest.fixture
def n6r4():
    return six_leaf_network()
