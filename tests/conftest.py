# litrel first: loaded before numpy, it gives BLAS one thread, and only then do the lanes run on threads
import litrel  # noqa: F401
import numpy as np
import pytest

from litrel.data import build_graph


def random_graph(rng, num_entities=8, num_relations=2, num_attributes=3,
                 triples_per_relation=6, literal_density=0.7):
    """Small random KG with literals, for oracle-style tests."""
    entities = [f"e{i}" for i in range(num_entities)]
    relations = [f"r{i}" for i in range(num_relations)]
    attributes = [f"a{i}" for i in range(num_attributes)]
    seen = set()
    train = []
    for rel in relations:
        for _ in range(triples_per_relation):
            t = (entities[rng.integers(num_entities)], rel, entities[rng.integers(num_entities)])
            if t not in seen:
                seen.add(t)
                train.append(t)
    literals = [
        (e, a, float(rng.uniform(-5, 5)))
        for e in entities
        for a in attributes
        if rng.random() < literal_density
    ]
    return build_graph(train, [], [], literals)


def exact_scores(kernel, q):
    """B x |E| exact scores of the query rows ``q``: every pair through the ranking kernel's re-check."""
    num_entities = kernel.entity.shape[0]
    pairs = kernel.exact(np.repeat(q, num_entities, axis=0), np.tile(np.arange(num_entities), len(q)))
    return pairs.reshape(len(q), num_entities)


@pytest.fixture
def toy_graph():
    train = [
        ("alice", "rents", "house1"),
        ("bob", "rents", "house2"),
        ("carol", "rents", "house1"),
        ("alice", "knows", "bob"),
        ("bob", "knows", "carol"),
    ]
    valid = [("carol", "knows", "alice")]
    test = [("bob", "rents", "house1")]
    literals = [
        ("alice", "income", 3000.0),
        ("bob", "income", 4500.0),
        ("carol", "income", 1500.0),
        ("house1", "rent", 1000.0),
        ("house2", "rent", 1500.0),
    ]
    return build_graph(train, valid, test, literals)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
