import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("weakrank", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("weakrank")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_corpus():
    """Hand-built corpus: 2 queries, 3 candidates, known statistics."""
    from defaults import LIMITS
    from weakrank.corpus import build_corpus

    docs = [
        {"id": "q1", "role": "query", "text": "python machine learning python"},
        {"id": "q2", "role": "query", "text": "pasta"},
        {"id": "c1", "role": "candidate", "text": "python data science handbook"},
        {"id": "c2", "role": "candidate", "text": "machine learning with python python python"},
        {"id": "c3", "role": "candidate", "text": "cooking recipes pasta"},
    ]
    return build_corpus(docs, **LIMITS)
