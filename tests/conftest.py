import numpy as np
import pytest

from topicarg.corpus import Vocabulary
from topicarg.nn import SeededRng


@pytest.fixture
def rng():
    return SeededRng(1234)


@pytest.fixture
def tiny_vocab():
    words = [f"w{i}" for i in range(12)]
    return Vocabulary(
        index_of={w: i for i, w in enumerate(words)},
        id_to_word=words,
    )


def assert_valid_distribution(p, tol=1e-6):
    p = np.asarray(p)
    assert np.all(p >= 0)
    assert abs(p.sum() - 1.0) <= tol
