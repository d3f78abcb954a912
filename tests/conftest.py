import numpy as np
import pytest

import markerscreen as ms


@pytest.fixture(scope="session")
def water10():
    """One frozen water-background matrix, 30 true markers, n=10."""
    return ms.generate(ms.preset("water-n10", seed=8))


@pytest.fixture(scope="session")
def water10_scores(water10):
    return ms.score_matrix_lr(water10.matrix)


@pytest.fixture(scope="session")
def null_matrix_n10():
    """Pure-null 1000-protein matrix, n=10 per condition."""
    spec = ms.SimSpec(
        p=1000, n_true=0, n_per_condition=10, mu=15.0,
        sigma2_F=0.98, error_law=ms.ErrorLaw.normal(0.48),
        fold_change=np.log2(3.0), seed=5,
    )
    return ms.generate(spec)
