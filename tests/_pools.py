"""A pool cut down to some of its ids, for walks over a subset of rows."""

from __future__ import annotations

from alsift.learner import LabeledPool


def sub_pool(pool: LabeledPool, ids) -> LabeledPool:
    """The rows of ``pool`` for ``ids``, in the given order, as a pool of their
    own; an unknown id raises KeyError as ``rows_for`` does."""
    rows = pool.rows_for(ids)
    return LabeledPool(pool.features[rows], pool.labels[rows], pool.sample_ids[rows], pool.n_classes)
