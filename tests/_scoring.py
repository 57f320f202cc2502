"""One ensemble scored by the pool walk's own arithmetic, for spot values and
single-ensemble references: the (E, K) member rows, or one length-K vector as
a one-member ensemble, become the one float64 (E, 1, K) group of a one-row
block, checked by ``_check_rows`` and reduced by ``_reduce_block``."""

from __future__ import annotations

import numpy as np

from alsift import acquisition


def reduce_one(members, function_id=None, label=None):
    """The ``function_id`` score of one ensemble as a float, or its member mean
    (length K) when ``function_id`` is None. ``label`` is ``error_count``'s
    true class."""
    members = acquisition._check_rows(np.asarray(members, dtype=np.float64))
    group = members.reshape(-1, 1, members.shape[-1])
    labels = None if label is None else np.asarray([label], dtype=np.int64)
    shape = (1, len(group), group.shape[-1])
    scores, mean, _ = acquisition._reduce_block([group], shape, function_id, labels, mean=True)
    return mean[0] if function_id is None else float(scores[0])
