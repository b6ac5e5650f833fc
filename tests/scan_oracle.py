"""The dense-index search by enumeration, the oracle of the closed form.

`checkers._dense_search` finds the least dense index passing a level from a
region the codomain can index.  `scan_search` finds it by walking a dense
sequence index by index; swapped in for `_dense_search` with monkeypatch,
it must give the same reports.
"""

from fractions import Fraction

from baire_lab.closed_sets import dist_to_set


def scan_search(dense, cfg):
    """A search with the signature `_dense_search` returns: given the
    distinct values per delta and a level n, the (n, s, delta) with the
    least s <= dense_bound whose point dense(s) lies within 1/(n+1) of every
    value of some delta's ball, then the first such delta, or None."""

    def search(values: dict, n: int):
        threshold = Fraction(1, n + 1)
        for s in range(cfg.dense_bound + 1):
            y = dense(s)
            for delta in cfg.delta_schedule:
                if all(dist_to_set(y, v) < threshold for v in values[delta]):
                    return n, s, delta
        return None

    return search
