"""A CaseTable from a (D, A) -> weight dict, for tests that write populations by hand."""

import numpy as np

from skewcomp.experiment import CaseTable


def case_table(population):
    """The cases of population as a CaseTable, one row per key in sorted order.

    D and A are int64 when every value is a Python int below 2**63 in
    magnitude, else object arrays holding the values as given; the weights
    are an object array, so a float or Fraction weight reaches the weight
    check unchanged.
    """
    pairs = sorted(population)
    values = [value for pair in pairs for value in pair]
    dtype = np.int64 if all(type(value) is int and abs(value) < 2**63 for value in values) else object
    weights = np.array([population[pair] for pair in pairs], dtype=object)
    return CaseTable(*np.array(pairs, dtype=dtype).reshape(-1, 2).T, weights)
