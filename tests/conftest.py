"""Helpers shared by the test modules."""
import numpy as np


def same_data(a, b) -> bool:
    """True when two datasets have one schema and equal cells and missing masks."""
    return (
        a.schema == b.schema
        and a.row_count == b.row_count
        and all(
            np.array_equal(a.columns[c.name], b.columns[c.name])
            and np.array_equal(a.missing_mask(c.name), b.missing_mask(c.name))
            for c in a.schema
        )
    )
