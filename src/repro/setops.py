"""Sort-based distinct-set helpers that return exactly what ``np.unique`` does.

numpy 2.x has two slow ``unique`` paths that the graph layer used to hit on
every build.  A bare ``np.unique(ints)`` builds a hash table and then sorts
its output, which is many times slower than one ``np.sort``.
``np.unique(pairs, axis=0)`` views each row as a structured scalar and sorts
with a generic field-by-field comparator.  ``unique`` is the plain sort path
(sort, then keep each value that differs from its predecessor), and
``unique_pairs`` packs a pair into one int64 key so that a row sort becomes
an integer sort.  Both outputs are identical to ``np.unique``'s, so they feed
the kernel streams and goldens without moving a byte.
"""

from __future__ import annotations

import numpy as np

_INT64 = np.iinfo(np.int64)


def unique(a) -> np.ndarray:
    """Sorted distinct values of the integer array ``a`` (flattened).

    Same as ``np.unique(a)``, dtype included.
    """
    values = np.sort(np.asarray(a).reshape(-1))
    if values.size == 0:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def unique_pairs(first, second) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``(first[i], second[i])`` pairs in lexicographic order.

    Equals the two columns of ``np.unique(np.stack([first, second], 1),
    axis=0)`` as int64 arrays.  Each pair is packed into the int64 key
    ``first * span + (second - second.min())``, where ``span`` is one more
    than the range of ``second``; a key that would overflow int64 raises
    ``ValueError``.
    """
    first = np.asarray(first, dtype=np.int64).reshape(-1)
    second = np.asarray(second, dtype=np.int64).reshape(-1)
    if first.shape != second.shape:
        raise ValueError("first and second must have the same length")
    if first.size == 0:
        return first.copy(), second.copy()
    lo = int(second.min())
    span = int(second.max()) - lo + 1
    if (int(first.min()) * span < _INT64.min
            or (int(first.max()) + 1) * span - 1 > _INT64.max):
        raise ValueError("packed pair keys overflow int64")
    keys = unique(first * span + (second - lo))
    f, s = np.divmod(keys, span)
    return f, s + lo
