"""linalg's sparse column echelon against the dense RREF in linalg_oracle."""

import random
from fractions import Fraction

from mathieulab.linalg import nullspace

from linalg_oracle import nullspace as dense_nullspace


def random_matrix(rng):
    """(matrix, features): int or rational entries, often with zero rows,
    zero columns and rows that are combinations of earlier rows."""
    nrows, ncols = rng.randint(0, 6), rng.randint(0, 7)
    rational = rng.random() < 0.5
    features = {"rational" if rational else "int"}

    def entry():
        if rng.random() < 0.35:
            return 0
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 5)) if rational else v

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rows and rng.random() < 0.4:
        rows[rng.randrange(nrows)] = [0] * ncols
    if ncols and rng.random() < 0.4:
        dead = rng.randrange(ncols)
        for row in rows:
            row[dead] = 0
    if nrows >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(nrows), 2)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rational else rng.randint(-3, 3)
        rows.append([x + s * y for x, y in zip(rows[a], rows[b])])
        features.add("dependent rows")
    if not rows:
        features.add("empty")
    elif not ncols:
        features.add("no columns")
    else:
        if any(not any(row) for row in rows):
            features.add("zero row")
        if any(not any(row[j] for row in rows) for j in range(ncols)):
            features.add("zero column")
    return rows, features


def test_nullspace_matches_dense_oracle():
    rng = random.Random(1010)
    seen = set()
    for _ in range(3000):
        matrix, features = random_matrix(rng)
        got = nullspace(matrix)
        assert got == dense_nullspace(matrix), matrix
        assert all(type(v) is Fraction for vec in got for v in vec)
        for vec in got:
            for row in matrix:
                assert sum(a * x for a, x in zip(row, vec)) == 0
        seen |= features
    assert seen == {"int", "rational", "empty", "no columns", "zero row", "zero column",
                    "dependent rows"}
