"""linalg's sparse column echelon against the dense RREF in linalg_oracle,
and its fraction-free banded solver against Fraction back-substitution."""

import random
from fractions import Fraction

from mathieulab.linalg import nullspace, solve_band

from linalg_oracle import nullspace as dense_nullspace
from linalg_oracle import solve_band as fraction_solve_band


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


def random_band(rng):
    """(lead, num, terms, low, features) for one banded system."""
    top = rng.randint(0, 12)
    features = set()
    if rng.random() < 0.25:
        num = [0] * top + [rng.randint(-9, 9) or 1]
        features.add("num zero below top")
    else:
        num = [rng.randint(-9, 9) if rng.random() < 0.7 else 0 for _ in range(top + 1)]
    terms = []
    for _ in range(rng.randint(0, 3)):
        gap = rng.randint(1, 5)
        if rng.random() < 0.15:
            terms.append((gap, 0, 0))
            features.add("zero term")
        else:
            terms.append((gap, rng.randint(-6, 6), rng.randint(-3, 3)))
        features.add(f"gap {gap}")
    low = rng.choice([0, 0, 1, 2, 3])
    if rng.random() < 0.3 and top:
        # a lead that vanishes at one degree k0 >= low
        k0 = rng.randint(min(low, top), top)
        b = rng.choice([-2, -1, 1, 2])
        lead = (-b * k0, b)
        if k0 >= low:
            features.add("zero lead at k >= low")
    else:
        lead = (rng.choice([-5, -3, -2, -1, 1, 2, 3, 7]), rng.randint(-2, 2))
    if any(lead[0] + lead[1] * k < 0 for k in range(top + 1)):
        features.add("negative lead")
    if low:
        features.add("low > 0")
    return lead, num, terms, low, features


def test_solve_band_matches_fraction_back_substitution():
    rng = random.Random(2323)
    seen = set()
    for _ in range(3000):
        lead, num, terms, low, features = random_band(rng)
        x, r, scale = solve_band(lead, num, terms, low)
        want_x, want_r = fraction_solve_band(lead, num, terms, low)
        assert scale != 0 and all(type(v) is int for v in x + r + [scale])
        assert [Fraction(v, scale) for v in x] == want_x, (lead, num, terms, low)
        assert [Fraction(v, scale) for v in r] == want_r, (lead, num, terms, low)
        seen |= features
    assert seen == {"gap 1", "gap 2", "gap 3", "gap 4", "gap 5", "zero term", "num zero below top",
                    "zero lead at k >= low", "negative lead", "low > 0"}
