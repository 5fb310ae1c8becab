"""linalg's integer column echelon against the dense RREF and the Fraction
column echelon in linalg_oracle, and its fraction-free banded solver
against Fraction back-substitution."""

import random
from fractions import Fraction

from mathieulab.corealg import clear_denominators
from mathieulab.linalg import add_column, eliminate, nullspace, solve_band

from linalg_oracle import add_column as fraction_add_column
from linalg_oracle import eliminate as fraction_eliminate
from linalg_oracle import fraction_nullspace
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
        # rows cleared of denominators have the same nullspace
        got = nullspace([clear_denominators(row)[1] for row in matrix])
        assert got == [clear_denominators(v)[1] for v in dense_nullspace(matrix)], matrix
        assert all(type(v) is int for vec in got for v in vec)
        for vec in got:
            for row in matrix:
                assert sum(a * x for a, x in zip(row, vec)) == 0
        seen |= features
    assert seen == {"int", "rational", "empty", "no columns", "zero row", "zero column",
                    "dependent rows"}


def test_integer_echelon_matches_fraction_echelon_on_large_rationals():
    """Kernel rows, and the reduction of a further vector with its scale,
    against the Fraction echelon on 7-digit rationals with dependent rows."""
    rng = random.Random(2727)
    seen = set()
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)

        def entry():
            return 0 if rng.random() < 0.2 else Fraction(rng.randint(-10 ** 7, 10 ** 7),
                                                         rng.randint(1, 10 ** 7))

        matrix = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(rng.randint(1, 3)):  # combinations of earlier rows
            a, b = rng.choice(matrix), rng.choice(matrix)
            s = Fraction(rng.randint(-10 ** 7, 10 ** 7), rng.randint(1, 10 ** 7))
            matrix.append([x + s * y for x, y in zip(a, b)])
        rng.shuffle(matrix)
        ints = [clear_denominators(row)[1] for row in matrix]
        got = nullspace(ints)
        assert got == [clear_denominators(v)[1] for v in fraction_nullspace(matrix)], matrix
        assert all(type(v) is int for vec in got for v in vec)
        seen.add("kernel" if got else "no kernel")
        # the same integer columns as pivots, then one more vector reduced
        # against them
        pivots, fraction_pivots = [], []
        for col in range(ncols):
            column = {r: row[col] for r, row in enumerate(ints) if row[col]}
            add_column(pivots, dict(column), col)
            fraction_add_column(fraction_pivots, column, col)
        if rng.random() < 0.3:  # a combination of the columns, which reduces to zero
            cols = rng.sample(range(ncols), min(2, ncols))
            extra = {r: sum(rng.randint(-99, 99) * row[c] for c in cols)
                     for r, row in enumerate(ints)}
        else:
            extra = {r: rng.randint(-10 ** 7, 10 ** 7) for r in range(len(matrix))}
        extra = {r: v for r, v in extra.items() if v}
        vec, comb = dict(extra), {ncols: 1}
        scale = eliminate(pivots, vec, comb)
        want_vec, want_comb = {r: Fraction(v) for r, v in extra.items()}, {ncols: Fraction(1)}
        fraction_eliminate(fraction_pivots, want_vec, want_comb)
        assert scale > 0 and all(type(v) is int for v in [*vec.values(), *comb.values()])
        assert {r: Fraction(v, scale) for r, v in vec.items()} == want_vec
        assert {j: Fraction(v, scale) for j, v in comb.items()} == want_comb
        seen.add("scale > 1" if scale > 1 else "scale 1")
        seen.add("reduced to zero" if not vec else "not reduced to zero")
    assert seen == {"kernel", "no kernel", "scale > 1", "scale 1", "reduced to zero",
                    "not reduced to zero"}


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
