"""Exact Perron values of seeded random matrices against recorded ones.

perron_golden.json holds one row per matrix that _matrices draws: the
handle PerronValue.of_matrix returns, as (coefficients, lo, hi); its order
against the next row's value and against two multiples of 1/64 that bracket
it.  The rows were recorded
while sympy computed the characteristic polynomials, root intervals,
common factors and resultants behind these handles, except rows 0, 85, 113,
134, 141, 147, 232, 244 and 274, where sympy's interval for the largest root
started at a smaller integer root and the handle collapsed onto it (exact 3
for a radius in (7/2, 4) on row 0), and the cmp_next of row 273, which meets
row 274.  Those rows hold the corrected values; every row's value lies in a
Collatz-Wielandt bracket computed from the matrix alone.
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from morphrec.growth import PerronValue, mat_pow

SEED = 11
DRAWS = 300
GROUP = 25

ROWS = json.loads((Path(__file__).parent / "perron_golden.json").read_text())


def _matrices() -> list[list[list[int]]]:
    """2-6 letters, each entry 0 with probability 1/4, 1/2 or 3/4 (one
    choice per matrix) and otherwise 1-3."""
    rng = random.Random(SEED)
    out = []
    for _ in range(DRAWS):
        n = rng.randint(2, 6)
        zeros = rng.choice((0.25, 0.5, 0.75))
        out.append(
            [[0 if rng.random() < zeros else rng.randint(1, 3) for _ in range(n)] for _ in range(n)]
        )
    return out


def _cmp_rational(v: PerronValue, q) -> int:
    return v.cmp(PerronValue.from_rational(q))


def _handle(v: PerronValue) -> list:
    return [list(v.coeffs), str(v.lo), str(v.hi)]


def _row(m, v: PerronValue, nxt: PerronValue) -> dict:
    r = v.refined(Fraction(1, 4096))
    below = Fraction(math.floor(r.lo * 64), 64)
    above = Fraction(math.ceil(r.hi * 64), 64)
    return {
        "matrix": m,
        "value": _handle(v),
        "cmp_next": v.cmp(nxt),
        "below": [str(below), _cmp_rational(v, below)],
        "above": [str(above), _cmp_rational(v, above)],
    }


def test_rows_are_the_seeded_draws():
    assert [row["matrix"] for row in ROWS] == _matrices()


@pytest.mark.parametrize("group", range(DRAWS // GROUP))
def test_perron_values_match_the_recorded_rows(group):
    start = group * GROUP
    values = {}
    for i in range(start, start + GROUP + 1):
        values[i] = PerronValue.of_matrix(ROWS[i % DRAWS]["matrix"])
    for i in range(start, start + GROUP):
        assert _row(ROWS[i]["matrix"], values[i], values[i + 1]) == ROWS[i], i


def _collatz_wielandt(m) -> tuple[Fraction, Fraction]:
    """Rationals lo <= rho(m) <= hi.  For a non-negative M and x > 0,
    min (Mx)_i / x_i <= rho(M) <= max (Mx)_i / x_i; applied to each strongly
    connected block B with x = (I + B)^8 1, and rho(m) is the largest block
    radius."""
    n = len(m)
    reach = [{i} for i in range(n)]
    for _ in range(n):
        for i in range(n):
            reach[i] |= {l for j in reach[i] for l in range(n) if m[j][l]}
    lo = hi = Fraction(0)
    for comp in {frozenset(j for j in reach[i] if i in reach[j]) for i in range(n)}:
        c = sorted(comp)
        x = [sum(row) for row in mat_pow(tuple(tuple(int(i == j) + m[i][j] for j in c) for i in c), 8)]
        ratios = [Fraction(sum(m[i][j] * x[b] for b, j in enumerate(c)), x[a]) for a, i in enumerate(c)]
        lo, hi = max(lo, min(ratios)), max(hi, max(ratios))
    return lo, hi


def test_recorded_values_lie_in_collatz_wielandt_brackets():
    for i, row in enumerate(ROWS):
        coeffs, lo, hi = row["value"]
        value = PerronValue(tuple(coeffs), Fraction(lo), Fraction(hi))
        below, above = _collatz_wielandt(row["matrix"])
        assert _cmp_rational(value, below) >= 0 and _cmp_rational(value, above) <= 0, i
