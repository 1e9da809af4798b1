"""Incidence matrices, primitivity, exact Perron values, growth types, blocks,
and the P/Q growth-envelope constants."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from morphrec import growth
from morphrec.catalog import entries
from morphrec.decider import _growing_stage
from morphrec.errors import MorphrecError, NotPrimitive
from morphrec.growth import (
    IncidenceStructure,
    PerronValue,
    block_decomposition,
    compare_perron,
    growth_type,
    horn_exponent,
    is_primitive,
    letter_envelopes,
    mat_from,
    mat_pow,
    pq_constants,
)
from morphrec.morphism import power
from morphrec.system import parse_system
from morphrec.words import Alphabet

import test_fuzz
from test_perron_golden import _cmp_rational, _matrices


def _sys(text):
    return parse_system(text)


def _colsums(m) -> list[int]:
    return [sum(row[j] for row in m) for j in range(len(m))]


def _positive(m) -> bool:
    return all(v > 0 for row in m for v in row)


FIB = _sys("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> a\n")
BLOCK = _sys("alphabet: 0 1\nstart: 0\nsigma:\n0 -> 0 0 1\n1 -> 1\n")
CHAIN = _sys("alphabet: a b c\nstart: a\nsigma:\na -> a b\nb -> b c\nc -> c\n")


# -- incidence matrices ------------------------------------------------------------


def test_incidence_fibonacci():
    assert FIB.incidence.matrix == ((1, 1), (1, 0))


def test_incidence_block():
    assert BLOCK.incidence.matrix == ((2, 0), (1, 1))


def test_incidence_column_sums_are_image_lengths():
    for sys_ in (FIB, BLOCK, CHAIN):
        sums = _colsums(sys_.incidence.matrix)
        for j, tok in enumerate(sys_.alphabet.tokens):
            assert sums[j] == len(sys_.sigma.image_tokens(tok))


def test_power_length_matches_matrix_power():
    # |sigma^k(a)| equals the column sum of M^k at a
    for k in (1, 2, 5, 9):
        mk = mat_pow(FIB.incidence.matrix, k)
        pk = power(FIB.sigma, k)
        sums = _colsums(mk)
        for j, tok in enumerate(FIB.alphabet.tokens):
            assert sums[j] == len(pk.image_tokens(tok))


# -- primitivity and the positivity exponent -----------------------------------------


def test_horn_exponent_fibonacci():
    assert horn_exponent(FIB.incidence.matrix) == 2


def test_horn_exponent_positive_scalar():
    assert horn_exponent([[2]]) == 1


def test_horn_exponent_rejects_cyclic_permutation():
    with pytest.raises(NotPrimitive):
        horn_exponent([[0, 1], [1, 0]])


def test_horn_exponent_minimality_and_bound():
    cases = [
        [[1, 1], [1, 0]],
        [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
        [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        [[2, 1], [1, 2]],
    ]
    for m in cases:
        k = horn_exponent(m)
        d = len(m)
        assert k <= d * d - 2 * d + 2
        assert all(v > 0 for row in mat_pow(tuple(tuple(r) for r in m), k) for v in row)
        if k > 1:
            prev = mat_pow(tuple(tuple(r) for r in m), k - 1)
            assert any(v == 0 for row in prev for v in row)


def test_is_primitive():
    assert is_primitive(FIB.incidence.matrix)
    assert not is_primitive([[0, 1], [1, 0]])
    assert not is_primitive(BLOCK.incidence.matrix)  # reducible


# -- exact algebraic values ----------------------------------------------------------


def test_perron_of_fibonacci_matrix():
    golden = PerronValue.of_matrix(FIB.incidence.matrix)
    assert golden.coeffs == (1, -1, -1)  # x^2 - x - 1
    assert _cmp_rational(golden, Fraction(8, 5)) > 0
    assert _cmp_rational(golden, Fraction(13, 8)) < 0


def test_perron_equality_across_representations():
    golden = PerronValue.of_matrix(FIB.incidence.matrix)
    permuted = PerronValue.of_matrix([[0, 1], [1, 1]])
    assert compare_perron(golden, permuted) == "="
    assert golden.eq(permuted)


def test_compare_perron_trichotomy():
    golden = PerronValue.of_matrix(FIB.incidence.matrix)
    two = PerronValue.from_rational(2)
    assert compare_perron(golden, two) == "<"
    assert compare_perron(two, golden) == ">"
    assert compare_perron(two, PerronValue.from_rational(2)) == "="


def test_refined_rejects_a_width_that_is_not_positive():
    for value in (PerronValue.of_matrix(FIB.incidence.matrix), PerronValue.from_rational(2)):
        for eps in (0, Fraction(-1, 8)):
            with pytest.raises(ValueError, match="positive"):
                value.refined(eps)


def test_import_loads_no_computer_algebra():
    src = str(Path(growth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, morphrec; print(sorted({'sympy', 'mpmath'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_perron_rational_exact():
    v = PerronValue.from_rational(Fraction(3, 2))
    assert v.is_exact
    assert _cmp_rational(v, Fraction(3, 2)) == 0


# -- growth types --------------------------------------------------------------------


def test_growth_types_fibonacci():
    st = FIB.incidence
    for tok in ("a", "b"):
        gt = growth_type(st, tok)
        assert gt.d == 0
        assert gt.theta.coeffs == (1, -1, -1)
        assert st.is_growing(tok)


def test_growth_types_polynomial_chain():
    st = CHAIN.incidence
    expect = {"a": 2, "b": 1, "c": 0}
    for tok, d in expect.items():
        gt = growth_type(st, tok)
        assert gt.d == d
        assert gt.theta.is_exact and gt.theta.lo == 1
    assert st.is_growing("a") and st.is_growing("b") and not st.is_growing("c")
    assert growth_type(st, "c").is_non_growing()


def test_growth_types_pure_exponential():
    sys_ = _sys("alphabet: a b c\nstart: a\nsigma:\na -> a b c\nb -> b b\nc -> c c\n")
    for tok in ("a", "b", "c"):
        gt = growth_type(sys_.incidence, tok)
        assert gt.d == 0
        assert gt.theta.is_exact and gt.theta.lo == 2


def test_growth_types_when_the_polynomial_has_a_smaller_integer_root():
    # theta is about 1.7943, and the characteristic polynomial also vanishes at 1
    sys_ = _sys("alphabet: b a c d e\nstart: b\nsigma:\nb -> b a\na -> c\nc -> b e\nd -> a d\ne -> a b d\n")
    for tok in sys_.alphabet.tokens:
        gt = growth_type(sys_.incidence, tok)
        assert gt.d == 0
        assert _cmp_rational(gt.theta, Fraction(3, 2)) > 0


def test_single_rate_when_a_block_polynomial_has_a_smaller_integer_root():
    # {a, b, c, d} has radius about 1.8794, above the 1 of s's self-loop,
    # and its characteristic polynomial also vanishes at 1
    sys_ = _sys(
        "alphabet: s a b c d\nstart: s\ntarget: 0 1\nsigma:\n"
        "s -> s a\na -> a d\nb -> c d\nc -> b\nd -> a b\n"
        "phi:\ns -> 0\na -> 0\nb -> 1\nc -> 1\nd -> 0\n"
    )
    assert growth_type(sys_.incidence, "s").d == 0
    p, q = pq_constants(sys_.incidence)  # needs one growth type (0, theta) for every letter
    assert p >= 1 and q >= 1


def test_growth_type_ordering():
    st = CHAIN.incidence
    a, b, c = (growth_type(st, t) for t in ("a", "b", "c"))
    # theta 1 for all three, so the order is that of d: c < b < a
    assert [t.d for t in (a, b, c)] == [2, 1, 0]
    assert all(t.theta.eq(PerronValue.from_rational(1)) for t in (a, b, c))
    assert a.eq(growth_type(st, "a"))


def test_growth_agreement_with_iteration():
    # non-growing letters stabilize; growing letters keep expanding
    for sys_ in (FIB, BLOCK, CHAIN):
        st = sys_.incidence
        m32 = mat_pow(st.matrix, 32)
        m64 = mat_pow(st.matrix, 64)
        s32, s64 = _colsums(m32), _colsums(m64)
        for j, tok in enumerate(sys_.alphabet.tokens):
            if growth_type(st, tok).is_non_growing():
                assert s32[j] == s64[j]
            else:
                assert s64[j] > s32[j]


# -- block decomposition -------------------------------------------------------------


def test_blocks_fibonacci():
    bd = block_decomposition(FIB.incidence)
    assert bd.r_sigma == 1
    assert bd.blocks == (("a", "b"),)
    assert bd.flags == ("primitive",)
    assert bd.closed == (True,)


def test_blocks_two_cycle():
    sys_ = _sys("alphabet: a b\nstart: a\nsigma:\na -> b\nb -> a\n")
    bd = block_decomposition(sys_.incidence)
    assert bd.r_sigma == 2
    assert bd.blocks == (("a",), ("b",))
    assert bd.flags == ("primitive", "primitive")
    assert bd.closed == (True, True)


def test_blocks_block_system():
    bd = block_decomposition(BLOCK.incidence)
    assert bd.r_sigma == 1
    assert bd.blocks == (("0",), ("1",))
    assert bd.flags == ("primitive", "primitive")
    assert bd.closed == (False, True)


def test_blocks_diagonal_primitive_or_zero():
    # each diagonal block of M^r is primitive or zero on its letters
    for sys_ in (FIB, BLOCK, CHAIN):
        st = sys_.incidence
        bd = block_decomposition(st)
        mr = mat_pow(st.matrix, bd.r_sigma)
        for letters, flag in zip(bd.blocks, bd.flags):
            idx = [sys_.alphabet.index(t) for t in letters]
            sub = tuple(tuple(mr[i][j] for j in idx) for i in idx)
            if flag == "zero":
                assert all(v == 0 for row in sub for v in row)
            else:
                assert is_primitive(sub)


def test_blocks_lower_triangular_order():
    # a letter's image only uses letters from its own or later blocks
    for sys_ in (FIB, BLOCK, CHAIN):
        bd = block_decomposition(sys_.incidence)
        rank = {}
        for i, letters in enumerate(bd.blocks):
            for t in letters:
                rank[t] = i
        for tok in sys_.alphabet.tokens:
            for img_tok in sys_.sigma.image_tokens(tok):
                assert rank[img_tok] >= rank[tok]


# -- growth envelope constants --------------------------------------------------------


def test_pq_fibonacci():
    p, q = pq_constants(FIB.incidence)
    assert p == Fraction(89, 55)
    assert q == Fraction(7921, 3025)


def test_pq_constants_are_computed_once_per_structure(monkeypatch):
    calls = []
    envelopes = growth.letter_envelopes

    def counted(structure):
        calls.append(structure)
        return envelopes(structure)

    monkeypatch.setattr(growth, "letter_envelopes", counted)
    inc = IncidenceStructure(FIB.alphabet, FIB.incidence.matrix)
    first = pq_constants(inc)
    assert pq_constants(inc) == first
    assert calls == [inc]


def test_pq_doubling():
    sys_ = _sys("alphabet: a\nstart: a\nsigma:\na -> a a\n")
    p, q = pq_constants(sys_.incidence)
    assert p == 1 and q == 1


@pytest.mark.parametrize(
    "text",
    [
        "alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> a\n",
        "alphabet: 0 1\nstart: 0\nsigma:\n0 -> 0 1\n1 -> 1 0\n",
        "alphabet: a b c\nstart: a\nsigma:\na -> a b\nb -> a c\nc -> a\n",
        "alphabet: a\nstart: a\nsigma:\na -> a a\n",
    ],
)
def test_pq_inequalities_exact(text):
    # (1/P) a^k <= <sigma^k> <= |sigma^k| <= P a^k and |sigma^k| <= Q <sigma^k>
    sys_ = _sys(text)
    st = sys_.incidence
    p, q = pq_constants(st)
    assert p >= 1 and q >= 1  # the k = 0 case: both norms are 1
    for k in range(1, 31):
        mk = mat_pow(st.matrix, k)
        sums = _colsums(mk)
        hi, lo = max(sums), min(sums)
        assert lo <= hi <= q * lo
        tk = PerronValue.of_matrix(mk)  # a^k, the radius of M^k
        assert _cmp_rational(tk, Fraction(hi) / p) >= 0  # |sigma^k| <= P a^k
        assert _cmp_rational(tk, Fraction(lo) * p) <= 0  # (1/P) a^k <= <sigma^k>


def test_letter_envelopes_bound_iterates():
    st = FIB.incidence
    lo, hi = letter_envelopes(st)
    for k in range(1, 12):
        mk = mat_pow(st.matrix, k)
        tk = PerronValue.of_matrix(mk)  # theta^k, the radius of M^k
        sums = _colsums(mk)
        for j in range(len(sums)):
            # lo_j * theta^k <= |sigma^k(j)| <= hi_j * theta^k
            assert _cmp_rational(tk, Fraction(sums[j]) / lo[j]) <= 0 or lo[j] == 0
            assert _cmp_rational(tk, Fraction(sums[j]) / hi[j]) >= 0


def test_incidence_structure_sccs_topological():
    st = CHAIN.incidence
    order = {}
    for i, comp in enumerate(st.sccs):
        for v in comp:
            order[v] = i
    # edge j -> i when M[i][j] > 0 must not go backwards
    n = len(CHAIN.alphabet)
    for j in range(n):
        for i in range(n):
            if st.matrix[i][j] > 0:
                assert order[j] <= order[i]


# -- P/Q ratio bounds against the Fraction reading -----------------------------------


def _fraction_ratio_bounds(n_matrix):
    """The ratio bounds read with a Fraction per entry, as before the
    integer cross-multiplication."""
    d = len(n_matrix)
    r_lo, r_hi = [], []
    for i in range(d):
        ratios = [Fraction(n_matrix[i][l], n_matrix[0][l]) for l in range(d)]
        r_lo.append(min(ratios))
        r_hi.append(max(ratios))
    return [v / max(r_hi) for v in r_lo], [v / min(r_lo) for v in r_hi]


def _reference_scc_ratio_bounds(structure, comp):
    """_scc_ratio_bounds with the block's own primitive exponent and the
    Fraction reading."""
    t_block = tuple(zip(*structure.block(comp)))
    d = len(comp)
    try:
        n_matrix = mat_pow(t_block, horn_exponent(t_block) + growth._TIGHTEN_POWER)
    except NotPrimitive:
        it = tuple(tuple(int(i == j) + t_block[i][j] for j in range(d)) for i in range(d))
        n_matrix = mat_pow(it, (d - 1) + growth._TIGHTEN_POWER)
    return _fraction_ratio_bounds(n_matrix)


def test_eigenvector_ratio_bounds_match_the_fraction_reading():
    rng = random.Random(5)
    positive = [
        tuple(tuple(rng.randint(1, 10 ** rng.randint(1, 40)) for _ in range(n)) for _ in range(n))
        for n in [rng.randint(1, 6) for _ in range(300)]
    ]
    equal_ratios = [((2, 4, 6), (1, 2, 3), (3, 6, 9)), ((5,),), ((1, 1), (1, 1))]
    for m in positive + equal_ratios:
        assert growth._eigenvector_ratio_bounds(m) == _fraction_ratio_bounds(m), m


def test_scc_ratio_bounds_match_the_reference():
    cyclic = ((0, 2, 0), (0, 0, 1), (3, 0, 0))  # irreducible, period 3
    swap = ((0, 1), (1, 0))
    seen = {"whole": 0, "part": 0, "imprimitive": 0}
    for m in [mat_from(m) for m in _matrices()] + [cyclic, swap]:
        structure = IncidenceStructure(Alphabet(tuple(str(i) for i in range(len(m)))), m)
        for sid, comp in enumerate(structure.sccs):
            if structure.scc_trivial[sid]:
                continue
            seen["whole" if len(comp) == len(m) else "part"] += 1
            seen["imprimitive"] += structure.scc_period[sid] > 1
            want = _reference_scc_ratio_bounds(structure, comp)
            assert growth._scc_ratio_bounds(structure, comp) == want, (m, comp)
    assert min(seen.values()) >= 10, seen


def test_pq_constants_match_the_reference_on_growing_stages(monkeypatch):
    rng = random.Random(20261019)
    texts = [e.text for e in entries()] + [test_fuzz._draw(rng, "abcde") for _ in range(200)]
    structures = []
    for text in texts:
        try:
            stage = _growing_stage(parse_system(text))
        except MorphrecError:
            continue
        if stage is not None:
            structures.append(stage.staged.incidence)

    def pq_of(structure):
        fresh = IncidenceStructure(structure.alphabet, structure.matrix)
        try:
            return pq_constants(fresh)
        except MorphrecError as e:
            return type(e).__name__, str(e)

    got = [pq_of(s) for s in structures]
    monkeypatch.setattr(growth, "_scc_ratio_bounds", _reference_scc_ratio_bounds)
    assert got == [pq_of(s) for s in structures]
    assert sum(isinstance(g[0], Fraction) for g in got) >= 150


# -- the one-pass analysis against the analysis it replaced -----------------------


class _ReferenceAnalysis:
    """The SCC, period, radius, growth-flag, reach and block code of the
    incidence analysis before it was built in one pass over bitmasks, kept
    verbatim as a reference: iterative Tarjan over successor lists, one BFS
    per SCC for its period, another for its block classes."""

    def __init__(self, alphabet, matrix):
        n = len(alphabet)
        self.alphabet = alphabet
        self.matrix = matrix
        self._succ = [[i for i in range(n) if matrix[i][j] > 0] for j in range(n)]
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack = []
        sccs = []
        counter = [0]

        def strongconnect(v0):
            work = [(v0, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for i in range(pi, len(self._succ[v])):
                    w = self._succ[v][i]
                    if index[w] == -1:
                        work[-1] = (v, i + 1)
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(sorted(comp))
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

        for v in range(n):
            if index[v] == -1:
                strongconnect(v)
        sccs.reverse()
        self.sccs = sccs
        self.scc_of = [0] * n
        for sid, comp in enumerate(sccs):
            for v in comp:
                self.scc_of[v] = sid
        self.scc_edges = [set() for _ in sccs]
        for j in range(n):
            for i in self._succ[j]:
                if self.scc_of[i] != self.scc_of[j]:
                    self.scc_edges[self.scc_of[j]].add(self.scc_of[i])
        self.scc_closed = [not self.scc_edges[s] for s in range(len(sccs))]
        self.scc_trivial = [len(c) == 1 and matrix[c[0]][c[0]] == 0 for c in sccs]
        self.scc_period = [self._period(comp) for comp in sccs]
        self.scc_radius = [self._radius_class(sid) for sid in range(len(sccs))]

    def _radius_class(self, sid):
        if self.scc_trivial[sid]:
            return growth.RADIUS_ZERO
        comp = self.sccs[sid]
        if all(sum(self.matrix[i][j] for i in comp) == 1 for j in comp):
            return growth.RADIUS_ONE
        return growth.RADIUS_ABOVE_ONE

    def _period(self, comp):
        if len(comp) == 1 and self.matrix[comp[0]][comp[0]] == 0:
            return 1
        members = set(comp)
        level = {comp[0]: 0}
        order = [comp[0]]
        g = 0
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            for w in self._succ[v]:
                if w not in members:
                    continue
                if w not in level:
                    level[w] = level[v] + 1
                    order.append(w)
                else:
                    g = math.gcd(g, level[v] + 1 - level[w])
        return abs(g) if g else 1

    def scc_grows(self):
        k = len(self.sccs)
        nontrivial = [False] * k
        above = [False] * k
        cycles = [0] * k
        for s in reversed(range(k)):
            cls = self.scc_radius[s]
            nxt = self.scc_edges[s]
            nontrivial[s] = cls != growth.RADIUS_ZERO or any(nontrivial[t] for t in nxt)
            above[s] = cls == growth.RADIUS_ABOVE_ONE or any(above[t] for t in nxt)
            deepest = max((cycles[t] for t in nxt), default=0)
            cycles[s] = min(2, deepest + (cls == growth.RADIUS_ONE))
        return [(above[s] or cycles[s] == 2) if nontrivial[s] else None for s in range(k)]

    def reachable_letters(self, token):
        start = self.alphabet.index(token)
        seen = {start}
        work = [start]
        while work:
            v = work.pop()
            for w in self._succ[v]:
                if w not in seen:
                    seen.add(w)
                    work.append(w)
        return [t for i, t in enumerate(self.alphabet.tokens) if i in seen]

    def primitive_exponent(self):
        try:
            return horn_exponent(self.matrix)
        except NotPrimitive:
            return None

    def block_decomposition(self):
        r = 1
        for sid, comp in enumerate(self.sccs):
            if not self.scc_trivial[sid]:
                r = math.lcm(r, self.scc_period[sid])
        blocks, flags, closed = [], [], []
        for sid, comp in enumerate(self.sccs):
            if self.scc_trivial[sid]:
                blocks.append((self.alphabet.tokens[comp[0]],))
                flags.append("zero")
                closed.append(self.scc_closed[sid])
                continue
            p = self.scc_period[sid]
            members = set(comp)
            level = {comp[0]: 0}
            order = [comp[0]]
            qi = 0
            while qi < len(order):
                v = order[qi]
                qi += 1
                for w in self._succ[v]:
                    if w in members and w not in level:
                        level[w] = level[v] + 1
                        order.append(w)
            classes = {}
            for v in comp:
                classes.setdefault(level[v] % p, []).append(v)
            for c in sorted(classes):
                blocks.append(tuple(self.alphabet.tokens[v] for v in sorted(classes[c])))
                flags.append("primitive")
                closed.append(self.scc_closed[sid])
        return growth.BlockDecomposition(tuple(blocks), r, tuple(flags), tuple(closed))


def _growing_or_error(structure, token):
    try:
        return structure.is_growing(token)
    except MorphrecError as e:
        return type(e).__name__


def _assert_matches_reference(structure):
    ref = _ReferenceAnalysis(structure.alphabet, structure.matrix)
    m = structure.matrix
    assert structure.sccs == ref.sccs, m
    assert structure.scc_of == ref.scc_of, m
    assert structure.scc_edges == ref.scc_edges, m
    assert structure.scc_closed == ref.scc_closed, m
    assert structure.scc_trivial == ref.scc_trivial, m
    assert structure.scc_period == ref.scc_period, m
    assert structure.scc_radius == ref.scc_radius, m
    grows = ref.scc_grows()
    for i, t in enumerate(structure.alphabet.tokens):
        want = grows[ref.scc_of[i]]
        assert _growing_or_error(structure, t) == ("PreconditionViolated" if want is None else want)
        assert structure.reachable_letters(t) == ref.reachable_letters(t), (m, t)
    assert structure.primitive_exponent == ref.primitive_exponent(), m
    assert block_decomposition(structure) == ref.block_decomposition(), m


def _drawn_matrices(count, seed):
    """count matrices of 1-10 letters with entries 0-2, at edge densities
    from sparse (many SCCs, trivial ones, zero columns) to dense; every
    fifth has one column zeroed."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(1, 10)
        zero = rng.choice((0.3, 0.6, 0.8, 0.9))
        rows = [
            [0 if rng.random() < zero else rng.randint(1, 2) for _ in range(n)] for _ in range(n)
        ]
        if k % 5 == 0:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        out.append(mat_from(rows))
    return out


def test_one_pass_analysis_matches_the_reference_on_drawn_matrices():
    matrices = _drawn_matrices(600, 20261020)
    seen = {"zero column": 0, "several sccs": 0, "imprimitive": 0, "trivial": 0}
    for m in matrices:
        structure = IncidenceStructure(Alphabet(tuple(f"t{i}" for i in range(len(m)))), m)
        _assert_matches_reference(structure)
        seen["zero column"] += any(not any(col) for col in zip(*m))
        seen["several sccs"] += len(structure.sccs) > 1
        seen["imprimitive"] += any(p > 1 for p in structure.scc_period)
        seen["trivial"] += any(structure.scc_trivial)
    assert min(seen.values()) >= 40, seen


def test_one_pass_analysis_matches_the_reference_on_catalog_sigmas_and_stages():
    from morphrec.decider import _stages

    checked = 0
    for e in entries():
        sys_ = e.build()
        _assert_matches_reference(IncidenceStructure.of_morphism(sys_.sigma))
        checked += 1
        try:
            stages = list(_stages(sys_, []))
        except MorphrecError:
            continue
        for stage in stages:
            _assert_matches_reference(stage.staged.incidence)
            checked += 1
    assert checked >= 60, checked


def test_block_decomposition_is_kept_on_the_structure():
    structure = IncidenceStructure(CHAIN.alphabet, CHAIN.incidence.matrix)
    assert block_decomposition(structure) is block_decomposition(structure)


def test_power_is_positive_matches_the_integer_power():
    checked = {True: 0, False: 0}
    for m in _drawn_matrices(300, 20261021):
        d = len(m)
        if d > 6:
            continue
        for k in range(d * d + 1):
            want = _positive(mat_pow(m, k))
            assert growth.power_is_positive(m, k) == want, (m, k)
            checked[want] += 1
    assert min(checked.values()) >= 100, checked
