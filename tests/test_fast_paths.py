"""Each shortcut against the general computation it stands in for.

is_prolongable skips the growth-type analysis for non-erasing sigma,
lengths_after extends cached rows one step at a time, PerronValue.cmp
settles equal handles and rationals without a gcd, and the prefix cache
expands sigma^k(u) through a lazily built image table.
Growth is read off the SCC radius classes and primitivity off the zero
pattern, R comes from the images of the 2-factors with no prefix of y,
factor_language's windows read each image once and each pair's junction,
decoding and encoding go through char <-> token tables, a primitive
staged sigma is certified without the full-power chain, and the finite-letter
screen reads cycles and reachability off the shared incidence analysis.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from morphrec import catalog, decider
from morphrec.constants import compute_constant_sheet, compute_R_sigma
from morphrec.certify import finite_letter_witness
from morphrec.decider import (
    UNIFORMLY_RECURRENT,
    _growing_stage,
    decide_uniform_recurrence,
    verify_certificate,
)
from morphrec.errors import AlphabetMismatch, MorphrecError, NotPrimitive, PreconditionViolated
from morphrec.growth import (
    RADIUS_ABOVE_ONE,
    RADIUS_ONE,
    RADIUS_ZERO,
    IncidenceStructure,
    PerronValue,
    horn_exponent,
    mat_from,
    mat_mul,
    mat_pow,
)
from morphrec.morphism import Morphism
from morphrec.returns import WORK_BUDGET, first_two_occurrences
from morphrec.stream import (
    _CHUNK,
    FixedPointStream,
    _closure,
    factor_language,
    occurrences,
)
from morphrec.system import ProlongableSystem, parse_system
from morphrec.words import Alphabet

from test_growth import _colsums, _positive
from test_perron_golden import _cmp_rational
from test_stream import _iterate

LETTERS = "abcd"


@st.composite
def endomorphisms(draw, max_letters=4, max_image=3, allow_empty=True):
    n = draw(st.integers(1, max_letters))
    tokens = tuple(LETTERS[:n])
    low = 0 if allow_empty else 1
    table = {
        t: draw(st.lists(st.sampled_from(tokens), min_size=low, max_size=max_image))
        for t in tokens
    }
    alpha = Alphabet(tokens)
    return Morphism.from_tokens(alpha, alpha, table)


def _incidence(m: Morphism):
    """Entry (i, j) counts the occurrences of letter i in the image of j."""
    return mat_from([[img.count(c) for img in m.images] for c in m.dst.chars])


@st.composite
def start_prefixed(draw, allow_empty=True, max_image=3):
    """Endomorphisms where sigma(a) = a ... usually; the rest may erase.
    Without empty images, sigma(a) = a u with u non-empty."""
    m = draw(endomorphisms(allow_empty=allow_empty, max_image=max_image))
    table = {t: m.image_tokens(t) for t in m.src.tokens}
    if draw(st.booleans()) or not allow_empty:
        rest = draw(st.lists(st.sampled_from(m.src.tokens), min_size=0 if allow_empty else 1, max_size=3))
        table["a"] = ["a"] + rest
    return Morphism.from_tokens(m.src, m.src, table)


# -- is_prolongable ----------------------------------------------------------------


@given(start_prefixed())
def test_is_prolongable_matches_growth_type(sigma):
    img = sigma.image("a")
    fresh = IncidenceStructure(sigma.src, _incidence(sigma))
    want = len(img) >= 2 and img[0] == sigma.src.char("a") and fresh.is_growing("a")
    assert ProlongableSystem(sigma, "a").is_prolongable() == want


def test_is_prolongable_erasing_systems():
    grows = "alphabet: a b c\nstart: a\nsigma:\na -> a b c\nb -> ε\nc -> a\n"
    stalls = "alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> ε\n"
    assert parse_system(grows).is_prolongable()
    assert not parse_system(stalls).is_prolongable()


# -- lengths_after -----------------------------------------------------------------


@given(endomorphisms(), st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_lengths_after_matches_matrix_power_in_any_order(sigma, ks):
    inc = IncidenceStructure(sigma.src, _incidence(sigma))
    for k in ks:
        assert inc.lengths_after(k) == _colsums(mat_pow(inc.matrix, k))


def test_lengths_after_returns_a_copy(fib):
    row = fib.incidence.lengths_after(3)
    row[0] = -1
    assert fib.incidence.lengths_after(3) == [5, 3]


# -- PerronValue.cmp ---------------------------------------------------------------

small_matrices = st.integers(2, 3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=d, max_size=d
    )
)


@st.composite
def perron_handles(draw):
    value = PerronValue.of_matrix(draw(small_matrices))
    if draw(st.booleans()):
        value = value.refined(Fraction(1, draw(st.integers(2, 64))))
    return value


@st.composite
def rationals_near(draw, value: PerronValue):
    pick = draw(st.integers(0, 4))
    if pick == 0:
        return value.lo
    if pick == 1:
        return value.hi
    if pick == 2:
        return (value.lo + value.hi) / 2
    if pick == 3:
        return value.refined(Fraction(1, 1 << 10)).lo
    return Fraction(draw(st.integers(0, 40)), draw(st.integers(1, 8)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perron_cmp_against_rationals_matches_sympy_path(data):
    value = data.draw(perron_handles())
    q = PerronValue.from_rational(data.draw(rationals_near(value)))
    assert value.cmp(q) == value._cmp_general(q)
    assert q.cmp(value) == q._cmp_general(value) == -value.cmp(q)


@settings(max_examples=40, deadline=None)
@given(perron_handles(), perron_handles())
def test_perron_cmp_identical_and_equal_handles(a, b):
    assert a.cmp(a) == 0
    same = PerronValue(a.coeffs, a.lo, a.hi)
    assert a.cmp(same) == 0 == a._cmp_general(same)
    finer = a.refined(Fraction(1, 1 << 12))
    assert a.cmp(finer) == 0 == finer.cmp(a)
    assert a.cmp(b) == a._cmp_general(b)


def test_perron_cmp_rational_exact_cases():
    golden = PerronValue.of_matrix([[1, 1], [1, 0]])  # (1 + sqrt 5) / 2
    assert _cmp_rational(golden, Fraction(8, 5)) == 1
    assert _cmp_rational(golden, Fraction(13, 8)) == -1
    two = PerronValue.of_matrix([[1, 1], [1, 1]])
    assert two.is_exact and _cmp_rational(two, 2) == 0
    # an interval endpoint that is the root itself
    root_at_lo = PerronValue((1, -3, 2), Fraction(2), Fraction(5, 2))  # x^2 - 3x + 2
    assert _cmp_rational(root_at_lo, 2) == 0
    assert _cmp_rational(root_at_lo, Fraction(9, 4)) == -1


# -- the prefix cache past _CHUNK letters --------------------------------------------


@st.composite
def prolongable_systems(draw):
    sigma = draw(start_prefixed(allow_empty=False, max_image=5))
    sys_ = ProlongableSystem(sigma, "a")
    if draw(st.booleans()):
        target = Alphabet(("0", "1"))
        phi = Morphism.from_tokens(
            sigma.src,
            target,
            {t: draw(st.lists(st.sampled_from("01"), min_size=1, max_size=2))
             for t in sigma.src.tokens},
        )
        sys_ = ProlongableSystem(sigma, "a", phi)
    return sys_


@settings(max_examples=30, deadline=None)
@given(prolongable_systems(), st.integers(1, 3), st.sampled_from([_CHUNK - 1, _CHUNK, 3 * _CHUNK]))
def test_scan_matches_find_in_prefix(sys_, m, limit):
    text = FixedPointStream(sys_, "y").prefix_chars(limit)
    pattern = text[:m]
    want = [i for i in range(limit - m + 1) if text.startswith(pattern, i)]
    assert occurrences(sys_, sys_.alphabet.decode(pattern), limit, "y") == want
    assert first_two_occurrences(FixedPointStream(sys_, "y"), pattern, limit) == want[:2]


def test_chunks_when_sigma_images_exceed_a_chunk():
    big = " ".join(["b"] * (_CHUNK + 100))
    sys_ = parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> a {big}\nb -> a b\n")
    n = 3 * _CHUNK
    assert FixedPointStream(sys_, "y").prefix_chars(n) == _iterate(sys_, n, "y")


def test_chunks_for_linear_growth_past_the_table_depth():
    # y = a b b b ...: one letter per level, far deeper than the table goes
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    n = _CHUNK + 300
    assert FixedPointStream(sys_, "y").prefix_chars(n) == _iterate(sys_, n, "y")


def test_chunks_when_a_letter_outside_y_stops_the_table():
    # y = a d d d ...: one letter per level, while b, which y never reaches,
    # outgrows a chunk at sigma^6 and so stops the sigma^j table at level 5
    sys_ = parse_system(
        "alphabet: a b c d\nstart: a\nsigma:\na -> a d\nb -> b b c b b\nc -> c d\nd -> d\n"
    )
    n = 3 * _CHUNK
    assert FixedPointStream(sys_, "y").prefix_chars(n) == _iterate(sys_, n, "y")
    assert occurrences(sys_, ["d", "d"], n, "y") == list(range(1, n - 1))


# -- growth from SCC radius classes -------------------------------------------------


@st.composite
def condensations(draw):
    """Incidence matrices built SCC by SCC, biased towards the cases the
    radius classes separate: trivial letters, cyclic permutation blocks,
    blocks of radius above 1, chains of cycles, and letters that reach only
    trivial SCCs.  Edges between SCCs go forward only, so the blocks drawn
    are the SCCs; letters are then shuffled."""
    kinds = draw(
        st.lists(st.sampled_from(["trivial", "cycle", "big"]), min_size=1, max_size=4)
    )
    members: list[list[int]] = []
    n = 0
    for kind in kinds:
        size = 1 if kind == "trivial" else draw(st.integers(1, 3))
        members.append(list(range(n, n + size)))
        n += size
    m = [[0] * n for _ in range(n)]
    for kind, comp in zip(kinds, members):
        if kind == "trivial":
            continue
        for pos, j in enumerate(comp):
            m[comp[(pos + 1) % len(comp)]][j] = 1
        if kind == "big":
            i, j = draw(st.sampled_from(comp)), draw(st.sampled_from(comp))
            m[i][j] += draw(st.integers(1, 2))
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            if draw(st.integers(0, 2)) == 0:
                j, i = draw(st.sampled_from(members[a])), draw(st.sampled_from(members[b]))
                m[i][j] += draw(st.integers(1, 2))
    perm = draw(st.permutations(range(n)))
    shuffled = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            shuffled[perm[i]][perm[j]] = m[i][j]
    return shuffled


generic_matrices = st.integers(1, 4).flatmap(
    lambda d: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 1, 2]), min_size=d, max_size=d),
        min_size=d,
        max_size=d,
    )
)


def _fresh(matrix) -> IncidenceStructure:
    tokens = tuple(f"l{i}" for i in range(len(matrix)))
    return IncidenceStructure(Alphabet(tokens), mat_from(matrix))


def _outcome(fn):
    try:
        return ("value", fn())
    except PreconditionViolated as e:
        return ("raised", type(e), str(e))


@settings(max_examples=120, deadline=None)
@given(st.one_of(condensations(), generic_matrices))
# radius about 1.8794; its characteristic polynomial also has the root 1
@example([[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [1, 1, 0, 0]])
def test_is_growing_matches_growth_type(matrix):
    by_class, by_perron = _fresh(matrix), _fresh(matrix)
    for tok in by_class.alphabet.tokens:
        got = _outcome(lambda: by_class.is_growing(tok))
        want = _outcome(lambda: not by_perron.growth_type(tok).is_non_growing())
        assert got == want
    expected_class = {-1: RADIUS_ZERO, 0: RADIUS_ONE, 1: RADIUS_ABOVE_ONE}
    for sid in range(len(by_perron.sccs)):
        perron = by_perron.perron_of_scc(sid)
        if by_perron.scc_trivial[sid]:
            assert by_class.scc_radius[sid] == RADIUS_ZERO
        else:
            assert by_class.scc_radius[sid] == expected_class[_cmp_rational(perron, 1)]


def test_is_growing_cases():
    # a -> b, b -> a: one cycle SCC, bounded
    assert not _fresh([[0, 1], [1, 0]]).is_growing("l0")
    # a -> a b, b -> b: two cycle SCCs on one path, linear growth
    chain = _fresh([[1, 0], [1, 1]])
    assert chain.is_growing("l0") and not chain.is_growing("l1")
    # a -> b, b -> empty: reaches only trivial SCCs
    nil = _fresh([[0, 0], [1, 0]])
    with pytest.raises(PreconditionViolated, match="only nilpotent structure"):
        nil.is_growing("l0")


# -- primitivity on the zero pattern ------------------------------------------------


def _horn_on_integers(matrix) -> int:
    """The least positive power by integer matrix products."""
    m = mat_from(matrix)
    d = len(m)
    acc = m
    for k in range(1, d * d - 2 * d + 3):
        if _positive(acc):
            return k
        acc = mat_mul(acc, m)
    raise NotPrimitive("no positive power")


@settings(max_examples=150, deadline=None)
@given(st.one_of(condensations(), generic_matrices))
def test_horn_exponent_on_the_pattern_matches_integer_powers(matrix):
    try:
        want = _horn_on_integers(matrix)
    except NotPrimitive:
        with pytest.raises(NotPrimitive):
            horn_exponent(matrix)
        assert _fresh(matrix).primitive_exponent is None
    else:
        assert horn_exponent(matrix) == want
        assert _fresh(matrix).primitive_exponent == want


def test_horn_exponent_wielandt_extreme():
    # the Wielandt matrix attains the d^2 - 2d + 2 bound
    d = 5
    m = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        m[i + 1][i] = 1
    m[0][d - 1] = 1
    m[1][d - 1] = 1
    assert horn_exponent(m) == _horn_on_integers(m) == d * d - 2 * d + 2


# -- no characteristic polynomial on the catalog ---------------------------------------


def test_catalog_decides_and_verifies_without_perron_values(monkeypatch):
    calls = []

    def refuse(rows):
        calls.append(rows)
        raise AssertionError("characteristic polynomial computed")

    monkeypatch.setattr(PerronValue, "of_matrix", staticmethod(refuse))
    for entry in catalog.entries():
        try:
            verdict = decide_uniform_recurrence(parse_system(entry.text))
        except MorphrecError:
            assert entry.expected == "error"
            continue
        ok, info = verify_certificate(parse_system(entry.text), verdict)
        assert ok, (entry.name, info)
    assert calls == []


# -- R from the images of the 2-factors ---------------------------------------------------


def _largest_gap_in(y: str) -> int:
    """The largest gap between successive occurrences of any 2-factor of y."""
    last: dict[str, int] = {}
    best = 0
    for i in range(len(y) - 1):
        u = y[i : i + 2]
        if u in last:
            best = max(best, i - last[u])
        last[u] = i
    return best


def _window_prefix_length(sys_: ProlongableSystem) -> int | None:
    """|sigma^(d^2+s)(a)|, s least such that every |sigma^s(e)| >= 2|sigma^t|
    + 2 for the least t that puts any one 2-factor in every sigma^t(e), or
    None past 2^20 letters.  Every 2-factor cd occurs in some sigma^k(a) with
    k <= d^2, so the prefix holds each window sigma^s(cd)."""
    inc = sys_.incidence
    d = len(sys_.alphabet)
    images = {c: c for c in sys_.alphabet.chars}
    todo = set(factor_language(sys_, 2))
    t = s = 0
    while todo:
        t += 1
        images = {c: sys_.sigma.apply(w) for c, w in images.items()}
        if sum(map(len, images.values())) > 1 << 20:
            return None
        if any(all(u in w for w in images.values()) for u in todo):
            todo = {u for u in todo if not all(u in w for w in images.values())}
            need = 2 * max(inc.lengths_after(t)) + 2
            while min(inc.lengths_after(s)) < need:
                s += 1
    n = inc.lengths_after(d * d + s)[sys_.alphabet.index(sys_.start)]
    return n if n <= 1 << 20 else None


@settings(max_examples=40, deadline=None)
@given(prolongable_systems())
def test_r_sigma_matches_a_brute_force_prefix(sys_):
    assume(sys_.incidence.primitive_exponent is not None)
    n = _window_prefix_length(sys_)
    assume(n is not None)
    y = FixedPointStream(sys_, "y").prefix_chars(n)
    assert compute_R_sigma(sys_) == _largest_gap_in(y)


def test_r_sigma_on_letter_runs():
    # y = (a b^64)^inf: "bb" overlaps itself inside every run, and the gap
    # from the last bb of a run to the first of the next is 3; y has period
    # 65, so four periods show every gap
    body = " ".join(["b"] * 64)
    sys_ = parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> a {body}\nb -> a {body}\n")
    y = FixedPointStream(sys_, "y").prefix_chars(4 * 65)
    assert compute_R_sigma(sys_) == _largest_gap_in(y) == 65
    single = parse_system("alphabet: a\nstart: a\nsigma:\na -> a a\n")
    assert compute_R_sigma(single) == 1


# -- factor-language windows -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(prolongable_systems(), st.integers(1, 7))
def test_factor_language_windows_match_the_closure(sys_, n):
    if not sys_.incidence.all_growing():
        return
    assert factor_language(sys_, n) == _closure(sys_, n)


# -- decoding ----------------------------------------------------------------------------


def test_decode_maps_chars_and_rejects_outsiders():
    alpha = Alphabet(("x", "yy", "z"))
    word = alpha.encode(["z", "x", "yy", "yy"])
    assert alpha.decode(word) == ["z", "x", "yy", "yy"]
    assert alpha.decode("") == []
    for bad in (word + chr(33 + 3), " ", "\x00"):
        with pytest.raises(AlphabetMismatch, match="outside alphabet"):
            alpha.decode(bad)
    with pytest.raises(AlphabetMismatch):
        alpha.token_of_char(chr(33 + 3))


def test_alphabet_chars_are_cached_and_a_large_identity_round_trips():
    alpha = Alphabet.indexed(4096)
    assert alpha.chars is alpha.chars
    assert alpha.chars == "".join(alpha.char(t) for t in alpha.tokens)
    word = alpha.encode(list(reversed(alpha.tokens)))
    assert Morphism.identity(alpha).apply(word) == word
    with pytest.raises(AlphabetMismatch, match="not in alphabet"):
        alpha.char("0")


def test_encode_matches_the_index_and_rejects_outsiders():
    alpha = Alphabet(("x", "yy", "z"))
    word = ["z", "x", "yy", "yy", "x"]
    assert alpha.encode(word) == "".join(chr(33 + alpha.index(t)) for t in word)
    assert alpha.encode(tuple(word)) == alpha.encode(word)
    assert alpha.encode([]) == ""
    for bad in (["x", "y"], ["w"], ["x", "yy", "zz"]):
        with pytest.raises(AlphabetMismatch, match="not in alphabet"):
            alpha.encode(bad)


# -- the primitive certificate against the chain ---------------------------------------


def test_primitive_certificate_on_the_catalog_without_low_powers():
    # the check runs before any low power, so every primitive stage meets it
    fired = []
    for entry in catalog.entries():
        if entry.expected == "error":
            continue
        stage = _growing_stage(parse_system(entry.text))
        if stage is None or stage.staged.incidence.primitive_exponent is None:
            continue
        verdict = decide_uniform_recurrence(parse_system(entry.text))
        assert verdict.outcome == UNIFORMLY_RECURRENT, entry.name
        assert entry.expected == "ur", entry.name
        ok, info = verify_certificate(parse_system(entry.text), verdict)
        assert ok, (entry.name, info)
        if verdict.certificate.kind == "primitive":
            fired.append(entry.name)
        else:
            # only an x found periodic before the sheet settles earlier
            assert verdict.certificate.data["source"] == "upfront", entry.name
    assert len(fired) == 20, fired


# primitive sigma under a 0/1 coding: no low power certifies these, and the
# full-power chain certifies a repetition on each in under 0.5 s
CHAIN_SETTLED = [
    ({"a": "ac", "b": "ab", "c": "bc"}, {"a": "1", "b": "0", "c": "0"}),
    ({"a": "ac", "b": "cb", "c": "cba"}, {"a": "1", "b": "1", "c": "0"}),
    ({"a": "ab", "b": "bca", "c": "bc"}, {"a": "1", "b": "0", "c": "1"}),
    ({"a": "ac", "b": "cb", "c": "ab"}, {"a": "0", "b": "0", "c": "1"}),
    ({"a": "ab", "b": "ca", "c": "ac"}, {"a": "1", "b": "1", "c": "0"}),
]


@pytest.mark.parametrize("images,coding", CHAIN_SETTLED)
def test_primitive_certificate_agrees_with_the_chain(images, coding):
    # the paper's chain, which the decider no longer drives, is the oracle:
    # on sigma^P and the counted sheet it certifies a repetition, so it
    # too finds x uniformly recurrent
    text = (
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\n"
        + "".join(f"{c} -> {' '.join(w)}\n" for c, w in images.items())
        + "phi:\n"
        + "".join(f"{c} -> {t}\n" for c, t in coding.items())
    )
    fast = decide_uniform_recurrence(parse_system(text))
    assert fast.outcome == UNIFORMLY_RECURRENT
    assert fast.certificate.kind == "primitive"
    ok, info = verify_certificate(parse_system(text), fast)
    assert ok, info
    stage = _growing_stage(parse_system(text))
    sheet = compute_constant_sheet(stage.staged)
    P = sheet.power_exponent
    slow = decider._chain(stage.staged.with_sigma_power(P), P, sheet, WORK_BUDGET)
    assert slow.kind == "repetition" and slow.data["power"] == P


# -- the finite-letter screen against a BFS per letter -----------------------------------


def _finite_letter_by_bfs(sys_: ProlongableSystem) -> str | None:
    """The screen as it was before it read the incidence analysis: a
    reachability BFS from every letter."""
    sigma = sys_.sigma
    alpha = sys_.alphabet
    n = len(alpha)
    idx = {t: j for j, t in enumerate(alpha.tokens)}
    succ = [sorted({idx[t] for t in sigma.image_tokens(s)}) for s in alpha.tokens]
    reach = []
    for j0 in range(n):
        seen = {j0}
        stack = [j0]
        while stack:
            j = stack.pop()
            for k in succ[j]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        reach.append(seen)
    on_cycle = {c for c in range(n) if any(c in reach[k] for k in succ[c])}
    tail = sigma.image_tokens(sys_.start)[1:]
    infinite = set()
    for s in sorted({idx[t] for t in tail}):
        for c in sorted(on_cycle & reach[s]):
            infinite |= reach[c]
    phi = sys_.effective_phi
    finite_y = [alpha.tokens[j] for j in range(n) if j not in infinite]
    if not finite_y:
        return None
    infinite_images = {phi.image(alpha.tokens[j])[0] for j in sorted(infinite)}
    for t in finite_y:
        img = phi.image(t)[0]
        if img not in infinite_images:
            return sys_.target_alphabet.token_of_char(img)
    return None


@st.composite
def coded_systems(draw):
    """2-5 letters, sigma(a) = a u with u non-empty, images of 1-3 letters
    (so some letters grow and some do not), and half the time a random
    coding onto two or three letters."""
    tokens = tuple("abcde"[: draw(st.integers(2, 5))])
    letter = st.sampled_from(tokens)
    table = {t: draw(st.lists(letter, min_size=1, max_size=3)) for t in tokens}
    table["a"] = ["a"] + draw(st.lists(letter, min_size=1, max_size=2))
    alpha = Alphabet(tokens)
    sigma = Morphism.from_tokens(alpha, alpha, table)
    phi = None
    if draw(st.booleans()):
        target = Alphabet(tuple("012"[: draw(st.integers(2, 3))]))
        letters = st.sampled_from(target.tokens)
        phi = Morphism.from_tokens(alpha, target, {t: [draw(letters)] for t in tokens})
    return ProlongableSystem(sigma, "a", phi)


@settings(max_examples=200, deadline=None)
@given(coded_systems())
def test_finite_letter_witness_matches_a_bfs_per_letter(sys_):
    assert finite_letter_witness(sys_) == _finite_letter_by_bfs(sys_)
