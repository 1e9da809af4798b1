"""Each shortcut against the general computation it stands in for.

is_prolongable skips the growth-type analysis for non-erasing sigma,
lengths_after extends cached rows one step at a time, PerronValue.cmp
settles equal handles and rationals without sympy, and the stream expands
sigma^k(u) through a lazily built image table into coalesced chunks.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from morphrec.growth import (
    IncidenceStructure,
    PerronValue,
    mat_colsums,
    mat_from,
    mat_pow,
)
from morphrec.morphism import Morphism
from morphrec.stream import _CHUNK, FixedPointStream
from morphrec.system import ProlongableSystem, parse_system
from morphrec.words import Alphabet

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


@st.composite
def start_prefixed(draw, allow_empty=True, max_image=3):
    """Endomorphisms where sigma(a) = a ... usually; the rest may erase.
    Without empty images, sigma(a) = a u with u non-empty."""
    m = draw(endomorphisms(allow_empty=allow_empty, max_image=max_image))
    table = m.as_token_table()
    if draw(st.booleans()) or not allow_empty:
        rest = draw(st.lists(st.sampled_from(m.src.tokens), min_size=0 if allow_empty else 1, max_size=3))
        table["a"] = ["a"] + rest
    return Morphism.from_tokens(m.src, m.src, table)


# -- is_prolongable ----------------------------------------------------------------


@given(start_prefixed())
def test_is_prolongable_matches_growth_type(sigma):
    img = sigma.image("a")
    fresh = IncidenceStructure(sigma.src, mat_from(sigma.incidence_matrix()))
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
    inc = IncidenceStructure(sigma.src, mat_from(sigma.incidence_matrix()))
    for k in ks:
        assert inc.lengths_after(k) == mat_colsums(mat_pow(inc.matrix, k))


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
    assert golden.cmp_rational(Fraction(8, 5)) == 1
    assert golden.cmp_rational(Fraction(13, 8)) == -1
    two = PerronValue.of_matrix([[1, 1], [1, 1]])
    assert two.is_exact and two.cmp_rational(2) == 0
    # an interval endpoint that is the root itself
    root_at_lo = PerronValue((1, -3, 2), Fraction(2), Fraction(5, 2))  # x^2 - 3x + 2
    assert root_at_lo.cmp_rational(2) == 0
    assert root_at_lo.cmp_rational(Fraction(9, 4)) == -1


# -- stream chunks -------------------------------------------------------------------


def _joined(stream: FixedPointStream, n: int) -> str:
    out = []
    size = 0
    for chunk in stream.chunks():
        assert chunk
        out.append(chunk)
        size += len(chunk)
        if size >= n:
            break
    return "".join(out)[:n]


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


@settings(max_examples=40, deadline=None)
@given(prolongable_systems(), st.sampled_from(["y", "x"]))
def test_chunks_concatenate_to_the_prefix(sys_, which):
    n = 2 * _CHUNK + 37
    want = FixedPointStream(sys_, which).prefix_chars(n)
    assert _joined(FixedPointStream(sys_, which), n) == want


@settings(max_examples=30, deadline=None)
@given(prolongable_systems(), st.integers(1, 3), st.sampled_from([_CHUNK - 1, _CHUNK, 3 * _CHUNK]))
def test_scan_matches_find_in_prefix(sys_, m, limit):
    stream = FixedPointStream(sys_, "y")
    text = stream.prefix_chars(limit)
    pattern = text[:m]
    want = [i for i in range(limit - m + 1) if text.startswith(pattern, i)]
    assert FixedPointStream(sys_, "y").scan_occurrences(pattern, limit) == want
    assert FixedPointStream(sys_, "y").scan_occurrences(pattern, limit, max_count=2) == want[:2]


def test_chunks_when_sigma_images_exceed_a_chunk():
    big = " ".join(["b"] * (_CHUNK + 100))
    sys_ = parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> a {big}\nb -> a b\n")
    n = 3 * _CHUNK
    assert _joined(FixedPointStream(sys_, "y"), n) == FixedPointStream(sys_, "y").prefix_chars(n)


def test_chunks_for_linear_growth_past_the_table_depth():
    # y = a b b b ...: one letter per level, far deeper than the table goes
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    n = _CHUNK + 300
    assert _joined(FixedPointStream(sys_, "y"), n) == sys_.alphabet.encode(["a"] + ["b"] * (n - 1))


def test_chunks_are_coalesced():
    # period-65 system: every sigma image is 65 letters long
    body = " ".join(["b"] * 64)
    sys_ = parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> a {body}\nb -> a {body}\n")
    stream = FixedPointStream(sys_, "y")
    sizes = []
    for chunk in stream.chunks():
        sizes.append(len(chunk))
        if len(sizes) == 20:
            break
    assert min(sizes) >= _CHUNK
