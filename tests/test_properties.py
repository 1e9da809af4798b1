"""Property-based checks over randomly generated morphisms and words."""

from hypothesis import given, settings
from hypothesis import strategies as st

from morphrec.growth import (
    IncidenceStructure,
    growth_type,
    incidence,
    mat_pow,
)
from morphrec.morphism import Morphism, compose, power
from morphrec.system import ProlongableSystem, parse_system, system_to_text
from morphrec.words import Alphabet, factor_set, occurrences_in_word

from test_growth import _colsums

LETTERS = "abcd"


@st.composite
def endomorphisms(draw, min_letters=2, max_letters=4, max_image=3, allow_empty=False):
    n = draw(st.integers(min_letters, max_letters))
    tokens = tuple(LETTERS[:n])
    low = 0 if allow_empty else 1
    table = {
        t: draw(st.lists(st.sampled_from(tokens), min_size=low, max_size=max_image))
        for t in tokens
    }
    alpha = Alphabet(tokens)
    return Morphism.from_tokens(alpha, alpha, table)


@st.composite
def prolongable_endos(draw, max_letters=4):
    """Non-erasing endomorphisms with sigma(a) = a ... and |sigma(a)| >= 2."""
    m = draw(endomorphisms(max_letters=max_letters))
    tokens = m.src.tokens
    first = draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=2))
    table = {t: m.image_tokens(t) for t in tokens}
    table[tokens[0]] = [tokens[0]] + first
    return Morphism.from_tokens(m.src, m.src, table)


@given(endomorphisms(allow_empty=True), endomorphisms(allow_empty=True), endomorphisms(allow_empty=True))
def test_compose_is_associative(f, g, h):
    if not (f.src.tokens == g.src.tokens == h.src.tokens):
        return
    left = compose(f, compose(g, h))
    right = compose(compose(f, g), h)
    assert left.images == right.images


@given(endomorphisms(), st.integers(1, 6))
def test_power_column_sums_are_image_lengths(m, k):
    pk = power(m, k)
    mat = mat_pow(incidence(m).matrix, k)
    sums = _colsums(mat)
    for j, tok in enumerate(m.src.tokens):
        assert len(pk.image(tok)) == sums[j]
    assert incidence(pk).matrix == mat


@given(endomorphisms(allow_empty=True), st.data())
def test_image_respects_concatenation(m, data):
    w = data.draw(st.lists(st.sampled_from(m.src.tokens), max_size=8))
    joined = m.apply(m.src.encode(w))
    pieces = "".join(m.apply(m.src.encode([t])) for t in w)
    assert joined == pieces


@given(prolongable_endos())
@settings(max_examples=60, deadline=None)
def test_growth_classification_agrees_with_iteration(m):
    struct = IncidenceStructure.of_morphism(m)
    m32 = mat_pow(struct.matrix, 32)
    m64 = mat_pow(m32, 2)
    s32, s64 = _colsums(m32), _colsums(m64)
    for j, tok in enumerate(m.src.tokens):
        gt = growth_type(struct, tok)
        assert struct.is_growing(tok) == (not gt.is_non_growing())
        if gt.is_non_growing():
            assert s32[j] == s64[j]
        else:
            assert s64[j] > s32[j]


@given(prolongable_endos())
@settings(max_examples=40, deadline=None)
def test_sigma_of_fixed_point_prefix_is_prefix(m):
    sys_ = ProlongableSystem(m, m.src.tokens[0])
    if not sys_.is_prolongable():
        return
    from morphrec.stream import prefix

    y = sys_.alphabet.encode(prefix(sys_, 200, which="y"))
    image = m.apply(y)
    longer = sys_.alphabet.encode(prefix(sys_, len(image), which="y"))
    assert image == longer


@given(prolongable_endos())
@settings(max_examples=40, deadline=None)
def test_system_text_round_trip(m):
    sys_ = ProlongableSystem(m, m.src.tokens[0])
    if not sys_.is_prolongable():
        return
    back = parse_system(system_to_text(sys_))
    assert back.alphabet.tokens == sys_.alphabet.tokens
    assert back.start == sys_.start
    assert back.sigma.images == sys_.sigma.images


@given(st.text(alphabet="ab", max_size=40), st.integers(0, 6))
def test_factor_set_matches_windows(w, n):
    expect = {w[i : i + n] for i in range(len(w) - n + 1)} if n <= len(w) else set()
    if n == 0:
        expect = {""}
    assert factor_set(w, n) == expect


@given(st.text(alphabet="ab", max_size=60), st.text(alphabet="ab", min_size=1, max_size=5))
def test_occurrences_are_exact(w, p):
    got = occurrences_in_word(w, p)
    assert got == [i for i in range(len(w) - len(p) + 1) if w[i : i + len(p)] == p]
