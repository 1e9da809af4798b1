"""Lazy fixed-point expansion: prefixes, occurrence scans, gaps, complexity.

Every stream reads one shared prefix cache per fixed point (y per sigma and
start letter, x per system); interleaved reads through it equal the plain
iterate, and deciding on a warm cache gives the same verdict.
"""

import random

import pytest

from morphrec import stream
from morphrec.catalog import PRIMITIVE_CORPUS, entries, get
from morphrec.decider import _stages, decide_uniform_recurrence
from morphrec.errors import MorphrecError, NotEnoughOccurrences
from morphrec.morphism import Morphism
from morphrec.stream import (
    _CHUNK,
    FixedPointStream,
    MaxGapResult,
    _closure,
    complexity,
    factor_language,
    max_gap,
    occurrences,
    prefix,
)
from morphrec.system import ProlongableSystem, parse_system
from morphrec.words import Alphabet, factor_set

from test_fuzz import _draw


# -- prefixes ----------------------------------------------------------------------


def test_prefix_fibonacci(fib):
    assert "".join(prefix(fib, 13)) == "abaababaabaab"


def test_prefix_thue_morse(tm):
    assert "".join(prefix(tm, 8)) == "01101001"


def test_prefix_zero_and_monotone(fib):
    assert prefix(fib, 0) == []
    p200 = prefix(fib, 200)
    for n in (1, 7, 50, 199):
        assert prefix(fib, n) == p200[:n]


def test_prefix_outer_vs_inner():
    sys_ = parse_system(
        "alphabet: a b\ntarget: 0 1\nstart: a\nsigma:\na -> a b\nb -> a\n"
        "phi:\na -> 0\nb -> 1\n"
    )
    y = prefix(sys_, 13, "y")
    x = prefix(sys_, 13, "x")
    code = {"a": "0", "b": "1"}
    assert [code[t] for t in y] == x


def test_prefix_of_slowly_growing_y_translates_each_letter_once(monkeypatch):
    # y = a b b b ... gains one letter per level, so translating the whole
    # prefix at each level would translate about n^2 / 2 letters
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    translated = []
    real = Morphism.apply

    def counted(m, w):
        translated.append(len(w))
        return real(m, w)

    monkeypatch.setattr(Morphism, "apply", counted)
    n = 4096
    assert FixedPointStream(sys_, "y").prefix(n) == ["a"] + ["b"] * (n - 1)
    assert sum(translated) <= n


# lengths at and around multiples of _CHUNK, where blocks start to go
# through the deepest sigma^j table
AROUND_CHUNKS = sorted({m * _CHUNK + e for m in (1, 2, 3, 8, 32) for e in (-1, 0, 1)})


def _iterate(sys_, n, which):
    """The first n letters of the plain iterate sigma^k(a), or of its image
    under phi, applying sigma to the whole word at each step."""
    w = sys_.alphabet.char(sys_.start)
    phi = sys_.effective_phi
    while len(w if which == "y" else phi.apply(w)) < n:
        w = sys_.sigma.apply(w)
    return (w if which == "y" else phi.apply(w))[:n]


def _check_prefixes_against_the_iterate(sys_, lengths):
    for which in ("y", "x"):
        want = _iterate(sys_, max(lengths), which)
        grown = FixedPointStream(sys_, which)
        for n in lengths:
            assert grown.prefix_chars(n) == want[:n], (which, n)
            assert FixedPointStream(sys_, which).prefix_chars(n) == want[:n], (which, n)


@pytest.mark.parametrize("name", PRIMITIVE_CORPUS)
def test_prefixes_of_the_corpus_equal_the_plain_iterate(name):
    _check_prefixes_against_the_iterate(get(name).build(), AROUND_CHUNKS)


def test_prefixes_of_polynomial_growth_equal_the_plain_iterate():
    # |sigma^k(b)| grows like k^2 / 2, so blocks reach _CHUNK letters near
    # k = 90, and the table stops near level 28, where |sigma^j(a)| passes it
    sys_ = parse_system(
        "alphabet: a b c d\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> b c\n"
        "c -> c d\nd -> d\nphi:\na -> 0 1\nb -> 1\nc -> ε\nd -> 0\n"
    )
    _check_prefixes_against_the_iterate(sys_, AROUND_CHUNKS + [150_000])


def test_prefixes_of_linear_growth_equal_the_plain_iterate():
    sys_ = parse_system(
        "alphabet: a b\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> b\n"
        "phi:\na -> 0\nb -> 1 0\n"
    )
    _check_prefixes_against_the_iterate(sys_, [n for n in AROUND_CHUNKS if n <= _CHUNK + 1])


DECIDED = [e.name for e in entries() if e.expected != "error"]


@pytest.mark.parametrize("name", DECIDED)
def test_interleaved_reads_through_the_shared_cache_equal_the_plain_iterate(name):
    # the twin is a second system on the same sigma and start, so it reads
    # the same y cache and grows its own x cache from it; the bare system
    # has no phi, so its x is that y
    sys_ = get(name).build()
    twin = ProlongableSystem(sys_.sigma, sys_.start, sys_.phi)
    bare = ProlongableSystem(sys_.sigma, sys_.start)
    readers = [(sys_, "y"), (sys_, "x"), (twin, "y"), (twin, "x"), (bare, "x")]
    lengths = [1, 2, 17, 255, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 1, 30_000]
    if sys_.incidence.lengths_after(64)[sys_.alphabet.index(sys_.start)] < 30_000:
        # y gains about one letter per level, too slow for the plain iterate
        lengths = lengths[:7]
    want = {w: _iterate(sys_, max(lengths), w) for w in ("y", "x")}
    reads = [(s, w, n) for s, w in readers for n in lengths]
    random.Random(name).shuffle(reads)
    for s, w, n in reads:
        plain = want["x" if w == "x" and s.phi is not None else "y"]
        assert FixedPointStream(s, w).prefix_chars(n) == plain[:n], (w, n)
    assert sys_.sigma.fixed_points.keys() == {sys_.start}


@pytest.mark.parametrize("name", DECIDED)
def test_deciding_on_a_warm_cache_gives_the_same_verdict(name):
    sys_ = get(name).build()
    first = decide_uniform_recurrence(sys_).to_json_dict()
    assert decide_uniform_recurrence(sys_).to_json_dict() == first
    assert decide_uniform_recurrence(get(name).build()).to_json_dict() == first


def test_sigma_of_prefix_is_prefix(fib, tm, trib):
    # sigma(y[:n]) is itself a prefix of y
    for sys_ in (fib, tm, trib):
        stream = FixedPointStream(sys_, "y")
        long = stream.prefix_chars(5000)
        for n in (1, 10, 100, 1000):
            img = sys_.sigma.apply(long[:n])
            assert long.startswith(img[: len(long)]) or img.startswith(long)


def test_stream_rejects_bad_which(fib):
    with pytest.raises(ValueError):
        FixedPointStream(fib, "z")


# -- occurrences and gaps ------------------------------------------------------------


def test_occurrences_fibonacci_aa(fib):
    assert occurrences(fib, ["a", "a"], 13) == [2, 7, 10]


def test_occurrences_thue_morse_zero(tm):
    assert occurrences(tm, ["0"], 8) == [0, 3, 5, 6]


def test_occurrences_overlapping():
    sys_ = parse_system("alphabet: a\nstart: a\nsigma:\na -> a a\n")
    assert occurrences(sys_, ["a", "a"], 5) == [0, 1, 2, 3]


def test_max_gap_thue_morse(tm):
    res = max_gap(tm, ["0"], 64)
    assert isinstance(res, MaxGapResult)
    assert res.gap == 3
    a, b = res.witness
    assert b - a == 3


def test_max_gap_grows_for_block_system(nonur):
    # 1-runs lengthen forever, so the gap between 0s keeps increasing
    g1 = max_gap(nonur, ["0"], 1 << 7).gap
    g2 = max_gap(nonur, ["0"], 1 << 11).gap
    g3 = max_gap(nonur, ["0"], 1 << 15).gap
    assert g1 < g2 < g3


def test_max_gap_signal_value(fib):
    res = max_gap(fib, ["a", "b", "a", "a", "b", "a", "b", "a"], 9)
    assert isinstance(res, NotEnoughOccurrences)
    assert res.count == 1


# -- complexity ----------------------------------------------------------------------


def test_complexity_zero(fib):
    res = complexity(fib, 0)
    assert res.count == 1 and res.exact


def test_complexity_fibonacci_two(fib):
    res = complexity(fib, 2)
    assert res.exact
    assert res.count == 3
    assert res.factors == {("a", "b"), ("b", "a"), ("a", "a")}


def test_complexity_thue_morse_two(tm):
    res = complexity(tm, 2)
    assert res.exact
    assert res.count == 4
    assert res.factors == {("0", "1"), ("1", "0"), ("1", "1"), ("0", "0")}


def test_complexity_sturmian_growth(fib):
    # Sturmian-like: p(n) = n + 1 for the Fibonacci word
    for n in range(1, 9):
        assert complexity(fib, n).count == n + 1


def test_complexity_outer_coded():
    sys_ = parse_system(
        "alphabet: a b\ntarget: z\nstart: a\nsigma:\na -> a b\nb -> a\n"
        "phi:\na -> z\nb -> z\n"
    )
    res = complexity(sys_, 3, "x")
    assert res.exact and res.count == 1


def test_complexity_inexact_fallback(nonur, monkeypatch):
    # non-growing letter: exact enumeration unavailable, scan lower bound
    monkeypatch.setattr(stream, "_COMPLEXITY_PREFIX", 4096)
    res = complexity(nonur, 2)
    assert not res.exact
    assert res.count >= 3


def test_factor_language_matches_scan(fib, tm):
    for sys_, n in ((fib, 4), (tm, 5)):
        lang = factor_language(sys_, n, "y")
        scanned = factor_set(FixedPointStream(sys_, "y").prefix_chars(4096), n)
        assert scanned <= lang
        # every claimed factor eventually shows up in a longer scan
        big = factor_set(FixedPointStream(sys_, "y").prefix_chars(1 << 15), n)
        assert lang == big


def test_factor_language_windows(trib):
    # cross-check the image-window enumeration on a 3-letter system
    lang = factor_language(trib, 6, "y")
    big = factor_set(FixedPointStream(trib, "y").prefix_chars(1 << 15), 6)
    assert lang == big


def test_factor_language_seeds_past_one_letter_images():
    # b -> c, c -> b c from b: sigma(b) = c has the length of b, yet
    # sigma^2(b) = b c, so L_2 is not empty
    sys_ = parse_system("alphabet: b c\nstart: b\nsigma:\nb -> c\nc -> b c\n")
    lang = factor_language(sys_, 2)
    assert {"".join(sys_.alphabet.decode(w)) for w in lang} == {"bc", "cb", "cc"}
    word = sys_.alphabet.char("b")
    for _ in range(12):
        word = sys_.sigma.apply(word)
    assert lang == factor_set(word, 2)


def test_factor_language_ends_on_a_cycle_of_one_letter_images():
    # a -> b, b -> a: every iterate has one letter, so no factor has two
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> b\nb -> a\n")
    assert factor_language(sys_, 2) == frozenset()
    assert {"".join(sys_.alphabet.decode(w)) for w in factor_language(sys_, 1)} == {"a", "b"}


def test_factor_language_takes_the_closure_when_the_windows_pass_the_budget(monkeypatch):
    # a grows ninefold while b, ..., h only pass one letter on, so every
    # image of a letter of y reaches 3 letters at t = 8, when sigma^8(a) has
    # 19,173,961 letters; the closure reads a few hundred
    sys_ = parse_system(
        "alphabet: a b c d e f g h\nstart: a\nsigma:\na -> a a a a a a a a b\n"
        "b -> c\nc -> d\nd -> e\ne -> f\nf -> g\ng -> h\nh -> a\n"
    )
    assert sys_.incidence.all_growing()
    applied = []
    real = Morphism.apply

    def counted(self, word):
        image = real(self, word)
        applied.append(len(image))
        return image

    monkeypatch.setattr(Morphism, "apply", counted)
    lang = factor_language(sys_, 3)
    assert sum(applied) < 1 << 12
    monkeypatch.undo()
    assert lang == _closure(sys_, 3)
    assert {"".join(sys_.alphabet.decode(w)) for w in lang} >= {"aaa", "aab", "abc", "haa"}


# -- one factor-language routine against its references -----------------------------

FACTOR_DRAWS = 300
FACTOR_LEN = 32


def _parent_x_language(phi, y_factors, n):
    """complexity's x loop as it was before factor_language served it: the
    n-windows of phi(w) for every (n+1)-factor w of y."""
    lang = set()
    for w in y_factors:
        img = phi.apply(w)
        for i in range(len(img) - n + 1):
            lang.add(img[i : i + n])
    return lang


def _with_wide_phi(sys_, rng):
    """sys_ under a phi onto 0 1 with images of 1 to 3 letters, and of 2 for
    the start letter, so never a coding."""
    table = {
        t: [rng.choice("01") for _ in range(2 if t == sys_.start else rng.randint(1, 3))]
        for t in sys_.alphabet.tokens
    }
    phi = Morphism.from_tokens(sys_.alphabet, Alphabet(("0", "1")), table)
    return ProlongableSystem(sys_.sigma, sys_.start, phi)


def _factor_beds(chunk):
    """Chunk 0: every catalog system with a non-erasing sigma; chunks 1-3:
    a third each of 300 seeded draws over 2-6 letters, each under a
    non-coding phi.  Each system is followed by every stage of its walk."""
    if chunk == 0:
        bases = [e.build() for e in entries()]
    else:
        rng = random.Random(20261020)
        drawn = [_with_wide_phi(parse_system(_draw(rng, "abcdef")), rng) for _ in range(FACTOR_DRAWS)]
        bases = drawn[(chunk - 1) * 100 : chunk * 100]
    for sys_ in bases:
        if sys_.sigma.is_erasing:
            continue
        yield sys_
        try:
            stages = list(_stages(sys_, []))
        except MorphrecError:
            continue
        yield from (stage.staged for stage in stages if stage.staged is not sys_)


@pytest.mark.parametrize("chunk", range(4))
def test_factor_language_matches_the_closure_and_the_parent_x_side(chunk):
    """For n <= 32, the y side against the closure: its 33-factors give
    every L_n(y) as their n-prefixes, since each factor of the infinite y
    extends to the right.  The x side under a non-coding phi against
    complexity's former x loop.  Both the windows and the closure path of
    factor_language are taken."""
    seen = {"windows": 0, "closure": 0, "wide_phi": 0}
    for sys_ in _factor_beds(chunk):
        top = _closure(sys_, FACTOR_LEN + 1)
        growing = sys_.incidence.all_growing()
        wide = sys_.phi is not None and not sys_.phi.is_coding
        for n in range(1, FACTOR_LEN + 1):
            assert factor_language(sys_, n) == {w[:n] for w in top}, n
            seen["windows" if growing and n >= 3 else "closure"] += 1
            if wide:
                want = _parent_x_language(sys_.phi, {w[: n + 1] for w in top}, n)
                assert factor_language(sys_, n, "x") == want, n
                seen["wide_phi"] += 1
    assert min(seen.values()) >= 50, seen
