"""Exact constant sheets: recurrence constants, powers, caps, and the bounds
they are required to dominate."""

import itertools
import math
import operator
import random
import re
from fractions import Fraction

import pytest

from morphrec import constants
from morphrec.catalog import entries, get
from morphrec.constants import (
    CapExpression,
    compute_constant_sheet,
    compute_count_free_sheet,
    compute_R_sigma,
)
from morphrec.decider import _growing_stage, prepare
from morphrec.errors import (
    BudgetExhausted,
    InternalConsistencyError,
    MorphrecError,
    NotPrimitive,
)
from morphrec.growth import IncidenceStructure, block_decomposition
from morphrec.morphism import Morphism
from morphrec.returns import WORK_BUDGET, return_words_to_word
from morphrec.stream import FixedPointStream, complexity, factor_language
from morphrec.system import parse_system

from test_fuzz import _draw


def _staged(name):
    return prepare(parse_system(get(name).text)).staged


def _sheet(name):
    return compute_constant_sheet(_staged(name))


# -- frozen values -------------------------------------------------------------------


def test_fibonacci_sheet_frozen():
    sh = _sheet("fibonacci")
    assert sh.sigma_norm == 2
    assert sh.sigma_min == 1
    assert sh.p_const == Fraction(89, 55)
    assert sh.q_const == Fraction(7921, 3025)
    assert sh.r_value == 5
    assert sh.K == 27
    assert sh.p_factor_count == 29
    assert sh.preimage_bound == 119069
    assert sh.power_exponent == 15
    assert sh.powered_norm == 1597
    assert sh.powered_min == 987
    assert sh.K1 == 7485570325464
    assert sh.K2 == 1207332
    assert sh.cap.base == sh.K1
    assert sh.cap.exponent == sh.K1 * sh.K2 + 2


@pytest.mark.parametrize(
    "name,k,r,power",
    [
        ("thue_morse", 16, 8, 9),
        ("tribonacci", 88, 13, None),
        ("rudin_shapiro_coded", 52, 20, 12),
        ("period_doubling", 15, 7, 8),
    ],
)
def test_sheet_values_per_system(name, k, r, power):
    sh = _sheet(name)
    assert sh.K == k
    assert sh.r_value == r
    if power is not None:
        assert sh.power_exponent == power


def test_single_letter_system_sheet():
    sys_ = parse_system("alphabet: 0\nstart: 0\nsigma:\n0 -> 0 0\n")
    sh = compute_constant_sheet(prepare(sys_).staged)
    assert sh.K == 2
    assert sh.r_value == 1
    assert sh.powered_min >= (sh.K + 1) ** 2


def test_fibonacci_submorphism_entry():
    sh = _sheet("fibonacci")
    assert sh.chosen_submorphism == 0
    assert len(sh.submorphisms) == 1
    sub = sh.submorphisms[0]
    assert sub.letters == ("a", "b")
    assert sub.start == "a"
    assert sub.power == 1
    assert sub.norm == 2
    assert sub.q_value == Fraction(7921, 3025)
    assert sub.r_value == 5
    assert sub.k_value == Fraction(15842, 605)
    assert sh.K == math.ceil(sub.k_value)


def test_sheet_json_shape():
    d = _sheet("fibonacci").to_json_dict()
    assert d["P"] == "89/55"
    assert d["Q"] == "7921/3025"
    assert d["R"] == 5
    assert d["factor_count_K_plus_1"] == 29
    assert d["cap"] == "7485570325464^9037568592183102050"
    assert d["chosen_submorphism"] == 0
    assert d["submorphisms"][0]["letters"] == ["a", "b"]


def _growing_stages(texts):
    """The staged system of each text's growing stage, where it has one."""
    out = []
    for text in texts:
        try:
            stage = _growing_stage(parse_system(text))
        except MorphrecError:
            continue
        if stage is not None:
            out.append(stage.staged)
    return out


def test_r_value_matches_direct_computation():
    # the sheet reads R off sigma's single block, a power of sigma with the
    # same language
    primitive = [
        staged
        for staged in _growing_stages(e.text for e in entries())
        if staged.incidence.primitive_exponent is not None
    ]
    assert len(primitive) >= 10
    for staged in primitive:
        assert compute_count_free_sheet(staged).r_value == compute_R_sigma(staged)


# random draws with a bounded letter whose R once took a second to stream
_BOUNDED_LETTER_DRAWS = [
    "alphabet: a b c\nstart: a\nsigma:\na -> a c c\nb -> b\nc -> b a a\n",
    "alphabet: a b c\nstart: a\nsigma:\na -> a a b\nb -> c a a\nc -> c\n",
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a c c\nb -> b\nc -> b a a\n"
    "phi:\na -> 1\nb -> 0\nc -> 0\n",
    "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b b\nb -> c a a\nc -> c\n"
    "phi:\na -> 1\nb -> 0\nc -> 0\n",
]


def test_count_free_sheet_streams_no_prefix_of_y(monkeypatch):
    stages = _growing_stages([e.text for e in entries()] + _BOUNDED_LETTER_DRAWS)

    def refuse(*args, **kwargs):
        raise AssertionError("the sheet read a prefix of y")

    monkeypatch.setattr(FixedPointStream, "prefix_chars", refuse)
    sheets = 0
    for staged in stages:
        try:
            compute_count_free_sheet(staged)
        except MorphrecError:
            continue
        sheets += 1
    assert sheets >= len(_BOUNDED_LETTER_DRAWS) + 10


def test_r_sigma_requires_primitivity():
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    with pytest.raises(NotPrimitive):
        compute_R_sigma(sys_)


# -- R read per image against the per-window reading ---------------------------------


def _windowed_R(sys_) -> tuple[int, int, int]:
    """R read the way it was before the per-image reading: each window
    sigma^s(c)sigma^s(e) is built and split whole, and the result is checked
    against 2|sigma^(2d^2)| built in full.  Also returns how many windows
    had an occurrence across the junction and how many had two runs of a
    letter c for u = cc, so a test can show that it met both."""
    inc = sys_.incidence
    if inc.primitive_exponent is None:
        raise NotPrimitive("R is computed for primitive substitutions only")
    sys_.require_prolongable()
    chars = sys_.alphabet.chars
    d = len(chars)
    pairs = sorted(factor_language(sys_, 2))
    levels = [{c: c for c in chars}]

    def images_at(t):
        while len(levels) <= t:
            nxt = {c: sys_.sigma.apply(levels[-1][c]) for c in chars}
            if sum(map(len, nxt.values())) > WORK_BUDGET:
                raise BudgetExhausted("image materialization exceeded the work budget")
            levels.append(nxt)
        return levels[t]

    best, junctions, runs = 1, 0, 0
    for u in pairs:
        t_star = next(
            (t for t in range(1, inc.primitive_exponent + d * d + 1)
             if all(u in w for w in images_at(t).values())),
            None,
        )
        if t_star is None:
            raise InternalConsistencyError(
                "primitive substitution never covered a two-letter factor"
            )
        need = 2 * max(inc.lengths_after(t_star)) + 2
        s = 0
        while min(inc.lengths_after(s)) < need:
            s += 1
        images = images_at(s)
        split = re.compile(re.escape(u[0]) + "{2,}").split if u[0] == u[1] else None
        for c, e in pairs:
            window = images[c] + images[e]
            if window.find(u, window.find(u) + 1) == -1:
                raise InternalConsistencyError("two-letter factor did not recur in its window")
            junctions += window[len(images[c]) - 1 : len(images[c]) + 1] == u
            pieces = split(window) if split else window.split(u)
            runs += bool(split) and len(pieces) > 2
            if len(pieces) > 2:
                best = max(best, max(map(len, pieces[1:-1])) + 2)
    bound = 2 * max(inc.lengths_after(2 * d * d))
    if best > bound:
        raise InternalConsistencyError(
            f"computed R = {best} exceeds the 2|sigma^(2d^2)| = {bound} bound"
        )
    return best, junctions, runs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MorphrecError as e:
        return type(e).__name__, str(e)


def _block_systems(texts) -> list:
    """The closed primitive block systems compute_K reads R from, over the
    growing stages of texts."""
    out = []
    for staged in _growing_stages(texts):
        bd = block_decomposition(staged.incidence)
        for letters, flag, closed in zip(bd.blocks, bd.flags, bd.closed):
            if closed and flag == "primitive":
                out.append(constants._prolongable_block_system(staged, letters, bd.r_sigma)[0])
    return out


def test_r_per_image_matches_the_per_window_reading():
    body = " ".join(["b"] * 64)
    runs = [
        parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> a {body}\nb -> a\n"),
        parse_system(f"alphabet: a b\nstart: a\nsigma:\na -> a {body}\nb -> a {body}\n"),
        parse_system("alphabet: a b\nstart: a\nsigma:\na -> a a b\nb -> b b a\n"),
        parse_system("alphabet: a\nstart: a\nsigma:\na -> a a a\n"),
    ]
    rng = random.Random(7)
    drawn = [parse_system(_draw(rng, "abcdef")) for _ in range(400)]
    primitive = [s for s in drawn if s.incidence.primitive_exponent is not None]
    rng = random.Random(20261019)
    blocks = _block_systems(
        [e.text for e in entries()] + [_draw(rng, "abcde") for _ in range(200)]
    )
    systems = runs + primitive + blocks
    assert len(primitive) >= 100 and max(len(s.alphabet) for s in primitive) == 6
    assert sum(len(s.alphabet) > 5 for s in blocks) >= 3
    junctions = letter_runs = 0
    for sys_ in systems:
        want = _outcome(_windowed_R, sys_)
        got = _outcome(compute_R_sigma, sys_)
        if isinstance(want, tuple) and isinstance(want[0], int):
            want, j, r = want
            junctions, letter_runs = junctions + j, letter_runs + r
        assert got == want, sys_.sigma.images
    assert junctions > 1000 and letter_runs > 100


def test_window_gaps_match_the_starts_of_the_joined_words():
    # every pair of {a, b, c} words of 1-5 letters, and every 2-letter u:
    # the gaps through the junction are pinned here, since on the images
    # of a primitive sigma they have not been seen to give R
    words = ["".join(p) for n in range(1, 6) for p in itertools.product("abc", repeat=n)]
    rng = random.Random(3)
    for left, right in (rng.sample(words, 2) for _ in range(4000)):
        for u in ("".join(p) for p in itertools.product("abc", repeat=2)):
            window = left + right
            starts = [i for i in range(len(window) - 1) if window.startswith(u, i)]
            want = max(map(operator.sub, starts[1:], starts), default=None)
            got = constants._window_gap(
                left, right, u,
                constants._image_occurrences(left, u), constants._image_occurrences(right, u),
            )
            assert got == want, (left, right, u)


def test_r_compares_a_level_with_the_budget_before_building_it(monkeypatch):
    # sigma^2(a) has 17 letters and level 2 has 26, past a budget of 16:
    # the check must refuse the level before any of its images is built (the
    # 2-factors are found first, so every image counted is one of R's)
    sys_ = parse_system(
        "alphabet: a b\nstart: a\nsigma:\na -> a b b b b b b b b\nb -> a\n"
    )
    built = []
    apply = Morphism.apply

    def spy(self, word):
        out = apply(self, word)
        built.append(len(out))
        return out

    pairs = factor_language(sys_, 2)
    monkeypatch.setattr(constants, "factor_language", lambda *_: pairs)
    monkeypatch.setattr(constants, "WORK_BUDGET", 16)
    monkeypatch.setattr(Morphism, "apply", spy)
    with pytest.raises(BudgetExhausted, match="^image materialization exceeded the work budget$"):
        compute_R_sigma(sys_)
    assert built and max(built) <= 16


def test_r_bound_builds_length_rows_only_to_the_covering_power(monkeypatch):
    # case1_comb's stage is an 8-letter block: checking R = 18 against
    # 2|sigma^(2d^2)| in full would build 2 * 8^2 + 1 = 129 length rows, but
    # |sigma^4| = 16 already covers it, and the images R is read off need
    # only rows 0-6
    staged = _growing_stage(parse_system(get("case1_comb").text)).staged
    assert len(staged.alphabet) == 8
    asked = []
    lengths_after = IncidenceStructure.lengths_after

    def spy(self, k):
        asked.append(k)
        return lengths_after(self, k)

    monkeypatch.setattr(IncidenceStructure, "lengths_after", spy)
    assert compute_R_sigma(staged) == 18
    assert len(staged.incidence._lengths) == max(asked) + 1 <= 8


# -- structural bounds the constants must dominate ------------------------------------


def test_power_exponent_is_minimal():
    for name in ("fibonacci", "thue_morse"):
        staged = _staged(name)
        sh = compute_constant_sheet(staged)
        need = (sh.K + 1) ** 2
        assert sh.powered_min >= need
        below = staged.with_sigma_power(sh.power_exponent - 1)
        assert min(len(below.sigma.image(t)) for t in below.alphabet.tokens) < need


def test_powered_norms_match_actual_images():
    for name in ("fibonacci", "rudin_shapiro_coded"):
        staged = _staged(name)
        sh = compute_constant_sheet(staged)
        powered = staged.with_sigma_power(sh.power_exponent)
        lens = [len(powered.sigma.image(t)) for t in powered.alphabet.tokens]
        assert max(lens) == sh.powered_norm
        assert min(lens) == sh.powered_min


def test_return_word_lengths_sandwiched_by_K():
    # (1/K)|u| <= |v| <= K|u| for return words to prefixes
    for name in ("fibonacci", "thue_morse"):
        staged = _staged(name)
        K = compute_constant_sheet(staged).K
        from morphrec.stream import prefix

        y = prefix(staged, 16, which="y")
        for n in range(1, 9):
            t = return_words_to_word(staged, y[:n], budget=1 << 14)
            for v in t.words:
                assert n <= K * len(v)
                assert len(v) <= K * n


def test_complexity_dominated_by_K():
    # p_x(n) <= (K+1) n for small n
    for name in ("fibonacci", "thue_morse", "tribonacci"):
        staged = _staged(name)
        sh = compute_constant_sheet(staged)
        for n in range(1, 21):
            assert complexity(staged, n, which="x").count <= (sh.K + 1) * n


def test_factor_count_field_matches_complexity():
    staged = _staged("fibonacci")
    sh = compute_constant_sheet(staged)
    assert sh.p_factor_count == complexity(staged, sh.K + 1, which="y").count


def test_r_value_bound_for_two_letter_systems():
    # R <= 2 |sigma^(2 d^2)(a)| when d = 2
    for name in ("fibonacci", "thue_morse", "period_doubling"):
        staged = _staged(name)
        if len(staged.alphabet.tokens) != 2:
            continue
        sh = compute_constant_sheet(staged)
        powered = staged.with_sigma_power(8)
        longest = max(len(powered.sigma.image(t)) for t in staged.alphabet.tokens)
        assert sh.r_value <= 2 * longest


def test_preimage_counts_within_bound():
    # enumerate phi-preimage counts of short x-factors among y-factors
    for name in ("rudin_shapiro_coded", "paperfold_coded"):
        staged = _staged(name)
        sh = compute_constant_sheet(staged)
        phi = staged.effective_phi
        for n in (1, 4, 10):
            counts = {}
            for w in factor_language(staged, n, which="y"):
                img = phi.apply(w)
                counts[img] = counts.get(img, 0) + 1
            assert max(counts.values()) <= sh.preimage_bound


# -- the symbolic cap -----------------------------------------------------------------


def test_cap_expression_small_values():
    cap = CapExpression(3, 5)  # 243
    assert cap.describe() == "3^5"


def test_sheet_describe_roundtrip():
    sh = _sheet("fibonacci")
    base, exp = sh.cap.describe().split("^")
    assert int(base) == sh.K1
    assert int(exp) == sh.K1 * sh.K2 + 2
