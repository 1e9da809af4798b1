"""Exact constant sheets: recurrence constants, powers, caps, and the bounds
they are required to dominate."""

import math
from fractions import Fraction

import pytest

from morphrec.catalog import entries, get
from morphrec.constants import (
    CapExpression,
    compute_constant_sheet,
    compute_count_free_sheet,
    compute_R_sigma,
)
from morphrec.decider import _growing_stage, prepare
from morphrec.errors import MorphrecError, NotPrimitive
from morphrec.returns import return_words_to_word
from morphrec.stream import FixedPointStream, complexity, factor_language
from morphrec.system import parse_system


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
        raise AssertionError("the sheet streamed y")

    monkeypatch.setattr(FixedPointStream, "windows", refuse)
    monkeypatch.setattr(FixedPointStream, "chunks", refuse)
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


# -- the lazily evaluated cap ---------------------------------------------------------


def test_cap_expression_small_values():
    cap = CapExpression(3, 5)  # 243
    assert cap.describe() == "3^5"
    assert cap.greater_than(242)
    assert not cap.greater_than(243)
    assert cap.exceeded_by(243)
    assert not cap.exceeded_by(242)
    assert cap.greater_than(-1)


def test_cap_expression_degenerate_base():
    assert not CapExpression(1, 10**30).greater_than(1)
    assert CapExpression(1, 10**30).greater_than(0)


def test_cap_expression_huge_values_stay_cheap():
    sh = _sheet("fibonacci")
    # any counter a real run could reach is dwarfed by the cap
    assert sh.cap.greater_than(10**200)
    assert not sh.cap.exceeded_by(2**4096)


def test_sheet_describe_roundtrip():
    sh = _sheet("fibonacci")
    base, exp = sh.cap.describe().split("^")
    assert int(base) == sh.K1
    assert int(exp) == sh.K1 * sh.K2 + 2
