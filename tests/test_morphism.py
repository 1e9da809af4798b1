"""Morphism algebra, the system file format, restriction and normalization."""

import json
import random

import pytest

from morphrec import system as system_module
from morphrec.catalog import entries
from morphrec.cli import main as cli_main
from morphrec.decider import decide_uniform_recurrence
from morphrec.errors import (
    AlphabetMismatch,
    MorphrecError,
    NormalizationUnsupported,
    ParseError,
    PreconditionViolated,
)
from morphrec.growth import IncidenceStructure
from morphrec.morphism import Morphism, classify, compose, power
from morphrec.stream import FixedPointStream
from morphrec.system import (
    ProlongableSystem,
    normalize_to_coding,
    parse_system,
    restrict_to_reachable,
    system_to_text,
)
from morphrec.words import Alphabet


def _m(tokens, table, dst=None):
    src = Alphabet(tuple(tokens))
    return Morphism.from_tokens(src, Alphabet(tuple(dst)) if dst else src, table)


def _table(m: Morphism) -> dict[str, list[str]]:
    return {t: m.image_tokens(t) for t in m.src.tokens}


FIB = _m("ab", {"a": ["a", "b"], "b": ["a"]})


def img(m, tok):
    return "".join(m.image_tokens(tok))


# -- composition and powers --------------------------------------------------------


def test_compose_identity_is_neutral():
    ident = Morphism.identity(FIB.src)
    assert compose(ident, FIB) == FIB
    assert compose(FIB, ident) == FIB


def test_compose_fibonacci_square():
    sq = compose(FIB, FIB)
    assert img(sq, "a") == "aba"
    assert img(sq, "b") == "ab"


def test_compose_erasing_flag_propagates():
    g = _m("ab", {"a": [], "b": ["a", "b"]})
    f = _m("ab", {"a": ["a"], "b": ["b"]})
    assert compose(f, g).is_erasing


def test_compose_alphabet_mismatch():
    f = _m("xy", {"x": ["x"], "y": ["y"]})
    with pytest.raises(AlphabetMismatch):
        compose(f, FIB)


def test_power_one_is_identity_operation():
    assert power(FIB, 1) == FIB


def test_power_fibonacci_cubed():
    p = power(FIB, 3)
    assert img(p, "a") == "abaab"
    assert img(p, "b") == "aba"


def test_power_block_square():
    s = _m("01", {"0": ["0", "0", "1"], "1": ["1"]})
    p = power(s, 2)
    assert img(p, "0") == "0010011"
    assert img(p, "1") == "1"


def test_power_rejects_zero():
    with pytest.raises(MorphrecError):
        power(FIB, 0)


# -- classification ----------------------------------------------------------------


def test_classify_fibonacci():
    flags = classify(FIB)
    assert flags.non_erasing
    assert not flags.coding
    assert flags.endomorphism
    assert flags.prolongable_on == {"a"}


def test_classify_coding():
    phi = _m("ab", {"a": ["0"], "b": ["1"]}, dst="01")
    flags = classify(phi)
    assert flags.coding and flags.non_erasing and not flags.endomorphism


def test_classify_erasing():
    s = _m("ab", {"a": [], "b": ["a", "b"]})
    flags = classify(s)
    assert not flags.non_erasing
    assert flags.prolongable_on == frozenset()


# -- file format -------------------------------------------------------------------


def test_parse_minimal_system():
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> a\n")
    assert sys_.alphabet.tokens == ("a", "b")
    assert sys_.start == "a"
    assert sys_.phi is None


def test_parse_with_phi_and_comments():
    text = """
    # morphic presentation
    alphabet: a b
    target: 0 1
    start: a
    sigma:
    a -> a b   # image of a
    b -> a
    phi:
    a -> 0 1
    b -> 0
    """
    sys_ = parse_system(text)
    assert sys_.phi is not None
    assert sys_.target_alphabet.tokens == ("0", "1")
    assert sys_.phi.image_tokens("a") == ["0", "1"]


def test_parse_epsilon_image():
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> ε\n")
    assert sys_.sigma.image_tokens("b") == []


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> z\n")
    assert exc.value.line == 5


def test_parse_target_without_phi_rejected():
    with pytest.raises(ParseError):
        parse_system("alphabet: a\ntarget: 0\nstart: a\nsigma:\na -> a a\n")


def test_roundtrip_through_text(fib, tm):
    for sys_ in (fib, tm):
        again = parse_system(system_to_text(sys_))
        assert again.alphabet.tokens == sys_.alphabet.tokens
        assert again.sigma == sys_.sigma
        assert again.phi == sys_.phi


# -- restriction -------------------------------------------------------------------


def test_restrict_drops_unreachable():
    sys_ = parse_system(
        "alphabet: a b c\nstart: a\nsigma:\na -> a b\nb -> a\nc -> c c\n"
    )
    r = restrict_to_reachable(sys_)
    assert r.alphabet.tokens == ("a", "b")


def test_restrict_keeps_transitively_reachable():
    sys_ = parse_system(
        "alphabet: a b c\nstart: a\nsigma:\na -> a b\nb -> b c\nc -> c\n"
    )
    r = restrict_to_reachable(sys_)
    assert r.alphabet.tokens == ("a", "b", "c")


def test_restrict_idempotent(fib):
    once = restrict_to_reachable(fib)
    assert restrict_to_reachable(once) is once or restrict_to_reachable(
        once
    ).alphabet.tokens == once.alphabet.tokens


def _token_restriction(sys_):
    """The restriction as it was built before it moved to str.translate:
    the reach set of the full incidence analysis, then sigma and phi
    decoded into tokens and rebuilt over the kept letters, the target
    filtered in its order."""
    keep = IncidenceStructure.of_morphism(sys_.sigma).reachable_letters(sys_.start)
    if len(keep) == len(sys_.alphabet):
        return sys_
    sub = Alphabet(tuple(keep))
    sigma = Morphism.from_tokens(sub, sub, {t: sys_.sigma.image_tokens(t) for t in keep})
    phi = None
    if sys_.phi is not None:
        seen = {t for tok in keep for t in sys_.phi.image_tokens(tok)}
        target = Alphabet(tuple(t for t in sys_.phi.dst.tokens if t in seen))
        table = {t: sys_.phi.image_tokens(t) for t in keep}
        phi = Morphism.from_tokens(sub, target, table)
    return ProlongableSystem(sigma, sys_.start, phi)


def test_restriction_matches_the_token_restriction():
    rng = random.Random(20261020)
    texts = [e.text for e in entries()]
    for _ in range(400):
        letters = "abcdef"[: rng.randint(1, 6)]
        lines = [f"alphabet: {' '.join(letters)}", "start: a", "target: 0 1 2", "sigma:"]
        lines.append("a -> a " + " ".join(rng.choice(letters) for _ in range(rng.randint(0, 2))))
        lines += [
            f"{c} -> " + " ".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            for c in letters[1:]
        ]
        lines.append("phi:")
        lines += [
            f"{c} -> " + " ".join(rng.choice("012") for _ in range(rng.randint(1, 2)))
            for c in letters
        ]
        texts.append("\n".join(lines) + "\n")
    dropped = 0
    for text in texts:
        sys_ = parse_system(text)
        want = _token_restriction(sys_)
        got = restrict_to_reachable(sys_)
        assert got == want, text
        assert (got is sys_) == (want is sys_), text
        assert restrict_to_reachable(sys_) is got
        assert restrict_to_reachable(got) is got
        dropped += got is not sys_
    assert dropped >= 100, dropped


def test_restricted_to_keeps_a_closed_set_and_refuses_an_open_one():
    sigma = _m("abcd", {"a": ["a", "c"], "b": ["b"], "c": ["c", "a", "c"], "d": ["b", "a"]})
    sub = sigma.restricted_to(["c", "a"])
    assert sub.src.tokens == sub.dst.tokens == ("c", "a")
    assert _table(sub) == {"c": ["c", "a", "c"], "a": ["a", "c"]}
    # d -> b a leaves {a, c, d}, and b's internal character is the one that
    # c gets over the kept letters, so no alphabet check would catch it
    with pytest.raises(AlphabetMismatch):
        sigma.restricted_to(["a", "c", "d"])
    with pytest.raises(AlphabetMismatch):
        sigma.restricted_to(["d"])
    assert sigma.restricted_to(["a", "b", "c", "d"]) is sigma
    assert sigma.restricted_to(["b", "a", "c", "d"]).src.tokens == ("b", "a", "c", "d")


def test_restricted_to_keeps_the_target_of_a_non_endomorphism():
    phi = _m("abc", {"a": ["0", "1"], "b": ["1"], "c": ["1", "1"]}, dst="01")
    sub = phi.restricted_to(["c", "a"])
    assert sub.src.tokens == ("c", "a") and sub.dst is phi.dst
    assert _table(sub) == {"c": ["1", "1"], "a": ["0", "1"]}
    assert phi.restricted_to(["a", "b", "c"]) is phi


# systems whose phi erases every letter that the start reaches, each with
# its twin that also has a letter z, unreachable and not erased by phi
ERASING_TWINS = [
    (
        "alphabet: a b{z}\nstart: a\ntarget: 0\nsigma:\na -> a b\nb -> b a\n{sz}"
        "phi:\na -> ε\nb -> ε\n{pz}",
        "phi has an empty image",
    ),
    (  # sigma erases too, and normalization names sigma first
        "alphabet: a b{z}\nstart: a\ntarget: 0\nsigma:\na -> a b\nb -> ε\n{sz}"
        "phi:\na -> ε\nb -> ε\n{pz}",
        "sigma has an empty image",
    ),
]


@pytest.mark.parametrize("template,message", ERASING_TWINS, ids=["phi", "sigma_and_phi"])
def test_an_erasing_phi_is_rejected_alike_with_or_without_a_dropped_letter(
    template, message, tmp_path, capsys
):
    for name, z in (("without_z", ("", "", "")), ("with_z", (" z", "z -> z\n", "z -> 0\n"))):
        text = template.format(z=z[0], sz=z[1], pz=z[2])
        with pytest.raises(NormalizationUnsupported) as err:
            decide_uniform_recurrence(parse_system(text))
        assert str(err.value).startswith(message), (name, err.value)
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        assert cli_main(["decide-ur", "--json", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == str(err.value)


def test_an_onto_coding_passes_normalization_untouched(monkeypatch):
    sys_ = parse_system(
        "alphabet: a b c\nstart: a\ntarget: 0 1\nsigma:\na -> a b\nb -> c\nc -> a\n"
        "phi:\na -> 0\nb -> 1\nc -> 0\n"
    )
    monkeypatch.setattr(system_module, "Alphabet", None)
    monkeypatch.setattr(system_module, "Morphism", None)
    assert normalize_to_coding(sys_) is sys_


# -- normalization -----------------------------------------------------------------


def test_normalize_identity_when_coded(fib):
    assert normalize_to_coding(fib) is fib


def test_normalize_blowup_example():
    sys_ = parse_system(
        "alphabet: a b\ntarget: 0 1\nstart: a\nsigma:\na -> a b\nb -> a\n"
        "phi:\na -> 0 1\nb -> 0\n"
    )
    norm = normalize_to_coding(sys_)
    assert norm.alphabet.tokens == ("a_0", "a_1", "b_0")
    assert norm.phi is not None and norm.phi.is_coding
    assert norm.phi.image_tokens("a_0") == ["0"]
    assert norm.phi.image_tokens("a_1") == ["1"]
    assert norm.phi.image_tokens("b_0") == ["0"]
    want = FixedPointStream(sys_, "x").prefix_chars(20)
    got = FixedPointStream(norm, "x").prefix_chars(20)
    assert norm.target_alphabet.decode(got) == sys_.target_alphabet.decode(want)


@pytest.mark.parametrize("name_suffix,phi_b", [("fib2", ["1", "0", "0"]), ("fib1", ["0"])])
def test_normalize_preserves_long_prefixes(name_suffix, phi_b):
    b_img = " ".join(phi_b)
    sys_ = parse_system(
        "alphabet: a b\ntarget: 0 1\nstart: a\nsigma:\na -> a b\nb -> a\n"
        f"phi:\na -> 0 1\nb -> {b_img}\n"
    )
    norm = normalize_to_coding(sys_)
    n = 10**4
    want = sys_.target_alphabet.decode(FixedPointStream(sys_, "x").prefix_chars(n))
    got = norm.target_alphabet.decode(FixedPointStream(norm, "x").prefix_chars(n))
    assert got == want


def test_normalize_output_is_growing_for_blowups():
    # downstream never re-enters the blow-up when every blown letter expands
    sys_ = parse_system(
        "alphabet: a b\ntarget: 0 1\nstart: a\nsigma:\na -> a b\nb -> a\n"
        "phi:\na -> 0 1\nb -> 1 0 0\n"
    )
    norm = normalize_to_coding(sys_)
    assert norm.incidence.all_growing()


def test_normalize_rejects_erasing_sigma():
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> ε\n")
    with pytest.raises(NormalizationUnsupported):
        normalize_to_coding(sys_)


def test_normalize_rejects_erasing_phi():
    sys_ = parse_system(
        "alphabet: a b\ntarget: 0\nstart: a\nsigma:\na -> a b\nb -> a\n"
        "phi:\na -> 0\nb -> ε\n"
    )
    with pytest.raises(NormalizationUnsupported):
        normalize_to_coding(sys_)


def test_normalize_blowup_search_stops_at_its_image_size(monkeypatch):
    # b's image stays c, one letter short of |phi(b)| = 3 at every power,
    # while a's and d's grow: no power splits, and the search must end at
    # its image-size stop, not compose on to sigma^20
    real = system_module.compose

    def bounded(f, g):
        out = real(f, g)
        assert out.max_image_len <= 1 << 20, "power search composed past its size stop"
        return out

    monkeypatch.setattr(system_module, "compose", bounded)
    sys_ = parse_system(
        "alphabet: a b c d\ntarget: 0 1\nstart: a\n"
        "sigma:\na -> a a a d\nb -> c\nc -> c\nd -> d d a b\n"
        "phi:\na -> 1 0\nb -> 1 0 0\nc -> 1\nd -> 0\n"
    )
    with pytest.raises(NormalizationUnsupported, match="has an image over 65536 letters"):
        normalize_to_coding(sys_)
    with pytest.raises(NormalizationUnsupported):
        decide_uniform_recurrence(sys_)


def test_normalize_shrinks_coding_target():
    sys_ = parse_system(
        "alphabet: a b\ntarget: 0 1 2\nstart: a\nsigma:\na -> a b\nb -> a\n"
        "phi:\na -> 0\nb -> 1\n"
    )
    norm = normalize_to_coding(sys_)
    assert norm.target_alphabet.tokens == ("0", "1")
    assert norm.phi.is_coding


# -- system validation -------------------------------------------------------------


def test_prolongability_enforced():
    sys_ = parse_system("alphabet: a b\nstart: b\nsigma:\na -> a b\nb -> a\n")
    assert not sys_.is_prolongable()
    with pytest.raises(PreconditionViolated):
        sys_.require_prolongable()


def test_with_sigma_power_same_fixed_point(fib):
    powered = fib.with_sigma_power(3)
    n = 500
    assert (
        FixedPointStream(powered, "y").prefix_chars(n)
        == FixedPointStream(fib, "y").prefix_chars(n)
    )
