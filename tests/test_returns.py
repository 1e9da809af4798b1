"""Return words, return substitutions, the p/m/s split, induced descriptors,
and their defining equations."""

import pytest

from morphrec import returns
from morphrec.catalog import get
from morphrec.constants import compute_constant_sheet
from morphrec.decider import prepare
from morphrec.errors import (
    BudgetExhausted,
    NoOccurrence,
    NotPrimitive,
    PreconditionViolated,
    PrefixInvalid,
)
from morphrec.morphism import Morphism
from morphrec.returns import (
    DriverExit,
    build_sigma_U,
    delta_reconstruct,
    derived_step,
    pms_decompose,
    return_substitution,
    return_words_to_word,
)
from morphrec.stream import FixedPointStream
from morphrec.system import ProlongableSystem, parse_system
from morphrec.words import Alphabet, occurrences_in_word


def _descriptor(sys_, u):
    """Stage the system the way the decision pipeline would, then drive the
    token word u."""
    st = prepare(sys_)
    sheet = compute_constant_sheet(st.staged)
    powered = st.staged.with_sigma_power(sheet.power_exponent)
    d = build_sigma_U(powered, powered.alphabet.encode(u), sheet.K)
    assert not isinstance(d, DriverExit)
    return powered, sheet, d


TMC_TEXT = (
    "alphabet: 0 1\ntarget: c\nstart: 0\nsigma:\n0 -> 0 1\n1 -> 1 0\n"
    "phi:\n0 -> c\n1 -> c\n"
)


# -- return tables -------------------------------------------------------------------


def test_return_words_fibonacci(fib):
    t = return_words_to_word(fib, ["a"], budget=4096)
    assert t.words == (("a", "b"), ("a",))
    assert t.theta(1) == ("a", "b")
    assert t.derived_prefix[:8] == (1, 2, 1, 1, 2, 1, 2, 1)
    assert not t.complete  # plain scan never certifies closure


def test_return_words_thue_morse(tm):
    t = return_words_to_word(tm, ["0"], budget=4096)
    assert t.words == (("0", "1", "1"), ("0", "1"), ("0",))


def test_return_words_factorize_scanned_prefix(fib, tm):
    # concatenating the words along the derived prefix reproduces x
    for sys_, u in ((fib, ["a"]), (tm, ["0"])):
        t = return_words_to_word(sys_, u, budget=2048)
        flat = [tok for i in t.derived_prefix for tok in t.words[i - 1]]
        stream = FixedPointStream(sys_, "x")
        expect = sys_.target_alphabet.decode(stream.prefix_chars(len(flat)))
        assert flat == expect


def test_return_words_code_property(fib, tm):
    # unique factorization of the covered region over the return words
    for sys_, u in ((fib, ["a"]), (tm, ["0"])):
        t = return_words_to_word(sys_, u, budget=512)
        alpha = sys_.target_alphabet
        words = [alpha.encode(w) for w in t.words]
        region = alpha.encode(
            [tok for i in t.derived_prefix for tok in t.words[i - 1]]
        )
        counts = [0] * (len(region) + 1)
        counts[0] = 1
        for pos in range(1, len(region) + 1):
            for w in words:
                if pos >= len(w) and region[pos - len(w) : pos] == w:
                    counts[pos] += counts[pos - len(w)]
        assert counts[len(region)] == 1


def test_return_words_budget_exhausted(fib):
    u = ["a", "b", "a", "a", "b", "a", "b", "a", "a", "b", "a", "a", "b"]
    with pytest.raises(BudgetExhausted) as exc:
        return_words_to_word(fib, u, budget=14)
    assert exc.value.occurrences_found == 1


def test_return_words_budget_messages_for_zero_and_one_occurrence(fib):
    zero = r"^word recurred 0 time\(s\) within the first 2 letters$"
    with pytest.raises(BudgetExhausted, match=zero) as exc:
        return_words_to_word(fib, ["a", "b", "a"], budget=2)
    assert exc.value.occurrences_found == 0
    once = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    one = r"^word recurred 1 time\(s\) within the first 4096 letters$"
    with pytest.raises(BudgetExhausted, match=one) as exc:
        return_words_to_word(once, ["a"], budget=4096, which="y")
    assert exc.value.occurrences_found == 1


@pytest.mark.parametrize("budget", [0, -5])
def test_return_words_reject_a_budget_below_one(fib, budget):
    with pytest.raises(PreconditionViolated, match=f"^scan budget must be at least 1 letter, got {budget}$"):
        return_words_to_word(fib, ["a"], budget=budget)


def test_return_words_read_a_start_inside_the_last_segment():
    # y = aaab aaab aaab b ...: split cuts a a a at u = aa only at 0; the
    # second start, 1, lies inside the last segment
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a a a b\nb -> b\n")
    t = return_words_to_word(sys_, ["a", "a"], budget=3, which="y")
    assert t.words == (("a",),) and t.derived_prefix == (1,)
    t = return_words_to_word(sys_, ["a", "a"], budget=64, which="y")
    text = FixedPointStream(sys_, "y").prefix_chars(64)
    occ = occurrences_in_word(text, sys_.alphabet.encode(["a", "a"]))
    cuts = [text[a:b] for a, b in zip(occ, occ[1:])]
    assert [t.theta(i) for i in t.derived_prefix] == [tuple(sys_.alphabet.decode(w)) for w in cuts]


def test_return_words_require_prefix(fib):
    with pytest.raises(PrefixInvalid):
        return_words_to_word(fib, ["b"], budget=64)
    with pytest.raises(PrefixInvalid):
        return_words_to_word(fib, [], budget=64)


def test_return_table_index_range(fib):
    t = return_words_to_word(fib, ["a"], budget=256)
    with pytest.raises(IndexError):
        t.theta(0)
    with pytest.raises(IndexError):
        t.theta(len(t.words) + 1)


def test_concatenation_over_nested_prefixes(fib, tm):
    # every return word to a longer prefix v factorizes over return words to u
    for sys_, u, v in ((fib, ["a"], ["a", "b", "a"]), (tm, ["0"], ["0", "1", "1", "0"])):
        alpha = sys_.target_alphabet
        tu = return_words_to_word(sys_, u, budget=4096)
        tv = return_words_to_word(sys_, v, budget=8192)
        words_u = [alpha.encode(w) for w in tu.words]
        for w in tv.words:
            enc = alpha.encode(w)
            reach = [False] * (len(enc) + 1)
            reach[0] = True
            for pos in range(1, len(enc) + 1):
                for wu in words_u:
                    if pos >= len(wu) and reach[pos - len(wu)] and enc[pos - len(wu) : pos] == wu:
                        reach[pos] = True
                        break
            assert reach[len(enc)]


def test_composition_of_return_maps(fib):
    # returns of the derived sequence to its prefix, pushed through theta,
    # equal the returns of x to the longer prefix
    rs = return_substitution(fib, ["a"])
    derived_sys = ProlongableSystem(rs.sigma_u, "1")
    tv = return_words_to_word(derived_sys, ["1"], budget=2048, which="y")
    w = derived_step(fib, ["a"])
    tw = return_words_to_word(fib, w, budget=8192)
    assert len(tv.words) == len(tw.words)
    for j, dword in enumerate(tv.words, start=1):
        pushed = [tok for i in dword for tok in rs.table.words[int(i) - 1]]
        assert tuple(pushed) == tw.words[j - 1]


# -- return substitutions ------------------------------------------------------------


def test_return_substitution_fibonacci(fib):
    rs = return_substitution(fib, ["a"])
    assert rs.sigma_u.image_tokens("1") == ["1", "2"]
    assert rs.sigma_u.image_tokens("2") == ["1"]
    assert rs.table.complete


def test_return_substitution_defining_equation(fib, tm, trib):
    # Theta(sigma_u(i)) == sigma(Theta(i)) for every index letter
    for sys_, u in ((fib, ["a"]), (fib, ["a", "b"]), (tm, ["0"]), (trib, ["a"])):
        rs = return_substitution(sys_, u)
        alpha = sys_.alphabet
        for i in range(1, len(rs.table.words) + 1):
            lhs = []
            for j in rs.sigma_u.image_tokens(str(i)):
                lhs.extend(rs.table.words[int(j) - 1])
            rhs = alpha.decode(sys_.sigma.apply(alpha.encode(rs.table.words[i - 1])))
            assert lhs == rhs


def test_return_substitution_prolongable_on_one(fib, tm, trib):
    for sys_, u in ((fib, ["a"]), (tm, ["0"]), (trib, ["a", "b"])):
        rs = return_substitution(sys_, u)
        assert rs.sigma_u.image_tokens("1")[0] == "1"
        assert len(rs.sigma_u.image_tokens("1")) >= 2


def test_return_substitution_requires_primitive(nonur):
    with pytest.raises(NotPrimitive):
        return_substitution(nonur, ["0"])


def test_return_substitution_requires_prefix(fib):
    with pytest.raises(PrefixInvalid):
        return_substitution(fib, ["b", "a"])


def test_return_substitution_max_returns_below_the_table(monkeypatch):
    # rudin_shapiro has 8 return words to its first letter
    rs_sys = get("rudin_shapiro").build()
    monkeypatch.setattr(returns, "PAIR_BUDGET", 8)
    assert len(return_substitution(rs_sys, ["a"]).table) == 8
    monkeypatch.setattr(returns, "PAIR_BUDGET", 7)
    with pytest.raises(BudgetExhausted):
        return_substitution(rs_sys, ["a"])


def test_return_substitution_ignores_phi():
    # the word case reads y: the table is the same under any outer coding
    coded = get("rudin_shapiro_coded").build()
    target = Alphabet(("0", "1"))
    recodings = [
        coded.phi,
        None,
        Morphism.from_tokens(coded.alphabet, target, {"a": ["1"], "b": ["0"], "c": ["0"], "d": ["1"]}),
        Morphism.from_tokens(coded.alphabet, target, {t: ["0"] for t in coded.alphabet.tokens}),
    ]
    y = FixedPointStream(coded, "y").prefix(5)
    for n in range(1, 6):
        want = return_substitution(ProlongableSystem(coded.sigma, coded.start), y[:n])
        for phi in recodings:
            got = return_substitution(ProlongableSystem(coded.sigma, coded.start, phi), y[:n])
            assert got.table == want.table, (n, phi)
            assert got.sigma_u == want.sigma_u, (n, phi)


# -- p/m/s decomposition -------------------------------------------------------------


def test_pms_start_letter_case(fib):
    p, m, s = pms_decompose(fib, ["a"], ["a"])
    assert p == [] and m == ["a"] and s == ["b"]


def test_pms_fibonacci_ab(fib):
    p, m, s = pms_decompose(fib, ["a", "b"], ["a"])
    assert (p, m, s) == ([], ["a"], ["b", "a"])


def test_pms_concatenation_invariant(fib, tm):
    for sys_, w, u in (
        (fib, ["b", "a"], ["a"]),
        (tm, ["1", "0"], ["0"]),
        (tm, ["0", "1", "1"], ["0", "1"]),
    ):
        p, m, s = pms_decompose(sys_, w, u)
        alpha = sys_.alphabet
        assert alpha.encode(p) + alpha.encode(m) + alpha.encode(s) == sys_.sigma.apply(
            alpha.encode(w)
        )
        assert len(m) == len(u)


def test_pms_respects_preimage_set():
    # with a collapsing coding, m only needs to match u through phi
    tmc = parse_system(TMC_TEXT)
    p, m, s = pms_decompose(tmc, ["1"], ["0"])
    assert p == [] and m == ["1"] and s == ["0"]


def test_pms_no_occurrence():
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    with pytest.raises(NoOccurrence):
        pms_decompose(sys_, ["b"], ["a"])


def test_pms_minimality(fib, tm):
    # p(w)m(w) contains exactly one occurrence of the target set
    for sys_, w, u in ((fib, ["a", "b"], ["a"]), (tm, ["1"], ["0"])):
        p, m, s = pms_decompose(sys_, w, u)
        alpha = sys_.alphabet
        phi = sys_.effective_phi
        image = phi.apply(alpha.encode(p) + alpha.encode(m))
        target = phi.apply(alpha.encode(u))
        assert len(occurrences_in_word(image, target)) == 1


# -- induced substitution descriptors -------------------------------------------------


def test_build_sigma_u_fibonacci_identity_reduction(fib):
    powered, _, d = _descriptor(fib, ["a"])
    alpha = powered.alphabet
    assert [alpha.decode(w) for w, _ in d.pairs] == [["a", "b"], ["a"]]
    assert d.psi == (1, 2)
    assert len(d.sigma_u_images) == len(d.pairs)  # closed: every pair has an image
    rs = return_substitution(fib, ["a"])
    assert rs.table.words == tuple(tuple(alpha.decode(w)) for w, _ in d.pairs)


def test_build_sigma_u_collapsing_coding():
    tmc = parse_system(TMC_TEXT)
    powered, _, d = _descriptor(tmc, ["0"])
    assert len(d.pairs) <= 4
    assert all(len(w) == 1 for w, _ in d.pairs)  # every position starts a U word
    assert [powered.target_alphabet.decode(w) for w in d.x_returns] == [["c"]]
    assert all(k == 1 for k in d.psi)


def test_build_sigma_u_prolongable_on_one(fib, tm):
    for sys_ in (fib, tm):
        _, _, d = _descriptor(sys_, [sys_.start])
        assert d.sigma_u_images[0][0] == 1


def test_build_sigma_u_driver_exit_on_nonrecurrent_prefix():
    sys_ = parse_system("alphabet: a b c\nstart: a\nsigma:\na -> a b\nb -> c c\nc -> b b\n")
    st = prepare(sys_)
    sheet = compute_constant_sheet(st.staged)
    powered = st.staged.with_sigma_power(sheet.power_exponent)
    res = build_sigma_U(powered, powered.alphabet.encode(["a"]), sheet.K)
    assert isinstance(res, DriverExit)
    assert res.kind == "E1"
    assert res.unconditional


def test_e1_window_past_scan_letters_raises():
    # y = a b b b ...: a never recurs, so a window of K + 1 letters is an E1
    # while it fits in SCAN_LETTERS, and past them the scan stops unread
    sys_ = parse_system("alphabet: a b\nstart: a\nsigma:\na -> a b\nb -> b\n")
    u = sys_.alphabet.encode(["a"])
    with pytest.raises(BudgetExhausted):
        build_sigma_U(sys_, u, returns.SCAN_LETTERS)
    res = build_sigma_U(sys_, u, 1000)
    assert isinstance(res, DriverExit) and res.kind == "E1"
    assert res.message == "prefix of length 1 does not recur in the first 1001 letters"


def test_sigma_u_defining_equation(fib, tm):
    # sigma(w_i) p(u'_i) = w_{j1} ... w_{jk} and the following word of the
    # last pair is m(u'_i); intermediate following words match the text
    for sys_, u in ((fib, ["a"]), (tm, ["0"])):
        powered, _, d = _descriptor(sys_, u)
        alpha = powered.alphabet
        for i, (w, up) in enumerate(d.pairs, start=1):
            p, m, s = pms_decompose(powered, alpha.decode(up), u)
            lhs = powered.sigma.apply(w) + alpha.encode(p)
            img = d.sigma_u_images[i - 1]
            rhs = "".join(d.pairs[j - 1][0] for j in img)
            assert lhs == rhs
            assert alpha.decode(d.pairs[img[-1] - 1][1]) == m
            # each intermediate following word is the text right after its w
            tail = rhs + alpha.encode(m)
            pos = 0
            for j in img:
                pos += len(d.pairs[j - 1][0])
                upj = d.pairs[j - 1][1]
                assert tail[pos : pos + len(upj)] == upj


def _direct_pair_sequence(powered, u, count):
    """Scan y and factor it into (return word, following U word) pairs, as
    internal strings."""
    phi = powered.effective_phi
    alpha = powered.alphabet
    enc_u = alpha.encode(u)
    target = phi.apply(enc_u)
    # generous scan: enough to cover `count` return words
    limit = 64
    while True:
        text = FixedPointStream(powered, "y").prefix_chars(limit)
        pos = occurrences_in_word(phi.apply(text), target)
        pos = [p for p in pos if p + len(enc_u) <= len(text)]
        if len(pos) > count + 1:
            break
        limit *= 4
    pairs = []
    for a, b in zip(pos, pos[1:]):
        pairs.append((text[a:b], text[b : b + len(enc_u)]))
    return pairs[:count]


def test_descriptor_matches_direct_scan(fib, tm):
    # fixed point of sigma_U equals the directly scanned pair sequence
    for sys_, u in ((fib, ["a"]), (tm, ["0"])):
        powered, _, d = _descriptor(sys_, u)
        direct = _direct_pair_sequence(powered, u, 40)
        index_of = {pair: i for i, pair in enumerate(d.pairs, start=1)}
        direct_indices = [index_of[p] for p in direct]
        fp = ProlongableSystem(d.sigma_U, "1")
        expect = [int(t) for t in FixedPointStream(fp, "y").prefix(40)]
        assert direct_indices == expect


def test_descriptor_reconstructs_x_prefix(fib, tm):
    # phi of the reconstructed y-prefix equals the x-prefix, scanned afresh
    tmc = parse_system(TMC_TEXT)
    for sys_, u in ((fib, ["a"]), (tm, ["0"]), (tmc, ["0"])):
        powered, _, d = _descriptor(sys_, u)
        y_prefix = delta_reconstruct(d, 1000)
        got = powered.effective_phi.apply(y_prefix)
        want = FixedPointStream(powered, "x").prefix_chars(len(got))
        assert got == want


def test_descriptor_psi_projects_to_x_returns(fib):
    # psi maps the U-pair sequence onto the return-index sequence of x to v
    tmc = parse_system(TMC_TEXT)
    for sys_, u in ((fib, ["a"]), (tmc, ["0"])):
        powered, _, d = _descriptor(sys_, u)
        direct = _direct_pair_sequence(powered, u, 30)
        index_of = {pair: i for i, pair in enumerate(d.pairs, start=1)}
        through_psi = [d.psi[index_of[p] - 1] for p in direct]
        phi = powered.effective_phi
        v = powered.target_alphabet.decode(phi.apply(powered.alphabet.encode(u)))
        tx = return_words_to_word(powered, v, budget=1 << 14, which="x")
        n = min(len(through_psi), len(tx.derived_prefix))
        assert through_psi[:n] == list(tx.derived_prefix[:n])
        for i, w in enumerate(d.x_returns, start=1):
            assert tx.words[i - 1] == tuple(powered.target_alphabet.decode(w))


def test_delta_reconstruct_edges(fib):
    powered, _, d = _descriptor(fib, ["a"])
    assert delta_reconstruct(d, 0) == ""
    assert delta_reconstruct(d, 1) == d.pairs[0][0]
    assert powered.alphabet.decode(delta_reconstruct(d, 4)) == list("abaabab")


def test_descriptor_canonical_text_deterministic(fib):
    _, _, d1 = _descriptor(fib, ["a"])
    _, _, d2 = _descriptor(fib, ["a"])
    assert d1.canonical_text() == d2.canonical_text()
    assert d1.canonical_text().startswith("pairs: 2\n")


# -- the prefix chain ----------------------------------------------------------------


def test_derived_step_fibonacci(fib):
    assert derived_step(fib, ["a"]) == list("aba")


def test_derived_step_thue_morse(tm):
    assert derived_step(tm, ["0"]) == list("0110")


def test_derived_step_length_additivity(fib, tm, trib):
    for sys_ in (fib, tm, trib):
        u = [sys_.start]
        for _ in range(4):
            t = return_words_to_word(sys_, u, budget=1 << 14)
            nxt = derived_step(sys_, u)
            assert len(nxt) == len(t.words[0]) + len(u)
            assert nxt[len(t.words[0]) :] == u
            u = nxt
