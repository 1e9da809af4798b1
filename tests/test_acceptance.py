"""Acceptance suite: one test per shipped guarantee, each printing a single
summary line.  Equality checks are exact (zero tolerance); runtime limits are
wall-clock seconds and stated in each docstring."""

import json
import random
import time
from fractions import Fraction

import pytest

from morphrec.catalog import PRIMITIVE_CORPUS, entries, get
from morphrec.constants import compute_R_sigma, compute_constant_sheet
from morphrec.decider import (
    NOT_UNIFORMLY_RECURRENT,
    UNIFORMLY_RECURRENT,
    Certificate,
    Verdict,
    decide_uniform_recurrence,
    derive_chain,
    prepare,
    verify_certificate,
)
from morphrec.growth import (
    IncidenceStructure,
    PerronValue,
    growth_type,
    horn_exponent,
    is_primitive,
    mat_pow,
    pq_constants,
)
from morphrec.morphism import Morphism
from morphrec.oracle import brute_force_return_words, window_ur_check
from morphrec.returns import (
    pms_decompose,
    return_substitution,
    return_words_to_word,
)
from morphrec.stream import FixedPointStream, complexity, factor_language, max_gap, prefix
from morphrec.system import ProlongableSystem, parse_system
from morphrec.words import Alphabet, occurrences_in_word

from test_decider import chain_verdict
from test_growth import _colsums, _positive
from test_perron_golden import _cmp_rational


def load(name):
    return parse_system(get(name).text)


def report(line):
    print(line)


# -- 1: the non-recurrent block example ------------------------------------------------


def test_01_block_example_not_recurrent_with_scan_witness():
    """sigma: 0 -> 001, 1 -> 1 (identity coding) is not uniformly recurrent;
    the witness is re-verified by a 10^4-letter scan.  Runtime < 5 s."""
    t0 = time.monotonic()
    sys_ = load("nonur_block")
    v = decide_uniform_recurrence(sys_)
    assert v.outcome == NOT_UNIFORMLY_RECURRENT
    ok, detail = verify_certificate(sys_, v)
    assert ok, detail

    # independent scan: gaps of the factor "0" outgrow any slope-5 envelope
    r = window_ur_check(sys_, factor_len_max=1, prefix_len=10_000, linear_bound=5)
    assert r.conclusive and not r.ur_consistent
    assert r.violations[0].factor == ("0",)
    assert r.violations[0].gap > 5

    # and they keep growing with the scanned prefix
    gaps = [max_gap(sys_, ["0"], limit=n).gap for n in (100, 1_000, 10_000)]
    assert gaps[0] < gaps[1] < gaps[2]

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(f"PASS 1: block example not uniformly recurrent, scan-verified ({elapsed:.2f}s < 5s)")


# -- 2: the primitive corpus ------------------------------------------------------------


def test_02_primitive_corpus_repetition_certificates():
    """>= 15 primitive systems all decide uniformly recurrent with a verified
    `primitive` certificate, and the paper's chain, the low pass on sigma^p,
    gives each a verified repetition certificate at levels 1 <= n < m <= 64.
    Each run < 60 s."""
    assert len(PRIMITIVE_CORPUS) >= 15
    worst = 0.0
    for name in PRIMITIVE_CORPUS:
        sys_ = load(name)
        t0 = time.monotonic()
        v = decide_uniform_recurrence(sys_)
        chain = chain_verdict(sys_)
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s"
        assert v.outcome == UNIFORMLY_RECURRENT, name
        assert v.certificate.kind == "primitive", name
        ok, detail = verify_certificate(sys_, v)
        assert ok, (name, detail)
        assert chain.certificate.kind == "repetition", name
        n, m = chain.certificate.data["n"], chain.certificate.data["m"]
        assert 1 <= n < m <= 64, name
        ok, detail = verify_certificate(sys_, chain)
        assert ok, (name, detail)
    report(
        f"PASS 2: {len(PRIMITIVE_CORPUS)} primitive systems certified recurrent, "
        f"primitive and by the chain (worst run {worst:.2f}s < 60s)"
    )


# -- 3: the non-growing branch -----------------------------------------------------------


def test_03_nongrowing_branch_coding_vs_identity():
    """sigma: a -> ab, b -> b decides uniformly recurrent under a constant
    coding (periodicity checklist) and not uniformly recurrent under the
    identity (the letter a never recurs).  Both runs < 5 s."""
    t0 = time.monotonic()
    const = load("tail_fin_const")
    v1 = decide_uniform_recurrence(const)
    assert v1.outcome == UNIFORMLY_RECURRENT
    assert v1.certificate.kind == "periodic"
    cl = v1.certificate.data["checklist"]
    assert cl["condition1"]["holds"] and cl["condition2"]["holds"] and cl["condition3"]["holds"]
    ok, detail = verify_certificate(const, v1)
    assert ok, detail

    ident = load("tail_fin")
    v2 = decide_uniform_recurrence(ident)
    assert v2.outcome == NOT_UNIFORMLY_RECURRENT
    assert v2.certificate.data["letter"] == "a"
    ok, detail = verify_certificate(ident, v2)
    assert ok, detail

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0  # 5 s per run
    report(f"PASS 3: non-growing branch split by coding ({elapsed:.2f}s < 2x5s)")


# -- 4: defining equations ---------------------------------------------------------------


def _staged_descriptor(sys_, u):
    st = prepare(sys_)
    sheet = compute_constant_sheet(st.staged)
    powered = st.staged.with_sigma_power(sheet.power_exponent)
    from morphrec.returns import build_sigma_U

    d = build_sigma_U(powered, powered.alphabet.encode(u), sheet.K)
    return powered, d


def _direct_pair_sequence(powered, enc_u, count):
    phi = powered.effective_phi
    target = phi.apply(enc_u)
    limit = 256
    while True:
        text = FixedPointStream(powered, "y").prefix_chars(limit)
        pos = [
            p
            for p in occurrences_in_word(phi.apply(text), target)
            if p + len(enc_u) <= len(text)
        ]
        if len(pos) > count + 1:
            break
        limit *= 4
    out = []
    for a, b in zip(pos, pos[1:]):
        out.append((text[a:b], text[b : b + len(enc_u)]))
    return out[:count]


def test_04_defining_equations_and_reconstruction():
    """Every constructed descriptor satisfies its defining equations letter by
    letter, and 10^3-letter reconstructions match direct scans exactly."""
    # return substitutions: Theta(sigma_u(i)) = sigma(Theta(i))
    for name, u in (
        ("fibonacci", ["a"]),
        ("fibonacci", ["a", "b", "a"]),
        ("thue_morse", ["0"]),
        ("tribonacci", ["a"]),
        ("pell", None),
    ):
        sys_ = load(name)
        if u is None:
            u = [sys_.start]
        rs = return_substitution(sys_, u)
        alpha = sys_.alphabet
        for i in range(1, len(rs.table.words) + 1):
            lhs = []
            for j in rs.sigma_u.image_tokens(str(i)):
                lhs.extend(rs.table.words[int(j) - 1])
            rhs = alpha.decode(sys_.sigma.apply(alpha.encode(rs.table.words[i - 1])))
            assert lhs == rhs

    tmc = parse_system(
        "alphabet: 0 1\ntarget: c\nstart: 0\nsigma:\n0 -> 0 1\n1 -> 1 0\nphi:\n0 -> c\n1 -> c\n"
    )
    cases = [
        (load("fibonacci"), ["a"]),
        (load("thue_morse"), ["0"]),
        (tmc, ["0"]),
        (load("rudin_shapiro_coded"), None),
    ]
    checked = 0
    for sys_, u in cases:
        st = prepare(sys_)
        if u is None:
            u = [st.staged.start]
        powered, d = _staged_descriptor(sys_, u)
        alpha = powered.alphabet
        enc_u = alpha.encode(u)

        # induced substitution: sigma(w_i) p(u'_i) factors over the table and
        # the trailing middle word matches the last pair
        for i, (w, up) in enumerate(d.pairs, start=1):
            p, m, s = pms_decompose(powered, alpha.decode(up), u)
            lhs = powered.sigma.apply(w) + alpha.encode(p)
            img = d.sigma_u_images[i - 1]
            rhs = "".join(d.pairs[j - 1][0] for j in img)
            assert lhs == rhs
            assert alpha.decode(d.pairs[img[-1] - 1][1]) == m
            tail = rhs + alpha.encode(m)
            pos = 0
            for j in img:
                pos += len(d.pairs[j - 1][0])
                upj = d.pairs[j - 1][1]
                assert tail[pos : pos + len(upj)] == upj

        # the fixed point of sigma_U reproduces the scanned pair sequence
        direct = _direct_pair_sequence(powered, enc_u, 1000)
        index_of = {pair: i for i, pair in enumerate(d.pairs, start=1)}
        fp = ProlongableSystem(d.sigma_U, "1")
        expect = [int(t) for t in FixedPointStream(fp, "y").prefix(len(direct))]
        assert [index_of[p] for p in direct] == expect

        # reconstruction reaches the x prefix through the coding
        from morphrec.returns import delta_reconstruct

        y_prefix = delta_reconstruct(d, 1000)
        got = powered.effective_phi.apply(y_prefix)
        assert got == FixedPointStream(powered, "x").prefix_chars(len(got))

        # psi projects the pair sequence onto the return indices of x
        phi = powered.effective_phi
        v = powered.target_alphabet.decode(phi.apply(enc_u))
        tx = return_words_to_word(powered, v, budget=1 << 15, which="x")
        through_psi = [d.psi[index_of[p] - 1] for p in direct]
        ncmp = min(len(through_psi), len(tx.derived_prefix))
        assert through_psi[:ncmp] == list(tx.derived_prefix[:ncmp])
        checked += 1

    report(f"PASS 4: defining equations exact on {checked} descriptors, 10^3-letter reconstructions")


# -- 5: oracle equivalence ---------------------------------------------------------------


def test_05_return_tables_equal_brute_force():
    """Return-word tables equal ordered brute-force lists for every prefix u
    with |u| <= 8, scanning 10^5 letters, across the primitive corpus."""
    mismatches = 0
    checked = 0
    for name in PRIMITIVE_CORPUS:
        sys_ = load(name)
        x9 = prefix(sys_, 8, which="x")
        for n in range(1, len(x9) + 1):
            u = x9[:n]
            t = return_words_to_word(sys_, u, budget=100_000, which="x")
            bf = brute_force_return_words(sys_, u, prefix_len=100_000)
            checked += 1
            if tuple(bf) != t.words:
                mismatches += 1
    assert mismatches == 0
    report(f"PASS 5: {checked} return tables equal brute force, 0 mismatches")


# -- 6: certified bounds -----------------------------------------------------------------


BOUND_SYSTEMS = (
    "fibonacci",
    "thue_morse",
    "tribonacci",
    "rand4",
    "rudin_shapiro_coded",
    "period_doubling",
    "pell",
    "silver",
)


def test_06_certified_bounds_hold_exactly():
    """On recurrence-certified systems: #R <= 4K^3 and |u|/K <= |v| <= K|u| for
    |u| <= 12; p_x(n) <= (K+1)n for n <= 20; table sizes <= K1 and image
    lengths <= K2; R <= 2|sigma^8| on 2-letter systems; preimage counts within
    bound for |u| <= 10.  All comparisons are exact integers."""
    for name in BOUND_SYSTEMS:
        sys_ = load(name)
        st = prepare(sys_)
        staged = st.staged
        sheet = compute_constant_sheet(staged)
        K = sheet.K

        x13 = prefix(staged, 12, which="x")
        for n in range(1, len(x13) + 1):
            u = x13[:n]
            t = return_words_to_word(staged, u, budget=1 << 17, which="x")
            assert len(t.words) <= 4 * K**3, name
            for v in t.words:
                assert n <= K * len(v), (name, n, v)
                assert len(v) <= K * n, (name, n, v)

        if staged.phi is None:
            # complete tables give the exact count
            rs = return_substitution(staged, [staged.start])
            assert rs.table.complete
            assert len(rs.table.words) <= 4 * K**3

        for n in range(1, 21):
            assert complexity(staged, n, which="x").count <= (K + 1) * n, name

        dc = derive_chain(sys_, 2)
        for d in dc.levels.values():
            assert len(d.pairs) <= dc.sheet.K1
            assert all(len(img) <= dc.sheet.K2 for img in d.sigma_u_images)

        if len(staged.alphabet.tokens) == 2:
            powered8 = staged.with_sigma_power(8)
            longest = max(len(powered8.sigma.image(t_)) for t_ in staged.alphabet.tokens)
            assert compute_R_sigma(staged) <= 2 * longest, name

        if staged.phi is not None:
            for n in (1, 4, 10):
                counts = {}
                for w in factor_language(staged, n, which="y"):
                    img = staged.effective_phi.apply(w)
                    counts[img] = counts.get(img, 0) + 1
                assert max(counts.values()) <= sheet.preimage_bound, name

    report(f"PASS 6: bound suite exact on {len(BOUND_SYSTEMS)} certified systems")


# -- 7: growth analysis ------------------------------------------------------------------


def test_07_growth_classification_and_constants():
    """growth_type agrees with direct length iteration (n <= 64) on 50 seeded
    random 2-4 letter non-erasing endomorphisms; Horn exponents are minimal and
    <= d^2-2d+2; the P/Q inequalities hold exactly for k <= 30."""
    rng = random.Random(408122)
    letters = "abcd"
    primitive_structs = []
    for _ in range(50):
        n = rng.randint(2, 4)
        tokens = tuple(letters[:n])
        alpha = Alphabet(tokens)
        table = {
            t: [rng.choice(tokens) for _ in range(rng.randint(1, 3))] for t in tokens
        }
        m = Morphism.from_tokens(alpha, alpha, table)
        struct = IncidenceStructure.of_morphism(m)
        m32 = mat_pow(struct.matrix, 32)
        m64 = mat_pow(m32, 2)
        s32, s64 = _colsums(m32), _colsums(m64)
        for j, tok in enumerate(tokens):
            gt = growth_type(struct, tok)
            assert struct.is_growing(tok) == (not gt.is_non_growing())
            if gt.is_non_growing():
                assert s32[j] == s64[j]
            else:
                assert s64[j] > s32[j]
        if is_primitive(struct.matrix):
            primitive_structs.append(struct)

    assert primitive_structs, "seeded sample must contain primitive instances"
    for struct in primitive_structs:
        d = len(struct.matrix)
        k = horn_exponent(struct.matrix)
        assert _positive(mat_pow(struct.matrix, k))
        if k > 1:
            assert not _positive(mat_pow(struct.matrix, k - 1))
        assert k <= d * d - 2 * d + 2 or d == 1

    for struct in primitive_structs[:10]:
        p, q = pq_constants(struct)
        assert p >= 1 and q >= 1
        for k in range(1, 31):
            mk = mat_pow(struct.matrix, k)
            sums = _colsums(mk)
            hi, lo = max(sums), min(sums)
            assert lo <= hi <= q * lo
            tk = PerronValue.of_matrix(mk)  # theta^k, the radius of M^k
            assert _cmp_rational(tk, Fraction(hi) / p) >= 0
            assert _cmp_rational(tk, Fraction(lo) * p) <= 0

    report(
        f"PASS 7: growth agreement on 50 random systems, Horn and P/Q bounds on "
        f"{len(primitive_structs)} primitive instances"
    )


# -- 8: determinism and verification -------------------------------------------------------


def test_08_determinism_and_tamper_rejection():
    """Verdict JSON is byte-identical across repeated runs and every emitted
    certificate verifies; 10 systematically tampered certificates are all
    rejected."""
    verified = 0
    for e in entries():
        if e.expected == "error":
            continue
        sys_ = parse_system(e.text)
        v1 = decide_uniform_recurrence(sys_)
        v2 = decide_uniform_recurrence(sys_)
        blob1 = json.dumps(v1.to_json_dict(), sort_keys=True)
        blob2 = json.dumps(v2.to_json_dict(), sort_keys=True)
        assert blob1 == blob2, e.name
        ok, detail = verify_certificate(sys_, v1)
        assert ok, (e.name, detail)
        verified += 1

    fib = load("fibonacci")
    vf = decide_uniform_recurrence(fib)
    tfc = load("tail_fin_const")
    vp = decide_uniform_recurrence(tfc)
    nb = load("nonur_block")
    vm = decide_uniform_recurrence(nb)

    def tamper(v, **ch):
        c = v.certificate
        return Verdict(
            v.outcome, Certificate(ch.pop("kind", c.kind), {**c.data, **ch}), v.sheet, v.trace
        )

    tampered = [
        (fib, tamper(vf, tau=[[2, 1], [1]])),
        (fib, tamper(vf, pair_count=99)),
        (fib, tamper(vf, table_size=9)),
        (fib, tamper(vf, canonical="pairs: 2\nforged")),
        (fib, tamper(vf, positivity_power=1)),
        (fib, Verdict(NOT_UNIFORMLY_RECURRENT, vf.certificate, vf.sheet, vf.trace)),
        (load("thue_morse"), vf),  # certificate for the wrong system
        (tfc, tamper(vp, word=["b"])),
        (tfc, tamper(vp, period=3)),
        (nb, tamper(vm, failing_condition=3)),
    ]
    assert len(tampered) == 10
    for sys_, bad in tampered:
        ok, _ = verify_certificate(sys_, bad)
        assert not ok

    report(
        f"PASS 8: byte-identical verdicts and {verified} verified certificates; "
        f"10/10 tampered certificates rejected"
    )
