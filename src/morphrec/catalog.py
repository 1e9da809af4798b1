"""Frozen instance corpus: classic substitutions and branch-coverage cases.

Every entry is stored in the text file format (so the parser is exercised
on each access) together with the expected decision outcome.  The corpus
backs the test suite and the run_corpus script; the library itself never
reads it.

The rand4 entry was produced once by a seeded search over random 4-letter
endomorphisms (seed 20260814, first primitive hit that certifies) and then
frozen as explicit text, so nothing at run time depends on RNG.
"""

from __future__ import annotations

from dataclasses import dataclass

from .system import ProlongableSystem, parse_system


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    text: str
    expected: str  # "ur" | "not-ur" | "error"
    certificate: str | None  # expected certificate kind, None for errors
    primitive: bool  # member of the primitive UR corpus
    note: str

    def build(self) -> ProlongableSystem:
        return parse_system(self.text)


def _entry(name, text, expected, certificate, primitive, note) -> CatalogEntry:
    return CatalogEntry(name, text.strip() + "\n", expected, certificate, primitive, note)


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        # -- primitive corpus: each stage is primitive, so each settles `primitive`
        _entry(
            "fibonacci",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b
            b -> a
            """,
            "ur",
            "primitive",
            True,
            "golden-ratio Sturmian fixed point",
        ),
        _entry(
            "thue_morse",
            """
            alphabet: 0 1
            start: 0
            sigma:
            0 -> 0 1
            1 -> 1 0
            """,
            "ur",
            "primitive",
            True,
            "overlap-free binary sequence",
        ),
        _entry(
            "tribonacci",
            """
            alphabet: a b c
            start: a
            sigma:
            a -> a b
            b -> a c
            c -> a
            """,
            "ur",
            "primitive",
            True,
            "ternary Rauzy fixed point",
        ),
        _entry(
            "rand4",
            """
            alphabet: p q r s
            start: p
            sigma:
            p -> p r
            q -> p
            r -> q s
            s -> p
            """,
            "ur",
            "primitive",
            True,
            "frozen random 4-letter primitive instance (seed 20260814)",
        ),
        _entry(
            "rudin_shapiro",
            """
            alphabet: a b c d
            start: a
            sigma:
            a -> a b
            b -> a c
            c -> d b
            d -> d c
            """,
            "ur",
            "primitive",
            True,
            "4-letter carrier of the Rudin-Shapiro sequence",
        ),
        _entry(
            "rudin_shapiro_coded",
            """
            alphabet: a b c d
            start: a
            target: 0 1
            sigma:
            a -> a b
            b -> a c
            c -> d b
            d -> d c
            phi:
            a -> 0
            b -> 0
            c -> 1
            d -> 1
            """,
            "ur",
            "primitive",
            True,
            "Rudin-Shapiro with its binary coding",
        ),
        _entry(
            "period_doubling",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b
            b -> a a
            """,
            "ur",
            "primitive",
            True,
            "period-doubling sequence",
        ),
        _entry(
            "paperfold4",
            """
            alphabet: a b c d
            start: a
            sigma:
            a -> a b
            b -> c b
            c -> a d
            d -> c d
            """,
            "ur",
            "primitive",
            True,
            "4-letter paperfolding carrier",
        ),
        _entry(
            "paperfold_coded",
            """
            alphabet: a b c d
            start: a
            target: 0 1
            sigma:
            a -> a b
            b -> c b
            c -> a d
            d -> c d
            phi:
            a -> 0
            b -> 0
            c -> 1
            d -> 1
            """,
            "ur",
            "primitive",
            True,
            "paperfolding carrier with a binary coding",
        ),
        _entry(
            "chacon3",
            """
            alphabet: 0 1 2
            start: 0
            sigma:
            0 -> 0 0 1 2
            1 -> 1 2
            2 -> 0 1 2
            """,
            "ur",
            "primitive",
            True,
            "ternary Chacon substitution",
        ),
        _entry(
            "sturmian_ab",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a a b
            b -> a b
            """,
            "ur",
            "primitive",
            True,
            "Sturmian-type slope instance",
        ),
        _entry(
            "pell",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b a
            b -> a
            """,
            "ur",
            "primitive",
            True,
            "silver-ratio fixed point",
        ),
        _entry(
            "vtm",
            """
            alphabet: a b c
            start: a
            sigma:
            a -> a b c
            b -> a c
            c -> b
            """,
            "ur",
            "primitive",
            True,
            "square-free ternary sequence",
        ),
        _entry(
            "twisted_tm",
            """
            alphabet: 0 1
            start: 0
            sigma:
            0 -> 0 0 1
            1 -> 1 1 0
            """,
            "ur",
            "primitive",
            True,
            "non-uniform binary primitive instance",
        ),
        _entry(
            "fib_cubed",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b a a b
            b -> a b a
            """,
            "ur",
            "primitive",
            True,
            "cube of the fibonacci endomorphism",
        ),
        _entry(
            "silver",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a a b
            b -> a
            """,
            "ur",
            "primitive",
            True,
            "two-letter quadratic-growth instance",
        ),
        # -- non-growing branch and mixed growth
        _entry(
            "nonur_block",
            """
            alphabet: 0 1
            start: 0
            sigma:
            0 -> 0 0 1
            1 -> 1
            """,
            "not-ur",
            "periodic_mismatch",
            False,
            "unbounded 1-blocks; pumping word fails the periodicity checklist",
        ),
        _entry(
            "tail_fin",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b
            b -> b
            """,
            "not-ur",
            "exit",
            False,
            "y = a b b b ...; the letter a never recurs",
        ),
        _entry(
            "tail_fin_const",
            """
            alphabet: a b
            start: a
            target: z
            sigma:
            a -> a b
            b -> b
            phi:
            a -> z
            b -> z
            """,
            "ur",
            "periodic",
            False,
            "same shape, constant coding collapses x to z^inf",
        ),
        _entry(
            "cycle_tail",
            """
            alphabet: a b c
            start: a
            sigma:
            a -> a b
            b -> c
            c -> b
            """,
            "not-ur",
            "exit",
            False,
            "y = a b c b c ...; a occurs once",
        ),
        _entry(
            "cycle_tail_const",
            """
            alphabet: a b c
            start: a
            target: z
            sigma:
            a -> a b
            b -> c
            c -> b
            phi:
            a -> z
            b -> z
            c -> z
            """,
            "ur",
            "periodic",
            False,
            "collapsed two-cycle tail, x = z^inf",
        ),
        _entry(
            "mixed_growth",
            """
            alphabet: a b c
            start: a
            sigma:
            a -> a b c
            b -> b b
            c -> c c
            """,
            "not-ur",
            "exit",
            False,
            "a occurs once while b,c blocks both grow",
        ),
        _entry(
            "case1_comb",
            """
            alphabet: 0 1 c
            start: 0
            sigma:
            0 -> 0 c 1
            1 -> 1 c 0
            c -> c
            """,
            "ur",
            "primitive",
            False,
            "bounded single-letter combs; block encoding reaches the growing pipeline",
        ),
        _entry(
            "chacon_padded",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a a b a
            b -> b
            """,
            "ur",
            "primitive",
            False,
            "non-growing carrier of the ternary Chacon system",
        ),
        _entry(
            "periodic_growing",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b
            b -> a b
            """,
            "ur",
            "periodic",
            False,
            "growing but periodic: y = (ab)^inf",
        ),
        _entry(
            "periodic_coded",
            """
            alphabet: 0 1
            start: 0
            target: z
            sigma:
            0 -> 0 1
            1 -> 1 0
            phi:
            0 -> z
            1 -> z
            """,
            "ur",
            "periodic",
            False,
            "aperiodic base with constant coding, x = z^inf",
        ),
        _entry(
            "nonprim_growing",
            """
            alphabet: a b c
            start: a
            sigma:
            a -> a b
            b -> c c
            c -> b b
            """,
            "not-ur",
            "exit",
            False,
            "all letters grow but a occurs only once",
        ),
        _entry(
            "blown_fib",
            """
            alphabet: a b
            start: a
            target: 0 1
            sigma:
            a -> a b
            b -> a
            phi:
            a -> 0 1
            b -> 1 0 0
            """,
            "ur",
            "primitive",
            False,
            "expanding outer morphism; settled by deciding the fixed point first",
        ),
        _entry(
            "blown_nonur",
            """
            alphabet: 0 1
            start: 0
            target: a b c
            sigma:
            0 -> 0 0 1
            1 -> 1
            phi:
            0 -> a b
            1 -> c
            """,
            "not-ur",
            "periodic_mismatch",
            False,
            "expanding morphism over a non-recurrent fixed point",
        ),
        _entry(
            "unreachable_extra",
            """
            alphabet: a b z
            start: a
            sigma:
            a -> a b
            b -> a
            z -> z z
            """,
            "ur",
            "primitive",
            False,
            "fibonacci plus an unreachable letter that restriction drops",
        ),
        _entry(
            "erasing_sigma",
            """
            alphabet: a b
            start: a
            sigma:
            a -> a b
            b -> ε
            """,
            "error",
            None,
            False,
            "erasing endomorphism; normalization is rejected by contract",
        ),
    ]
}


PRIMITIVE_CORPUS: tuple[str, ...] = tuple(
    name for name, e in CATALOG.items() if e.primitive
)


def entries() -> list[CatalogEntry]:
    return list(CATALOG.values())


def get(name: str) -> CatalogEntry:
    return CATALOG[name]
