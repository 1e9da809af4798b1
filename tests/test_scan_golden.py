"""Byte-level pins of the scan-based reports on the primitive corpus.

Each window pin is the sha256 of the JSON list, over y and x and the
linear bounds None, 2 and 5, of the full window_ur_check report (prefix
20,000, factors up to length 6).  Each return-table pin is the sha256 of
the JSON list, over y and x and the prefixes u of length 1, 3 and 8, of
(table.words, table.derived_prefix) from return_words_to_word with a
budget of 2^16 letters; a call that raises is pinned to the exception's
name, message and occurrences_found.  The pins were recorded while both
functions still walked every position or occurrence of the prefix, so they
hold their output fixed across the move onto words.split_occurrences.
"""

import dataclasses
import hashlib
import json

import pytest

from morphrec import catalog
from morphrec.errors import MorphrecError
from morphrec.oracle import window_ur_check
from morphrec.returns import return_words_to_word
from morphrec.stream import prefix

WINDOW_GOLDEN = {
    "fibonacci": "039dbb914e15bdbddb6f25c56c44266d1465fb01be6e3026fe5b5e9a7679cddf",
    "thue_morse": "007d33e7f3b6d34eb8843362516ce0a2ae83b61d073040a773d79197687bf9b0",
    "tribonacci": "2c982c4bd297ffb1d4eb8932892814d2d31f5302a511d966fb4329b528a38f79",
    "rand4": "8db748c85de57ed8447f34f90e417a054fd3220d082ccc9c756a5c5c0f5d7592",
    "rudin_shapiro": "c7c08e5459fac54e3207430cb4490cfe563c20c1e5dfec3821473557f896a4e7",
    "rudin_shapiro_coded": "dc7f0dcd53f82453b3de8c4c5a64ce00dbfdaa7cd1eb0b532aa0f93a46371c41",
    "period_doubling": "001d39fcf1273fad35942ab2034b14e8a5427c69bb78a0470fdf32e0efefd642",
    "paperfold4": "fdb589e1b52ca6cdf45e54f16d17f1fe1f35cacf02bcb944613d85ebb4239d1c",
    "paperfold_coded": "30122e109a3f081ecc581dc583368c0b23e966a3ca539c3a1196d6f56e34ba18",
    "chacon3": "359c0493dc981aa2bcfecb1a2d9adb061d9a8fbf5950bb3efb669fb9f2dc473e",
    "sturmian_ab": "7ed714f45d22e4558b6a24df35cb75a8fdfeba0f9c5c06278b02add47caffdd2",
    "pell": "2ad54b4427a8e89ed875cb99e04fe15fbc6d89c75d17357634c2c6cea1456b90",
    "vtm": "bad652471a93129ab4c37295018f0fbb46800644fe01119702dcd1a712d446cf",
    "twisted_tm": "5b219b754919591819d32562e45d04e092e702d3454472223caf23601d704f80",
    "fib_cubed": "039dbb914e15bdbddb6f25c56c44266d1465fb01be6e3026fe5b5e9a7679cddf",
    "silver": "6e3704ebc09781f9b3e51b63d2386fa9e81e3422a8a998583545633068c5228c",
}

RETURN_GOLDEN = {
    "fibonacci": "eb58486d4ce5d9e8d26407f44c990aefab8e8c62cc374b15c64cd896a1f37892",
    "thue_morse": "490569740eab3b9e8596cf4221719557be348b594ca9708ee484f4cba7ce8dd2",
    "tribonacci": "5f090de269bc582c150f9237adb46932676dd57cfad48748d9359c49f2190613",
    "rand4": "b68f6fa979dbbbc5e2ae5982a42ce11cb81c05207249e2c83e32a4fa9e95c164",
    "rudin_shapiro": "e53223e4f6288feb45f01b2e87e20cecd8f26e5268427b5e289351ff41703b1b",
    "rudin_shapiro_coded": "44aa67244c9ef9016f4855e1bae64511f69fb6b5a5d65cd1e367df26edd4f045",
    "period_doubling": "7375cfcf22330814ebb079033fa5013f148194714eea8fcd04afaab71852e032",
    "paperfold4": "0e50db70af6dfbc6e5dfe838cb7b532c5f95fdd85701cc3ae0adf77a61ddc47e",
    "paperfold_coded": "5323b6a7a2226447b29ed1e3ee657ff4c8f2181aaaf049e8299ad88ff5fadf31",
    "chacon3": "4ffc6fd69b6a99ee06e101dfe2adb1f20e051506ae08fad4db78ce05bd28430c",
    "sturmian_ab": "67a217dd0622c598086675db0989724bbf5e9adb434bed11c461718dd5e18794",
    "pell": "0b3040fbc3d5a8dc82e1c7ea4e8d725b626ff65c600e087f72ea53b7985f612a",
    "vtm": "67247bc4c20e7593a46eccf671f33c5819fe5b43691c06ec92e53b2509382b24",
    "twisted_tm": "dec7ff1c66026fed299898636cdb0ff66c159f2d33573e9ad4a913e6d17742c4",
    "fib_cubed": "eb58486d4ce5d9e8d26407f44c990aefab8e8c62cc374b15c64cd896a1f37892",
    "silver": "f00bb979bc77dca1cb5a96459deb2363e410ab2779169affab1ac7661c5eee8e",
}


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _window_digest(name: str) -> str:
    system = catalog.get(name).build()
    rows = []
    for which in ("y", "x"):
        for bound in (None, 2, 5):
            report = window_ur_check(system, 6, 20_000, linear_bound=bound, which=which)
            rows.append(dataclasses.asdict(report))
    return _sha(rows)


def _return_digest(name: str) -> str:
    system = catalog.get(name).build()
    rows = []
    for which in ("y", "x"):
        head = prefix(system, 8, which)
        for n in (1, 3, 8):
            try:
                table = return_words_to_word(system, head[:n], budget=1 << 16, which=which)
            except MorphrecError as e:
                rows.append([type(e).__name__, str(e), getattr(e, "occurrences_found", None)])
            else:
                rows.append([table.words, table.derived_prefix])
    return _sha(rows)


@pytest.mark.parametrize("name", catalog.PRIMITIVE_CORPUS)
def test_window_reports_are_pinned(name):
    assert _window_digest(name) == WINDOW_GOLDEN[name]


@pytest.mark.parametrize("name", catalog.PRIMITIVE_CORPUS)
def test_return_tables_are_pinned(name):
    assert _return_digest(name) == RETURN_GOLDEN[name]


def test_every_pin_names_a_primitive_corpus_system():
    assert set(WINDOW_GOLDEN) == set(RETURN_GOLDEN) == set(catalog.PRIMITIVE_CORPUS)
