"""Byte-level pins of the word-case return substitutions.

Each value is the sha256 of the JSON list, over the y-prefixes u of length
1..8, of (table.words, sigma_u.images, table.derived_prefix) from
return_substitution(system, u) for a primitive-corpus system; a call that
raises is pinned to the exception's name.  The pins were recorded while the
word case still ran its own closure loop, so they hold its output fixed
across the move onto the set-case kernel, build_sigma_U.
"""

import hashlib
import json

import pytest

from morphrec import catalog
from morphrec.errors import MorphrecError
from morphrec.returns import return_substitution
from morphrec.stream import prefix

GOLDEN = {
    "fibonacci": "5aa848f864ad1abe35213f40a4672fb8b154207539d59f6c5d4f9e541f68a058",
    "thue_morse": "bb4b28db117d82f2934ac1fb9367db867574a18fc4d2a6b04023d0d16862a9aa",
    "tribonacci": "bc4bdd2fdd25ed39abc69ca36e25285f17eccdb8d9e56919b45748317f5cbf6d",
    "rand4": "b6c7ccd4bfb4005de7eb29df84e0574fb3fe827f00a04f97589198c23242e67a",
    "rudin_shapiro": "e6af37f30660885c9a64c9ef3664898f9d9f178c6b67229808348d2e0bc6d44b",
    "rudin_shapiro_coded": "e6af37f30660885c9a64c9ef3664898f9d9f178c6b67229808348d2e0bc6d44b",
    "period_doubling": "e1f3eb961808e14fdf21e1e9a2a27f31ad22f298200509e9505ae495bd1e84eb",
    "paperfold4": "e720d73896fa809001b896f18209264a2312035a5bf23472f6b786149d440503",
    "paperfold_coded": "e720d73896fa809001b896f18209264a2312035a5bf23472f6b786149d440503",
    "chacon3": "9aad4a335b67dd2f97c0d021c31e749687271935c223e68125af986ca34588ed",
    "sturmian_ab": "8e30189e5fcc064631437bc126155689662f7080ac3271b99ce357246984bc5a",
    "pell": "a907893936c5459ad29069ff1228a7dde7ff4dad85f258d1920644a78f9bb9c3",
    "vtm": "1d528cebf9a9f64a8cc5d9a03e4a62d940a8323b147f23f982995a3c9ac79351",
    "twisted_tm": "d0eff9191e59f94c1a9086b5493de9394fd2c77ec5ac2b442ffd84db2a204f64",
    "fib_cubed": "eff8a190df48aa2f4e310db5909180827364efeade87988c03f50e8b27e75fb8",
    "silver": "67a039fc2435f3b01139e3628204baccd6d0179e38335c429ce38f9363596afe",
}


def _digest(name: str) -> str:
    system = catalog.get(name).build()
    y = prefix(system, 8, "y")
    rows = []
    for n in range(1, 9):
        try:
            rs = return_substitution(system, y[:n])
        except MorphrecError as e:
            rows.append("error:" + type(e).__name__)
        else:
            rows.append([rs.table.words, rs.sigma_u.images, rs.table.derived_prefix])
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", catalog.PRIMITIVE_CORPUS)
def test_return_substitution_bytes_are_pinned(name):
    assert _digest(name) == GOLDEN[name]


def test_every_pin_names_a_primitive_corpus_system():
    assert set(GOLDEN) == set(catalog.PRIMITIVE_CORPUS)
