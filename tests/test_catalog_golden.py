"""Byte-level pins of every catalog verdict.

Each value is the sha256 of json.dumps(verdict.to_json_dict(),
sort_keys=True) for the catalog entry, recorded before the structural caches
(shared incidence analysis, lazy image tables, incremental image lengths)
went in; an entry whose decision raises is pinned to the exception's name.
A speed-up that changes any of these bytes changed a verdict, a certificate
or a constant.  The entries with a primitive stage were re-pinned once, when
the decider began to settle such a stage `primitive` before the low-power
chain: their certificate kind and trace changed, their constants did not.
"""

import hashlib
import json

import pytest

from morphrec import catalog
from morphrec.decider import decide_uniform_recurrence
from morphrec.errors import MorphrecError
from morphrec.system import parse_system

GOLDEN = {
    "blown_fib": "e7f35bbe156ad3e3ffd0974b7c6ff9965869d0b28f421a13d793e6daa464c4ef",
    "blown_nonur": "7ccbf8a498f21f4a7886b629038b5a128c775e11b9709f4e82dde76d0417698c",
    "case1_comb": "6b994d67ea2465784b89c4a7ec297825a960d393e8ab3c90be3ebbd662a91f8d",
    "chacon3": "0871608d4fe79802a3934b324c7be5b0e7073fb95b4e6910d2df0a6d274e1d08",
    "chacon_padded": "8b0c5b9afe46b81fdf7db289fec891d57f709d5dc7f2f440e78f3a5ccf804c76",
    "cycle_tail": "3df0449f58d02b5d7d931cab03bdea93bc92873b352b28bdce75aeb6d78e9a48",
    "cycle_tail_const": "db2f89268745ab8813b261f1098b7662b7f428308a5aa5cb08ecc3b110be4874",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "bb9dfbcc313a850b5aa31d651dcfb57c535350509187a7779ff3948b1500ff1e",
    "fibonacci": "1f28c1382e4498136074caec0f0bdd08f0599c02fe6ce16c555ace816de1ae2b",
    "mixed_growth": "556910a1c2b2199e618478ec7a710de8fdace84af1ee6ba43c6f1d8b2c701413",
    "nonprim_growing": "3df0449f58d02b5d7d931cab03bdea93bc92873b352b28bdce75aeb6d78e9a48",
    "nonur_block": "dba81d14dc20fa0a5b1663d8053f5583ca9ec2b60808ccdebc5144269229c844",
    "paperfold4": "9c956d22dc734d44df1c06b759759c82ea6d5deda8e3a0b2d7b22e62a9025d35",
    "paperfold_coded": "9c956d22dc734d44df1c06b759759c82ea6d5deda8e3a0b2d7b22e62a9025d35",
    "pell": "5e0101ed499658e043f66f6ebfcd7ad8685fd46f0dda28b67c14ff69fef2d3d6",
    "period_doubling": "8ebb170fb26f25c08a4c54ee8b3d286f9b344d10880cbbdc25fcaa16c3e81b73",
    "periodic_coded": "1f09181172168fccabbf71679b432dddd38edfeee35647076771079ce1b5bd28",
    "periodic_growing": "ff57fe6a6ec8267e7f79153e90a0295d35491693dc75d0cd016328580087fa3b",
    "rand4": "70eac5d8631ae6db9a662b5bdce3c7805afb35f677dffe622a9117d537a79f23",
    "rudin_shapiro": "befad60a4f4479ca8988add327c3fe34f864274516bf4eb3b289f7e4e3cbb45f",
    "rudin_shapiro_coded": "befad60a4f4479ca8988add327c3fe34f864274516bf4eb3b289f7e4e3cbb45f",
    "silver": "5e0101ed499658e043f66f6ebfcd7ad8685fd46f0dda28b67c14ff69fef2d3d6",
    "sturmian_ab": "4af245b5435bd834aecbf5630a480c32171f035281678a831e2aa78890ae59ed",
    "tail_fin": "4c85761ca768e44c9aebdf1ed74ecaded9546b0861fe7a25392724fe17014b2c",
    "tail_fin_const": "cc2279fd187fc649d718dd6d7f44ef88a85afb5c76ce8fe78c4785a414b6c458",
    "thue_morse": "14007b0940a0ef12748fa42a6ad0b4335cbb3eacf6dcd5bad5b6679810f1b5e7",
    "tribonacci": "75cfd09fabc878418ee943e4e356109ddad0c9b2484cb4f51ad9cc271a436ee0",
    "twisted_tm": "2930ce39ee497fc42b68c5d071f6b725f06f13bec54508fe7f8fa18fb4bd0d9e",
    "unreachable_extra": "1f28c1382e4498136074caec0f0bdd08f0599c02fe6ce16c555ace816de1ae2b",
    "vtm": "b85ae85888974bd18e243d76e4ee5efb1a30e53ad73b5cd4d754194c9d2fbba9",
}


@pytest.mark.parametrize("name", [e.name for e in catalog.entries()])
def test_catalog_verdict_bytes_are_pinned(name):
    system = parse_system(catalog.get(name).text)
    try:
        verdict = decide_uniform_recurrence(system)
    except MorphrecError as e:
        got = "error:" + type(e).__name__
    else:
        blob = json.dumps(verdict.to_json_dict(), sort_keys=True).encode()
        got = hashlib.sha256(blob).hexdigest()
    assert got == GOLDEN[name]


def test_every_pin_names_a_catalog_entry():
    assert set(GOLDEN) == {e.name for e in catalog.entries()}
