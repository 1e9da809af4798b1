"""Byte-level pins of every catalog verdict.

Each value is the sha256 of json.dumps(verdict.to_json_dict(),
sort_keys=True) for the catalog entry, recorded before the structural caches
(shared incidence analysis, lazy image tables, incremental image lengths)
went in; an entry whose decision raises is pinned to the exception's name.
A speed-up that changes any of these bytes changed a verdict, a certificate
or a constant.
"""

import hashlib
import json

import pytest

from morphrec import catalog
from morphrec.decider import decide_uniform_recurrence
from morphrec.errors import MorphrecError
from morphrec.system import parse_system

GOLDEN = {
    "blown_fib": "d1e6ca340a8d2e28eb59a6e1eb232afe142ea2062b0b32ae1e183e866e40ad0b",
    "blown_nonur": "7ccbf8a498f21f4a7886b629038b5a128c775e11b9709f4e82dde76d0417698c",
    "case1_comb": "07b3a0dd8966ec108f7a9399db2e68a55fb51f6e2d7d3429ba6a9f2228fe03cd",
    "chacon3": "a86a06f268b627d514e96c2f779258ab16f97e30cd98488f580e724e946e86b2",
    "chacon_padded": "9802c1f4bcb54cf31c9ed11e15225e6129cdf50265edd88a2721725ef51aa4b8",
    "cycle_tail": "3df0449f58d02b5d7d931cab03bdea93bc92873b352b28bdce75aeb6d78e9a48",
    "cycle_tail_const": "db2f89268745ab8813b261f1098b7662b7f428308a5aa5cb08ecc3b110be4874",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "07250f3f223ba3c3bf54014d23d88223e1056adde966f34cf1e8a571a639290f",
    "fibonacci": "8079da707aed1dbed31927773171e2d5af422f5c5a274e66f8490bb727b4b6fc",
    "mixed_growth": "556910a1c2b2199e618478ec7a710de8fdace84af1ee6ba43c6f1d8b2c701413",
    "nonprim_growing": "3df0449f58d02b5d7d931cab03bdea93bc92873b352b28bdce75aeb6d78e9a48",
    "nonur_block": "dba81d14dc20fa0a5b1663d8053f5583ca9ec2b60808ccdebc5144269229c844",
    "paperfold4": "cde3d47f91eeb32efb097af8fe4d9e9996f59d5b5ddea5f9cf4ec9e4ee3911f7",
    "paperfold_coded": "84b5b3b6871cc343f0aa96decd6123cfa076166128a9ef0e01280165b035aef3",
    "pell": "ed7a8f07d9468a1b4ddda37e6ea8ea5e850bdc203978e175954323b08e79c684",
    "period_doubling": "e3a1db7d698e52859a943f8866a9e674d7e799db53a9bc5617dca0dc37446d8e",
    "periodic_coded": "1f09181172168fccabbf71679b432dddd38edfeee35647076771079ce1b5bd28",
    "periodic_growing": "ff57fe6a6ec8267e7f79153e90a0295d35491693dc75d0cd016328580087fa3b",
    "rand4": "9878d7b0f3db2910bdd12b7ec147b0d24049a3d99c86f999af8173eb91f53359",
    "rudin_shapiro": "666284bfe6ea7e311eb39c1331ee4309ef921d60eaf6649f50ac92af1063bffd",
    "rudin_shapiro_coded": "31442ee1a05e4521e383cf46d2506498bd891c3754bf5345d392d44062d214c6",
    "silver": "d1c4d2b689d3f93a5eff595a9b4693efd4b4e2b9046906563607272f896d6798",
    "sturmian_ab": "0e4e071420f35c0968714489091892ae520b47439abd07dbbdfa9ade0f53b15e",
    "tail_fin": "4c85761ca768e44c9aebdf1ed74ecaded9546b0861fe7a25392724fe17014b2c",
    "tail_fin_const": "cc2279fd187fc649d718dd6d7f44ef88a85afb5c76ce8fe78c4785a414b6c458",
    "thue_morse": "33a9d2ab7a16632345768c1abd32a65efc8dd0c52a97241d0a08fdf48e9781ef",
    "tribonacci": "8a421b7c961246580bb5aa2482e2cdf6ab43d843e501e83a13bd3726ecbdfe90",
    "twisted_tm": "098d5df3d7516fba71fff2631a58d046b8a2599999836229629b046659fbf57e",
    "unreachable_extra": "8079da707aed1dbed31927773171e2d5af422f5c5a274e66f8490bb727b4b6fc",
    "vtm": "a98a8aba81133875a7d5ad35f14c81a83821feb748fd9aa081839c1f6867a779",
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
