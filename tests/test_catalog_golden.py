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
    "blown_fib": "6ed2b55be645d4c7c0f577a50b8e0b8b8d686b715b6b3486895952f5a5968fce",
    "blown_nonur": "7ccbf8a498f21f4a7886b629038b5a128c775e11b9709f4e82dde76d0417698c",
    "case1_comb": "8344b86aad5e0b16b2d2e18c524a11da153e93a2d074d7c3b12ae2cf458bfb4f",
    "chacon3": "a925f48125854ddf1fefe2bfff94ea26bf25e986c49f8c3372797cb479d159b1",
    "chacon_padded": "e8d811aab2c48e5c3a3cfd8fb145afdd251f32e26e5f1e69e82536ca2a62a8a5",
    "cycle_tail": "3df0449f58d02b5d7d931cab03bdea93bc92873b352b28bdce75aeb6d78e9a48",
    "cycle_tail_const": "db2f89268745ab8813b261f1098b7662b7f428308a5aa5cb08ecc3b110be4874",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "fcdc54f78d7e00366d1d1fc56cb1c95f24fddac3b8f09a0ac3f5f2e0e2ed05a2",
    "fibonacci": "31e6d19ee7b171a610ff3b66cb5a6c91c2d2464d00a5c7cf04ac94c745440f3a",
    "mixed_growth": "556910a1c2b2199e618478ec7a710de8fdace84af1ee6ba43c6f1d8b2c701413",
    "nonprim_growing": "3df0449f58d02b5d7d931cab03bdea93bc92873b352b28bdce75aeb6d78e9a48",
    "nonur_block": "dba81d14dc20fa0a5b1663d8053f5583ca9ec2b60808ccdebc5144269229c844",
    "paperfold4": "cee0e26637177c00683cacba18a07b70a13b2db04ec8d7e60a3e1c4af20a458d",
    "paperfold_coded": "305cf4ab200205f1e7b6bab087a3e4855fd4a558e6386764b2f720e198a5992a",
    "pell": "45f6ec40fadb1d9dff625f0a245ee7a233182bbcdc640a0e2048f01131be359d",
    "period_doubling": "888807c88ef19b09ede4fece4354633934ce4657cb3a86d0ba0ee848d38ce800",
    "periodic_coded": "1f09181172168fccabbf71679b432dddd38edfeee35647076771079ce1b5bd28",
    "periodic_growing": "ff57fe6a6ec8267e7f79153e90a0295d35491693dc75d0cd016328580087fa3b",
    "rand4": "22f78d172be9a130f4bd912edaf9766b2e703cc89c3d32fd1f2bee6a14e6788e",
    "rudin_shapiro": "2c7fa54f41bbba62bac9f5b43a6e2a7231db7093a5a19cf8a8594ca6425ad35b",
    "rudin_shapiro_coded": "f36b65e4219f737697df7013ea1f9b35535f608c81244842fe9470f8f4e2b666",
    "silver": "9d2c628554eb201766c4aa0ba2d5908578cad668aa415e200c5cdc2698ea26f4",
    "sturmian_ab": "310909372583d69e038f5aa346659334fddc02b4cdee4815a002d69b5fe5b1d6",
    "tail_fin": "4c85761ca768e44c9aebdf1ed74ecaded9546b0861fe7a25392724fe17014b2c",
    "tail_fin_const": "cc2279fd187fc649d718dd6d7f44ef88a85afb5c76ce8fe78c4785a414b6c458",
    "thue_morse": "d240d1c5e4946f8621e2e92801971d97f8d91c4d443e442076cadb72a050a236",
    "tribonacci": "72e474ee20651b9c1a15515e069f922cc7bc9932f29789a5596e1fab269743ed",
    "twisted_tm": "e42cd0116a2012982281984968904cf844d662b432b29216ed22aa7169a30bdc",
    "unreachable_extra": "31e6d19ee7b171a610ff3b66cb5a6c91c2d2464d00a5c7cf04ac94c745440f3a",
    "vtm": "4c90725d7a1c73a812b0b300b645a373dc83104a6c04b93bd79a6491546ace37",
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
