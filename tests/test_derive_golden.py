"""Byte-level pins of the `derive --json` envelope on the catalog.

Each value is the sha256 of json.dumps(env, sort_keys=True) for the
envelope `cli._env_derive` builds at depth 3 and the default work budget,
with its "input" key (a file path) removed; an entry whose chain raises is
pinned to the exception's name.  The envelope spells out every level's u,
v, pairs, sigma_U, psi and x-return words, so a change in how the u-chain
stores its words that leaks into these bytes shows here.  The four entries
whose chains take seconds (blown_fib ends in BudgetExhausted) are left out.
"""

import argparse
import hashlib
import json

import pytest

from morphrec import catalog, cli
from morphrec.errors import MorphrecError
from morphrec.returns import WORK_BUDGET

SLOW = ("chacon3", "vtm", "chacon_padded", "blown_fib")

GOLDEN = {
    "blown_nonur": "error:PreconditionViolated",
    "case1_comb": "cfd21d7ba5b27d125b58f47c7d2647dc573934013fb6c90ad822c4c687e0a64e",
    "cycle_tail": "error:PreconditionViolated",
    "cycle_tail_const": "error:PreconditionViolated",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "e2077223aa7250755c407c2af3acadcb95bfb2ba53b064762b42ccc847a3141c",
    "fibonacci": "5352e3437acf59f05c40f06585b10965b8f6e8bd94076719001ede445785d143",
    "mixed_growth": "4f9789ad340a02aed371f3a08b7a52b33c4df0ab8ffbfcdfcb7b1438bfc3c6e1",
    "nonprim_growing": "733b2a98000c39d7d25f527619daa8a051ee440bb7d92f8ce00fdcf222eb7508",
    "nonur_block": "error:PreconditionViolated",
    "paperfold4": "0fc4326ea3a6ccfb74ba6f961d27068ac9da4877800bf4d7a800d8305785d990",
    "paperfold_coded": "2e98c6a0805ec2bd6dbf1f6ad809c21cc0a5b121d157c7f788fe5723dd6bf5b4",
    "pell": "a5faeaad069ddf9b1a6eabfc03506f2c03c17b933ed888a38e481da082572ca8",
    "period_doubling": "0816c93851f9a0546a678fec77e5f378a17857ffe2dccb3e695af2b48fdecc1c",
    "periodic_coded": "2d0165d9717df340efd93508ea45ed67ac6f2b90555b8670acd4be476f238578",
    "periodic_growing": "38f1700ec371705708e2ea53fe71d57c2ea11aa208202a4e56cb05ba85c3cbeb",
    "rand4": "1d48773f5e60d82022969470c34fc7857883719f19c7c95fade834cd2248647c",
    "rudin_shapiro": "4c8845720b85e0cb21ec07de690faa4117a84e943cdd78e3baa6015b7b36eda7",
    "rudin_shapiro_coded": "4bbfb95219eabce6c70487043c0fa4aa6dc3ea4ce175af4a8aebbced0b20f1cf",
    "silver": "7504b5cc8eb818e7f92d9be50b80b8cdfc7fb7facd13fb6bb3650ef475719a53",
    "sturmian_ab": "f7241e6c76af4bdd68d6df59f4fe2ca7f0c63d136d79935ebfcb6d1078d8c5fa",
    "tail_fin": "error:PreconditionViolated",
    "tail_fin_const": "error:PreconditionViolated",
    "thue_morse": "800830345f65decbeeae36a531e0984ab110511a22f679bfd9416758c96aa028",
    "tribonacci": "74bca1a1a712ddc398f948dcd9d46f4127c70f7defdd7eb56f1a4d1f3121f287",
    "twisted_tm": "4bf0c8ef31908ee385b77fa62649b8ae1f3f89c1265b80e834d650ae0be716ad",
    "unreachable_extra": "5352e3437acf59f05c40f06585b10965b8f6e8bd94076719001ede445785d143",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_derive_envelope_bytes_are_pinned(name, tmp_path):
    path = tmp_path / f"{name}.txt"
    path.write_text(catalog.get(name).text, encoding="utf-8")
    try:
        _, env = cli._env_derive(str(path), argparse.Namespace(depth=3, budget=WORK_BUDGET))
    except MorphrecError as e:
        got = "error:" + type(e).__name__
    else:
        env.pop("input")
        got = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()
    assert got == GOLDEN[name]


def test_every_fast_catalog_entry_is_pinned():
    assert set(GOLDEN) | set(SLOW) == {e.name for e in catalog.entries()}
    assert not set(GOLDEN) & set(SLOW)
