"""Byte-level pins of the growth block that `classify --json` prints.

Each value is the sha256 of json.dumps(env["growth"], sort_keys=True) for
the catalog entry: per letter, whether it grows, its d, and its theta as
defining polynomial, isolating interval and approximation.  An entry whose
classification fails is pinned to the envelope's error message.  The pins
were recorded while the Perron values still came from sympy, so they hold
the printed growth types across the move to integer polynomials.
"""

import hashlib
import json

import pytest

from morphrec import catalog
from morphrec.cli import main

GOLDEN = {
    "blown_fib": "6013e4dc5e527bc08e22de2d8318fd458f63fe3cc53ad12c9d911ff1075b2b60",
    "blown_nonur": "c35a5446994d4493ef48705bc934189526a826b687288cf59e1cb930f21dd220",
    "case1_comb": "e4fb54dca0417e08ebff2ea956b5e8a399bcca590ebd894c53a845dec94edd4f",
    "chacon3": "26f135a3afc2c0f55401030b13699d522891b5660263b8a9715aa40fcdbc2d53",
    "chacon_padded": "25fa60478fb8c1b81c933bedbd6a5556311d0595563ad17d13892a6bdc5c5be2",
    "cycle_tail": "2a2194f74a024002e28d71fcffe1e3b0e0914e2bf8709c82783b82bb4cc6aea2",
    "cycle_tail_const": "2a2194f74a024002e28d71fcffe1e3b0e0914e2bf8709c82783b82bb4cc6aea2",
    "erasing_sigma": "error:letter reaches only nilpotent structure; erasing input rejected",
    "fib_cubed": "6fd886e8111b453ad702abc225251c8e33d809685ca1158948d8f095f8c518bc",
    "fibonacci": "6013e4dc5e527bc08e22de2d8318fd458f63fe3cc53ad12c9d911ff1075b2b60",
    "mixed_growth": "7c399216f27997acf200673353c7c356916553dc5f6f2971487f5b19576423c1",
    "nonprim_growing": "4ab84db6ea5fa6ab7ab829e6b59bc4978baee7c4f16f7a32f0f8a38d1e9cbadb",
    "nonur_block": "c35a5446994d4493ef48705bc934189526a826b687288cf59e1cb930f21dd220",
    "paperfold4": "3125aadb9f9655087057fd57e7f48fcbc8b4c32258d4906e2eff992e047b99c0",
    "paperfold_coded": "3125aadb9f9655087057fd57e7f48fcbc8b4c32258d4906e2eff992e047b99c0",
    "pell": "680959a490746f8b27b1e9e800fabc20a58f198adee9d414276f492a7ee9f046",
    "period_doubling": "4951cb0a24e3132e8870ae5ceae82493effd6ac81076f846bcf28f439d0f55f8",
    "periodic_coded": "e9a7274077d2ae6d824328379fe9cc34a983625af569fbe8e7aca2c5511ebd82",
    "periodic_growing": "f33ba3591ccdf74dabf30aa2e222b01815e126b2067aee4e5306baa98328705c",
    "rand4": "64eac81a257cfda41503e731c8dccc6437acf394359f934c8fa3254bc57b6424",
    "rudin_shapiro": "dd6ea3d11b4ae55fd51ec4109878798c811d3332a593f8b1c444cb244ef6f0d8",
    "rudin_shapiro_coded": "dd6ea3d11b4ae55fd51ec4109878798c811d3332a593f8b1c444cb244ef6f0d8",
    "silver": "680959a490746f8b27b1e9e800fabc20a58f198adee9d414276f492a7ee9f046",
    "sturmian_ab": "e72603c4949c08c022ec6335e925ce01e9d988296dd9e9e22d3b76006079e973",
    "tail_fin": "bebe853ada9ca7003e1ffc426dffda8e9ffac957dce71677d5239d336ea42f1f",
    "tail_fin_const": "bebe853ada9ca7003e1ffc426dffda8e9ffac957dce71677d5239d336ea42f1f",
    "thue_morse": "e9a7274077d2ae6d824328379fe9cc34a983625af569fbe8e7aca2c5511ebd82",
    "tribonacci": "f1ba046ef401e280ff09ef591314a516380942620292628f6d11fe96fadd8167",
    "twisted_tm": "19bdba4491046512eb443526d53028db39feb8958bd22b665b686f4ed1c6f918",
    "unreachable_extra": "b05c19ef85dd0204bda53ec78b74c7c1c67cf33b8bb8aee65341ea4082e81b36",
    "vtm": "4e37ca034097711702b91954e1ddc340291adbb28746dc3e0e7c42a467e1b1b6",
}


@pytest.mark.parametrize("name", [e.name for e in catalog.entries()])
def test_classify_growth_bytes_are_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(catalog.get(name).text)
    main(["classify", "--json", str(path)])
    env = json.loads(capsys.readouterr().out)
    if "growth" in env:
        got = hashlib.sha256(json.dumps(env["growth"], sort_keys=True).encode()).hexdigest()
    else:
        got = "error:" + env["error"]
    assert got == GOLDEN[name]


def test_every_pin_names_a_catalog_entry():
    assert set(GOLDEN) == {e.name for e in catalog.entries()}
