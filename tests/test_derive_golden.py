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
    "case1_comb": "95733fb3c281227bb1272cba7a28e1912c160214c4f2c5edd7afa5c70c4732e1",
    "cycle_tail": "error:PreconditionViolated",
    "cycle_tail_const": "error:PreconditionViolated",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "32f3707e51d53e59ac97a86e09b825dc9796d64df8466f4d3eff26a8df2912fd",
    "fibonacci": "ef8a6135334d5c581f86a5b1277dc1d63f4f718bbeb1a0a10f41c1df3de9ab0e",
    "mixed_growth": "a46d403223615ea61635b0078c029820cb6b5b21e9b0250f9bd19401c1973bb4",
    "nonprim_growing": "564528e192e8a7f449aee47d06f244e5c74f9405fd66196ec2618f3cdd9a3611",
    "nonur_block": "error:PreconditionViolated",
    "paperfold4": "ccd8556516aa876930717c1b42d9837c8f50291ef9d85bb4caa71be3097d1f50",
    "paperfold_coded": "a2aba64b0baa18ac079fd89d136e04a7291b3090f6fffba1c4d5f7e39634caf1",
    "pell": "c0a78f44af91be28301713350240a5afedc32dfec9a7270df31cb712728fa323",
    "period_doubling": "9c811a51f07779b74ed865aa4c81e82048bf7294a4fad78eba01bb302f4d843f",
    "periodic_coded": "2fcd07952c07f40cc1bf23c221b74da3d075270e9edfabb33cd1513294ae3162",
    "periodic_growing": "e834df6dfdbbd3d73d6e1b8c3d3f9948c98fbc8d6c7a7726ff7fb6e4f54fc843",
    "rand4": "7bd9c660c0a7ee2a1098a406d524b930edb2a752b2e37ae6b3b220da96399007",
    "rudin_shapiro": "0c2dd2073a2c003f61e3db22eca0ba6a2be4b61db9b541d707667662e5c180ff",
    "rudin_shapiro_coded": "9b13f6f546017641f4febf7a3f0e6b6dffc33875519f23951b35d80622ce57e8",
    "silver": "7b11a79035ef6929498a54a9d1d7617167c4fb7a98c61e22ede6df4fe4e13516",
    "sturmian_ab": "25a631cc6a50998605ffae9599ca487cf1f4ddf6a072d17cbad9d9b93a759749",
    "tail_fin": "error:PreconditionViolated",
    "tail_fin_const": "error:PreconditionViolated",
    "thue_morse": "850bda429e979c412e2c33561b597d52984f8a2a0eaf66e2753c0b5f56101982",
    "tribonacci": "343c461ab9389b98ea1752c29ecef7ff211645adb8e5160c114cd4a0ffeaad98",
    "twisted_tm": "dd9f8c84e55f2c8123042002f502d10384ddc8babf695950f769bbefa933c33f",
    "unreachable_extra": "ef8a6135334d5c581f86a5b1277dc1d63f4f718bbeb1a0a10f41c1df3de9ab0e",
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
