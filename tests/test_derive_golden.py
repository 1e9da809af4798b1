"""Byte-level pins of the `derive --json` envelope on the catalog.

Each value is the sha256 of json.dumps(env, sort_keys=True) for the
envelope `cli._env_derive` builds at depth 3 and the default work budget,
with its "input" key (a file path) and its "format" key removed; an entry
whose chain raises is pinned to the exception's name.  The format number is
checked on its own, so a bump that changes no derive byte leaves the hashes
alone.  The envelope spells out every level's u, v, pairs, sigma_U, psi and
x-return words, so a change in how the u-chain stores its words that leaks
into these bytes shows here.  The four entries whose chains take seconds
(blown_fib ends in BudgetExhausted) are left out.
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
    "case1_comb": "cb6f00c2c49ed7ae7f4f95b15bdac93f2519fcd27175dda342d9fff4ce679cc7",
    "cycle_tail": "error:PreconditionViolated",
    "cycle_tail_const": "error:PreconditionViolated",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "4527d42adb5570c419ee75117b8b8d51c466598ed91f84be9b2d60da54e8990e",
    "fibonacci": "00d78d3c35704deb0d6b8f8328deb4a6afd6d5e56b1387168ecb9ba3efcd8330",
    "mixed_growth": "b87eeb9f6182b896f6bc9d980e12c8d5f787a78d698ec120c6b664313c8b97af",
    "nonprim_growing": "1e107b2c9f41331ff42405bf657106fe8c0fe5e9f3efba29bd09db9000c12b30",
    "nonur_block": "error:PreconditionViolated",
    "paperfold4": "dfe848bbb680031fab7fe64219145b39d2d5d1316d5735c1252616b66f31c816",
    "paperfold_coded": "c4a6265b496b48b7b3bdc13b3867b22142f3aa3ca10992fb77fd629feb6fbbf1",
    "pell": "42d44171b8aec7f50c5809e66cbefe43a4613c6720c664df4309639cb9d238e9",
    "period_doubling": "b4430d4a4a1348750275844d047dcd1656999e8688d1fb2cbdb7cfcd31b03432",
    "periodic_coded": "2e95ac37fafa10dd4a1ef3bf4076a3c87bc20de1b30540dd4a14e9d942268725",
    "periodic_growing": "1e936464e2ddb4c2b4344f6484a4b9cba08c7ddcfb80e9ff118d58f2f340221d",
    "rand4": "d6d772f511362a562d54488b1078cb3d4c70351a86a39da1e82eec83c636f9a4",
    "rudin_shapiro": "410bd79284c2bd3ecadc5df06d8b7d2b396651d8ef34e953d4f7cb19ac8807c2",
    "rudin_shapiro_coded": "f6101b2d398bea35ea1dfc7664e0a5a38789cd21b4a5d83d49b3daa7eba7a527",
    "silver": "9ca8419df9886bb62cb48cfa184885a512c51e62bcc352a6d21435efa8101922",
    "sturmian_ab": "ca4c21892bf483502e3c66075c275f185390af92810b6042586ecce029a237e9",
    "tail_fin": "error:PreconditionViolated",
    "tail_fin_const": "error:PreconditionViolated",
    "thue_morse": "32d613928d16b1b2fba04a00ce518540716f05e37c671afe6536edd4ce2874b1",
    "tribonacci": "426c31fa3437b92d2339f276d8cb400c928d1948d4bab15e97410e4e21bb128d",
    "twisted_tm": "38bcf2046fc3661cd22ad02446ee4e4f3da9f51526d66450fcf1c9239b4d9aad",
    "unreachable_extra": "00d78d3c35704deb0d6b8f8328deb4a6afd6d5e56b1387168ecb9ba3efcd8330",
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
        assert env.pop("format") == cli.FORMAT_VERSION
        got = hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()
    assert got == GOLDEN[name]


def test_every_fast_catalog_entry_is_pinned():
    assert set(GOLDEN) | set(SLOW) == {e.name for e in catalog.entries()}
    assert not set(GOLDEN) & set(SLOW)
