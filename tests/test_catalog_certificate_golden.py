"""Byte-level pins of every catalog certificate.

Each value is the sha256 of json.dumps(verdict.certificate.to_json_dict(),
sort_keys=True) for the catalog entry; an entry whose decision raises is
pinned to the exception's name.  Unlike the verdict pins in
test_catalog_golden.py, these leave out the constant sheet and the trace, so
a change to what a verdict reports about the work behind it keeps them,
while a change to the evidence itself does not.  DETAIL pins what verifying
each certificate reports.

The entries whose certificate DETAIL pins as a `repetition` have primitive
stages.  Their pins are of the certificate that the paper's chain, the
low pass on sigma^p, gives on the same stage (test_decider.chain_verdict),
so a change to the chain still shows here.
"""

import hashlib
import json

import pytest

from morphrec import catalog
from morphrec.decider import decide_uniform_recurrence, verify_certificate
from morphrec.errors import MorphrecError
from morphrec.system import parse_system

from test_decider import chain_verdict

GOLDEN = {
    "blown_fib": "a509d8460c2d590ada8f75f82306aeba177cfdf519a691de475b2017569ae6c3",
    "blown_nonur": "04a5b641708d634482e9b497eab07340704a3b15834d24ffb9d92d7bf271b258",
    "case1_comb": "f23cfab555fbae2561b8d83c3bbbf1b5cc312988d5d796d9b3f0d3f8c20bf7a8",
    "chacon3": "5420f59991cf49e14c7cd606a1a7ec140ac898f0998a9492fd7f76dc070c4869",
    "chacon_padded": "6f1cf0071248cbd275b7f2cd7d7de02263dbe5e9082f8f1de82863f9bbc870ce",
    "cycle_tail": "7f4b7f5271ed11f893f7b15350b1f2ba53763cf35325ccd7f795387d7563038e",
    "cycle_tail_const": "754cff766b3bdde37537917b56116e625c2018d6d4afbfe944eeb8ede41c996d",
    "erasing_sigma": "error:NormalizationUnsupported",
    "fib_cubed": "c4b6615d2cf0263ef40adad38409da1b49a9a39c2539c3c9dad29be4ed63bbe5",
    "fibonacci": "038cc53bbedb98e5fc35cc3e8e1cd7e0f6a01fc86a57c7dfb77f7a283948fc8c",
    "mixed_growth": "7f4b7f5271ed11f893f7b15350b1f2ba53763cf35325ccd7f795387d7563038e",
    "nonprim_growing": "7f4b7f5271ed11f893f7b15350b1f2ba53763cf35325ccd7f795387d7563038e",
    "nonur_block": "baa5557565870896170c04db418742aa1625a7537fdf1fbb47f26d45248833ee",
    "paperfold4": "1b71b96d36067d09bf606943f6d05e91bf6333e2adb11a8738037fd83e9b5c7f",
    "paperfold_coded": "9e22ac5b35cfffe6806c43366b17574a8c96d63f2b9b6bc1fd7e692e7a93e2b1",
    "pell": "d465dd5c98f6965f97f0d77ab37b02beca159784c235c682d1c1297f2fd348bb",
    "period_doubling": "a3d3c884aa42722fb0a5419fe2ab357ba656a6b93e41e0ad23055047f76150bf",
    "periodic_coded": "040bb8fb11e3e2f1c582bf16c7105267ec6be174566a33adc4e293e3aa666ac1",
    "periodic_growing": "fc9007a1c4d80051cce05ac65948e708778421cd34eadb41f032f7da49c84d6d",
    "rand4": "c4693f0e8253ca7a82cd64effe6d35d2a95c9c0208eb3e0c127228b73551d147",
    "rudin_shapiro": "4a77164f0c19eef6f2b6b6b7c9aad28bcc0020e11b91a302fa5eb1cfd760223e",
    "rudin_shapiro_coded": "48cbe16c0ea7e43ec94e7637a737e8da7af2828ad90c2ee9b172b7360717c096",
    "silver": "46b593f49297c750c5708b8d7f3e6b1179c6e475188f5fdffcedf5344374c4dd",
    "sturmian_ab": "7be2863ecb2d8514ee85fe48635c23754c00729890f9542e8208b6437362d87a",
    "tail_fin": "7f4b7f5271ed11f893f7b15350b1f2ba53763cf35325ccd7f795387d7563038e",
    "tail_fin_const": "df38553d3e52e3292ac1cda5bfdecb88069c65a54eb83aae34d1a04ca973bff3",
    "thue_morse": "1110c6eecaf0e2ba04648e8b56a9baacedbb33aacc53619f057aad093082afa6",
    "tribonacci": "c5e99a8007f39b06a40886021f292c232470bb49bc0259666c2b5fd124b19e68",
    "twisted_tm": "73262fad6fa7124dfc084bd4a8df52d617012b078c078ccf2ec2552b46134e38",
    "unreachable_extra": "038cc53bbedb98e5fc35cc3e8e1cd7e0f6a01fc86a57c7dfb77f7a283948fc8c",
    "vtm": "1d58ac131d4f1670247ed059ed1b8ce7f4207cb1001465093470ca6d527adec1",
}


# the verification detail of each certificate, by the kind it shows
DETAIL = {
    **{
        name: {"checked": "repetition", "n": n, "m": m}
        for name, (n, m) in {
            "fibonacci": (1, 2), "thue_morse": (2, 3), "tribonacci": (1, 2), "rand4": (1, 2),
            "rudin_shapiro": (1, 2), "rudin_shapiro_coded": (4, 5), "period_doubling": (1, 2),
            "paperfold4": (1, 2), "paperfold_coded": (3, 4), "chacon3": (1, 2),
            "sturmian_ab": (1, 2), "pell": (1, 2), "vtm": (1, 2), "twisted_tm": (2, 3),
            "fib_cubed": (1, 2), "silver": (1, 3), "case1_comb": (3, 4),
            "chacon_padded": (2, 3), "blown_fib": (1, 2), "unreachable_extra": (1, 2),
        }.items()
    },
    **{
        name: {"checked": "periodic", "period": q}
        for name, q in {
            "tail_fin_const": 1, "cycle_tail_const": 1, "periodic_growing": 2,
            "periodic_coded": 1,
        }.items()
    },
    **{
        name: {"checked": "letter", "letter": "a"}
        for name in ("tail_fin", "cycle_tail", "mixed_growth", "nonprim_growing")
    },
    "nonur_block": {"checked": "periodic_mismatch", "condition": 1},
    "blown_nonur": {"checked": "periodic_mismatch", "condition": 1},
}

# the primitive stages, pinned by the chain's certificate
CHAIN = {name for name, detail in DETAIL.items() if detail["checked"] == "repetition"}


@pytest.mark.parametrize("name", [e.name for e in catalog.entries()])
def test_catalog_certificate_bytes_are_pinned(name):
    system = parse_system(catalog.get(name).text)
    try:
        verdict = (chain_verdict if name in CHAIN else decide_uniform_recurrence)(system)
    except MorphrecError as e:
        got = "error:" + type(e).__name__
    else:
        ok, detail = verify_certificate(system, verdict)
        assert ok and detail == DETAIL[name], detail
        blob = json.dumps(verdict.certificate.to_json_dict(), sort_keys=True).encode()
        got = hashlib.sha256(blob).hexdigest()
    assert got == GOLDEN[name]


def test_every_certificate_pin_names_a_catalog_entry():
    assert set(GOLDEN) == {e.name for e in catalog.entries()}
