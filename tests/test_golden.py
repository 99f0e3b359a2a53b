"""Golden transcript digests: SHA-256 of serialize_transcript(run_session(...))
for fixed seeds. Any change to a verdict, an RNG draw order or a CENZ1
byte shows up here."""

import hashlib

import pytest

from cenizk.harness import run_session, serialize_transcript

GOLDEN = {
    ("epr", 0): "e18e37f0b8757ead19febf4968926a18de2f7180b3a0c30acd7d58591ffb5ec0",
    ("epr", 1): "0c4efbb5817f55be12cc71d11908bc9cdc506273b5770f37f38f318be74dd2bd",
    ("epr", 2): "8b88d9923dfae201cd44862bcb2a6beccdd1512e77cac6302adb9cd04266dbaa",
    ("epr", 3): "6aabcfb40e52f9f739a29077192d8be362d505902afc0c8ca839b854b1fa6168",
    ("epr", 4): "90a4de33fef0e3369a81cf00b1a63cff42295437bbf1c1e1d24eba2c6a5ffc16",
    ("crs-toy", 0): "014327ef7024f6362e2ff7edf4f7f20023f18572e631f976a34ce2cdd9494d75",
    ("crs-toy", 1): "94cce7718df47860a9f01ee82e55774fbd24874f2a005e294fe10e322f98cc29",
    ("crs-toy", 2): "82378fe9534a4ecc4e9a7b7affac37df71c0ec3f2d4d06ac4e3a1709476f319d",
    ("crs-toy", 3): "207e25f3833d34a9c1990a1adcf49fa99e8756e5324680e041b987cfe9030cc2",
    ("crs-toy", 4): "7b90aaaf6a4e2eb4f76a12f99ab9d6ef99a7b60127dbd89ebef6366cc8679967",
    ("crs-dry", 0): "fcb611bc7ca6f4c514b01e085bccbbba3a718635e0d36971de28de78516046be",
    ("crs-dry", 1): "85c043752905b158ca5dcd6307bec4415239adab3a1c719e3976486b380969be",
    ("crs-dry", 2): "2f1592f4dc60e61eceaa056307a903ebe9bc233dbeef073c8914ee407be36fe9",
    ("crs-dry", 3): "e407e72b3c36d989b26c92c2316cde3299114d43800ab2ab1520672bb9f3a9f2",
    ("crs-dry", 4): "8f82a1af5825c5fc5efe332496f2b0e7aaf1edab647f1685907778502913239b",
}

# criterion-1 shape: 4,915,200 EPR pairs
CRITERION_1 = {"n": 4, "reps": 20, "m": 64, "b": 10, "k": 6, "hbg": "dealer", "hbg_s": 12}
CRITERION_1_SEED0 = "0e09d547a29f4fb9b63c0c02de1e1c568526e04ab179be92f9dde24754caf69d"


def _digest(protocol, params, seed):
    return hashlib.sha256(serialize_transcript(run_session(protocol, params, seed))).hexdigest()


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_default_session_digest(protocol, seed):
    assert _digest(protocol, None, seed) == GOLDEN[(protocol, seed)]


def test_criterion_1_session_digest():
    assert _digest("epr", CRITERION_1, 0) == CRITERION_1_SEED0
