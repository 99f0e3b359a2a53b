import numpy as np
import pytest
from hypothesis import settings

from cenizk import wire
from cenizk.rng import stream

# property tests run derandomized so the whole suite is reproducible
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def rng():
    return stream(1234, "test")


def chi_square_uniform(counts, expected=None):
    """Chi-square statistic against a uniform (or given) expectation."""
    counts = np.asarray(counts, dtype=float)
    if expected is None:
        expected = np.full(len(counts), counts.sum() / len(counts))
    return float(np.sum((counts - expected) ** 2 / expected))


# critical values at p = 0.01; a statistic BELOW the value is consistent
# with the null at the 1% level
CHI2_CRIT_1DF = 6.635
CHI2_CRIT_3DF = 11.345


def epr_message_arrays(t) -> dict:
    """The arrays of an EPR transcript's messages in protocol form, with
    counts taken from the params alone: s (ell bits, unpacked from its
    CENZ1 bit-packed form), I (int64, from the ell-bit opened mask), and
    theta_I and the deletion certificate's outcomes as sent, one uint8
    block word each. Messages the transcript does not hold are left out."""
    p = t.params
    ell = p["reps"] * p["m"] * p["m"] * p["b"]
    messages = {step: wire.decode(payload) for _, step, payload in t.messages}
    out = {"s": np.unpackbits(messages["crs"]["s"], count=ell)}
    if "proof" in messages:
        out["I"] = np.flatnonzero(np.unpackbits(messages["proof"]["opened"], count=ell)).astype(np.int64)
        out["theta_I"] = messages["proof"]["theta_I"]
    if "deletion-cert" in messages:
        out["outcomes"] = messages["deletion-cert"]["outcomes"]
    return out
