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
    """The 0/1 arrays of an EPR transcript's messages, unpacked from their
    CENZ1 v2 bit-packed form with counts taken from the params alone:
    s (ell bits), I (int64, from the ell-bit opened mask), theta_I
    (|I|, k) and the deletion certificate's outcomes (len(blocks), k).
    Messages the transcript does not hold are left out."""
    p = t.params
    ell, k = p["reps"] * p["m"] * p["m"] * p["b"], p["k"]
    messages = {step: wire.decode(payload) for _, step, payload in t.messages}
    out = {"s": np.unpackbits(messages["crs"]["s"], count=ell)}
    if "proof" in messages:
        I = np.flatnonzero(np.unpackbits(messages["proof"]["opened"], count=ell)).astype(np.int64)
        out["I"] = I
        out["theta_I"] = np.unpackbits(messages["proof"]["theta_I"], count=len(I) * k).reshape(len(I), k)
    if "deletion-cert" in messages:
        n = len(messages["deletion-cert"]["blocks"])
        out["outcomes"] = np.unpackbits(messages["deletion-cert"]["outcomes"], count=n * k).reshape(n, k)
    return out
