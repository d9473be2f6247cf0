import pytest

from quadcert.certify import build_certificate


def squarefree_sieve(limit: int):
    """Independent sieve: squarefree n in [2, limit)."""
    flags = bytearray([1]) * limit
    d = 2
    while d * d < limit:
        for m in range(d * d, limit, d * d):
            flags[m] = 0
        d += 1
    return [n for n in range(2, limit) if flags[n]]


@pytest.fixture(scope="session")
def cert_m1():
    return build_certificate(1, base="minimal")


@pytest.fixture(scope="session")
def cert_m2():
    return build_certificate(2, base="minimal")


@pytest.fixture(scope="session")
def cert_m3():
    return build_certificate(3, base="minimal")


@pytest.fixture(scope="session")
def cert_refuted_13():
    return build_certificate(1, force_D=13)
