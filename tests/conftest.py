import numpy as np
import pytest

from mp2q import hfdata


@pytest.fixture(scope="session")
def helium():
    return hfdata.load(hfdata.helium_fixture_path())


@pytest.fixture(scope="session")
def helium_blocks(helium):
    return hfdata.helium_blocks(helium)


def random_block(rng, label="R", n_codes=16, gamma_max=0.3,
                 den_range=(0.5, 5.0), zero_at=None) -> hfdata.EriBlock:
    """Synthetic ground-state-like block: one zero gamma entry for the base state."""
    gamma = rng.uniform(0.0, gamma_max, n_codes)
    if zero_at is None:
        zero_at = int(rng.integers(0, n_codes))
    gamma[zero_at] = 0.0
    dens = -rng.uniform(den_range[0], den_range[1], n_codes)
    q = (n_codes - 1).bit_length()
    half = q // 2
    r_orbs = tuple(range(1 << (q - half)))
    s_orbs = tuple(range(1 << half))
    return hfdata.EriBlock(label, (0, 0), r_orbs, s_orbs, gamma, dens)


def uint_generator(block: hfdata.EriBlock, base_state: int) -> np.ndarray:
    """Dense V with exp(i*lambda*V)|y> = U_INT(lambda)|0>."""
    q = block.n_qubits
    dim = 1 << q
    v = np.zeros((dim, dim))
    for code in range(dim):
        g = float(block.gamma[code])
        if code == base_state or g == 0.0:
            continue
        mask = code ^ base_state
        idx = np.arange(dim)
        v[idx ^ mask, idx] += g
    return v
