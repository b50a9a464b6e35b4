"""Random matrices with known answers, built with numpy alone."""

from __future__ import annotations

import numpy as np


def unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def with_spectrum(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    u = unitary(len(values), rng)
    return (u * values) @ u.conj().T


def density(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def kraus_channel(d_in: int, d_out: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Kraus operators (n, d_out, d_in) of a random channel: a random isometry."""
    g = rng.standard_normal((n * d_out, d_in)) + 1j * rng.standard_normal((n * d_out, d_in))
    v, _ = np.linalg.qr(g)
    return v.reshape(n, d_out, d_in)


def choi(kraus: np.ndarray) -> np.ndarray:
    """Choi matrix over (input, output), the package's convention."""
    _, d_out, d_in = kraus.shape
    c = np.einsum("kai,kbj->iajb", kraus, kraus.conj())
    return c.reshape(d_in * d_out, d_in * d_out)


def reorder(mat: np.ndarray, dims: tuple[int, ...], perm: tuple[int, ...]) -> np.ndarray:
    """Gather tensor factors: new factor i is old factor perm[i]."""
    k = len(dims)
    t = mat.reshape(dims + dims)
    t = np.transpose(t, list(perm) + [k + p for p in perm])
    return t.reshape(mat.shape)


def perturbed(mat: np.ndarray, size: float, rng: np.random.Generator) -> np.ndarray:
    """mat plus a random Hermitian matrix of Frobenius norm ``size``."""
    h = hermitian(mat.shape[0], rng)
    return mat + size * h / np.linalg.norm(h)


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
