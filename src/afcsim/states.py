"""Two-qubit time-bin states, entanglement metrics, and density-matrix I/O.

The basis order is fixed to (|ee>, |el>, |le>, |ll>).  The first letter
labels the signal qubit, the second the idler qubit; e/l are the early and
late temporal modes.  A density matrix is a plain complex array, one
``(4, 4)`` matrix or a ``(..., 4, 4)`` stack.  Every metric broadcasts over
the leading axes (a float for one matrix, an array for a stack) and routes
its input through :func:`nearest_psd` first, so matrices rounded to a few
decimals (e.g. the bundled reference matrices) are handled without fuss.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = [
    "BASIS_LABELS",
    "KET_E",
    "KET_L",
    "KET_D",
    "KET_R",
    "bell_psi_plus",
    "projector",
    "werner_state",
    "random_density_matrix",
    "nearest_psd",
    "fidelity",
    "purity",
    "concurrence",
    "entanglement_of_formation",
    "binary_entropy",
    "trace_distance",
    "format_density_matrix",
    "parse_density_matrix",
    "save_density_matrix",
    "load_density_matrix",
]

BASIS_LABELS = ("ee", "el", "le", "ll")

# Single time-bin qubit states: early, late, diagonal, circular.
KET_E = np.array([1.0, 0.0], dtype=complex)
KET_L = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)

# Repair limits for nearest_psd: inputs worse than this are treated as
# corrupted rather than rounded.
_REPAIR_HERM_ATOL = 1e-6
_REPAIR_TRACE_ATOL = 1e-2
_REPAIR_EIG_FLOOR = -0.05

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def bell_psi_plus() -> np.ndarray:
    """The maximally entangled state (|ee> + |ll>) / sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi|."""
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def werner_state(visibility: float) -> np.ndarray:
    """V |Psi+><Psi+| + (1 - V) I/4."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    return visibility * projector(bell_psi_plus()) + (1.0 - visibility) * np.eye(4) / 4.0


def random_density_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    """Random full-rank density matrix from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2).conj()


def _as_matrix(rho) -> np.ndarray:
    m = np.asarray(rho, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix or a stack of them, got shape {m.shape}")
    return m


def _scalar(x):
    """A float for one matrix, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def nearest_psd(matrix) -> np.ndarray:
    """Repair a near-valid Hermitian matrix, or each of a stack, into a
    proper state.

    Symmetrizes, clips negative eigenvalues at zero, and renormalizes the
    trace to one.  Idempotent on already-valid states.  Inputs that are
    non-Hermitian beyond 1e-6, have trace further than 1e-2 from one, or an
    eigenvalue below -0.05 are rejected as corrupted rather than rounded.
    """
    m = _as_matrix(matrix)
    if np.max(np.abs(m - _dagger(m))) > _REPAIR_HERM_ATOL:
        raise ValueError("input is not Hermitian within repair tolerance (1e-6)")
    tr = np.trace(m, axis1=-2, axis2=-1)
    far = (np.abs(tr.real - 1.0) > _REPAIR_TRACE_ATOL) | (np.abs(tr.imag) > _REPAIR_TRACE_ATOL)
    if far.any():
        raise ValueError(f"trace {tr[far].flat[0]} too far from 1 to repair")
    sym = 0.5 * (m + _dagger(m))
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() < _REPAIR_EIG_FLOOR:
        raise ValueError(
            f"eigenvalue {vals.min():.4f} below repair floor {_REPAIR_EIG_FLOOR}; "
            "input looks corrupted, not rounded"
        )
    clipped = np.clip(vals, 0.0, None)
    repaired = (vecs * clipped[..., None, :]) @ _dagger(vecs)
    repaired /= np.trace(repaired, axis1=-2, axis2=-1).real[..., None, None]
    return 0.5 * (repaired + _dagger(repaired))


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[..., None, :]) @ _dagger(vecs)


def fidelity(rho, sigma):
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments; reduces to <psi|rho|psi> when sigma is the
    pure projector |psi><psi|.  Broadcasts over leading axes.
    """
    # contiguous stacks, so each product runs as it does on one matrix
    r, s = map(np.ascontiguousarray, np.broadcast_arrays(nearest_psd(rho), nearest_psd(sigma)))
    sqrt_r = _psd_sqrt(r)
    inner = sqrt_r @ s @ sqrt_r
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    # tiny spurious eigenvalues (roundoff on rank-deficient products) blow up
    # under the square root; zero anything far below the dominant one
    vals[vals < vals.max(axis=-1, keepdims=True) * 1e-13] = 0.0
    root = np.sum(np.sqrt(vals), axis=-1)
    return _scalar(np.clip(root * root, 0.0, 1.0))


def purity(rho):
    """tr(rho^2); 0.25 for the maximally mixed state, 1 for pure states."""
    m = nearest_psd(rho)
    flat = m.reshape(m.shape[:-2] + (1, 16))
    # the row product is the BLAS dot np.vdot takes on one matrix
    return _scalar((flat.conj() @ np.swapaxes(flat, -1, -2))[..., 0, 0].real)


def concurrence(rho):
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the decreasingly ordered square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), computed here through the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho) for numerical stability.
    """
    m = nearest_psd(rho)
    sqrt_m = _psd_sqrt(m)
    herm = sqrt_m @ _YY @ m.conj() @ _YY @ sqrt_m
    vals = np.sqrt(np.clip(np.linalg.eigvalsh(herm), 0.0, None))
    lam = np.sort(vals, axis=-1)[..., ::-1]
    return _scalar(np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]))


# libm's log2, element by element: numpy's SIMD log2 differs from it in the
# last bit on some inputs, which would move the reported EoF values.
_log2 = np.vectorize(math.log2, otypes=[float])


def binary_entropy(x):
    """Base-2 entropy of a coin with bias x; h(0) = h(1) = 0."""
    x = np.asarray(x, dtype=float)
    edge = (x <= 0.0) | (x >= 1.0)
    p = np.where(edge, 0.5, x)
    h = -p * _log2(p) - (1.0 - p) * _log2(1.0 - p)
    return _scalar(np.where(edge, 0.0, h))


def entanglement_of_formation(rho):
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    c = concurrence(rho)
    return binary_entropy((1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0)


def trace_distance(rho, sigma):
    """Half the trace norm of rho - sigma."""
    diff = _as_matrix(rho) - _as_matrix(sigma)
    return _scalar(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1))


# --- text serialization -------------------------------------------------
#
# One density matrix per file: comment header, then four rows of four
# whitespace-separated "re+imj" entries, row-major in the basis order
# (ee, el, le, ll).

_HEADER = (
    "# 4x4 complex density matrix, row-major\n"
    "# basis order: ee el le ll (first letter: signal qubit, second: idler)\n"
    "# entry format: re+imj\n"
)


def format_density_matrix(matrix) -> str:
    m = _as_matrix(matrix)
    lines = [_HEADER.rstrip("\n")]
    for row in m:
        lines.append("  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row))
    return "\n".join(lines) + "\n"


def parse_density_matrix(text: str) -> np.ndarray:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([complex(tok) for tok in line.split()])
    m = np.array(rows, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4 rows of 4 entries, got shape {m.shape}")
    return m


def save_density_matrix(path, matrix) -> None:
    Path(path).write_text(format_density_matrix(matrix))


def load_density_matrix(path) -> np.ndarray:
    """Read a matrix in the text format; returns the raw (unrepaired) array."""
    return parse_density_matrix(Path(path).read_text())
