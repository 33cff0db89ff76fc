"""Two-qubit time-bin states, entanglement metrics, and density-matrix I/O.

The basis order is fixed to (|ee>, |el>, |le>, |ll>).  The first letter
labels the signal qubit, the second the idler qubit; e/l are the early and
late temporal modes.  All metric functions accept either a raw 4x4 complex
array or a :class:`TwoQubitState` and route the input through
:func:`nearest_psd` first, so matrices rounded to a few decimals (e.g. the
bundled reference matrices) are handled without fuss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "BASIS_LABELS",
    "KET_E",
    "KET_L",
    "KET_D",
    "KET_R",
    "TwoQubitState",
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

# Validation tolerances for a well-formed state.
HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8

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


@dataclass(frozen=True)
class TwoQubitState:
    """A validated 4x4 density matrix in the (ee, el, le, ll) basis.

    Instances are only created through :meth:`from_matrix` (strict) or
    :func:`nearest_psd` (repairs rounding), so the invariants — Hermitian,
    unit trace, positive semidefinite — hold by construction.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_matrix(cls, matrix) -> "TwoQubitState":
        m = np.asarray(matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > TRACE_ATOL or abs(np.trace(m).imag) > TRACE_ATOL:
            raise ValueError(f"trace must be 1, got {np.trace(m)}")
        if np.linalg.eigvalsh(m).min() < EIGENVALUE_FLOOR:
            raise ValueError("matrix has a significantly negative eigenvalue")
        return cls(m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, TwoQubitState):
        return np.asarray(rho.matrix)
    m = np.asarray(rho, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def nearest_psd(matrix) -> TwoQubitState:
    """Repair a near-valid Hermitian matrix into a proper state.

    Symmetrizes, clips negative eigenvalues at zero, and renormalizes the
    trace to one.  Idempotent on already-valid states.  Inputs that are
    non-Hermitian beyond 1e-6, have trace further than 1e-2 from one, or an
    eigenvalue below -0.05 are rejected as corrupted rather than rounded.
    """
    m = _as_matrix(matrix)
    if np.max(np.abs(m - m.conj().T)) > _REPAIR_HERM_ATOL:
        raise ValueError("input is not Hermitian within repair tolerance (1e-6)")
    tr = np.trace(m)
    if abs(tr.real - 1.0) > _REPAIR_TRACE_ATOL or abs(tr.imag) > _REPAIR_TRACE_ATOL:
        raise ValueError(f"trace {tr} too far from 1 to repair")
    sym = 0.5 * (m + m.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() < _REPAIR_EIG_FLOOR:
        raise ValueError(
            f"eigenvalue {vals.min():.4f} below repair floor {_REPAIR_EIG_FLOOR}; "
            "input looks corrupted, not rounded"
        )
    clipped = np.clip(vals, 0.0, None)
    repaired = (vecs * clipped) @ vecs.conj().T
    repaired /= np.trace(repaired).real
    return TwoQubitState(0.5 * (repaired + repaired.conj().T))


def _repaired(rho) -> np.ndarray:
    return np.asarray(nearest_psd(rho).matrix)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Symmetric in its arguments; reduces to <psi|rho|psi> when sigma is the
    pure projector |psi><psi|.
    """
    r = _repaired(rho)
    s = _repaired(sigma)
    sqrt_r = _psd_sqrt(r)
    inner = sqrt_r @ s @ sqrt_r
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    # tiny spurious eigenvalues (roundoff on rank-deficient products) blow up
    # under the square root; zero anything far below the dominant one
    vals[vals < vals.max() * 1e-13] = 0.0
    f = float(np.sum(np.sqrt(vals)) ** 2)
    return min(max(f, 0.0), 1.0)


def purity(rho) -> float:
    """tr(rho^2); 0.25 for the maximally mixed state, 1 for pure states."""
    m = _repaired(rho)
    return float(np.vdot(m, m).real)


def concurrence(rho) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the decreasingly ordered square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), computed here through the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho) for numerical stability.
    """
    m = _repaired(rho)
    sqrt_m = _psd_sqrt(m)
    herm = sqrt_m @ _YY @ m.conj() @ _YY @ sqrt_m
    vals = np.sqrt(np.clip(np.linalg.eigvalsh(herm), 0.0, None))
    lam = np.sort(vals)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def binary_entropy(x: float) -> float:
    """Base-2 entropy of a coin with bias x; h(0) = h(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def entanglement_of_formation(rho) -> float:
    """Two-qubit entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    c = concurrence(rho)
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma."""
    diff = _as_matrix(rho) - _as_matrix(sigma)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


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
