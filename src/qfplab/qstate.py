"""Pure quantum states as dense complex amplitude vectors.

States carry a register shape (a tuple of dimensions) alongside the flat
amplitude array.  Fingerprint states follow the code-superposition
construction: the uniform superposition over (index, codeword-bit) pairs,
living on an index register of dimension m and one bit register.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from .codes import BinaryCode, _check_bits, _codeword_bits, agreement_fraction
from .errors import DomainError, InputShapeError
from .guards import check

NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized complex amplitude vector over a declared register shape."""

    amplitudes: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128).ravel()
        object.__setattr__(self, "amplitudes", amps)
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "shape", shape)
        if prod(shape) != amps.size or any(s < 1 for s in shape):
            raise InputShapeError(
                f"shape {shape} does not describe {amps.size} amplitudes"
            )
        check("MAX_STATE_DIM", amps.size, "state dimension")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise DomainError(f"state is not normalized: |amps|^2 = {norm_sq!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape),
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


def random_state(shape: int | tuple[int, ...], seed) -> PureState:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    if isinstance(shape, int):
        shape = (shape,)
    dim = prod(shape)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(amps / np.linalg.norm(amps), shape)


def basis_state(dim: int, index: int) -> PureState:
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(amps, (dim,))


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """The code-superposition state for a message, plus its provenance."""

    state: PureState
    source_x: str
    code: BinaryCode
    qubit_count: int

    @property
    def code_id(self) -> str:
        return self.code.label

    def to_json(self) -> dict:
        out = self.state.to_json()
        out["x"] = self.source_x
        out["code_id"] = self.code_id
        return out


def qubits_required(code: BinaryCode) -> int:
    """ceil(log2 m) + 1: index register qubits plus the codeword-bit qubit."""
    return (code.m - 1).bit_length() + 1


def make_fingerprint(code: BinaryCode, x: str) -> Fingerprint:
    """Uniform superposition of |i>|E_i(x)> over all m codeword positions."""
    _check_bits(x, code.n, "x")
    check("MAX_FINGERPRINT_M", code.m, "fingerprint codeword length m")
    bits = _codeword_bits(code, x).astype(np.int64)
    amps = np.zeros(2 * code.m, dtype=np.complex128)
    amps[2 * np.arange(code.m) + bits] = 1.0 / np.sqrt(code.m)
    state = PureState(amps, (code.m, 2))
    return Fingerprint(state=state, source_x=x, code=code,
                       qubit_count=qubits_required(code))


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.shape != b.shape:
        raise InputShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fingerprint_overlap(a: Fingerprint, b: Fingerprint) -> Fraction:
    """<h_x|h_y> as an exact rational: the codeword agreement fraction.

    Floating-point inner products of fingerprint states carry rounding from
    the irrational amplitude 1/sqrt(m); this companion route counts agreeing
    codeword positions instead and is exact.
    """
    if a.code is not b.code and a.code.to_json() != b.code.to_json():
        raise InputShapeError("fingerprints come from different codes")
    return agreement_fraction(a.code, a.source_x, b.source_x)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; register shapes concatenate."""
    check("MAX_STATE_DIM", a.dim * b.dim, "tensor dimension")
    return PureState(np.kron(a.amplitudes, b.amplitudes), a.shape + b.shape)


def tensor_power(a: PureState, k: int) -> PureState:
    if k < 1:
        raise DomainError(f"tensor power needs k >= 1, got {k}")
    out = a
    for _ in range(k - 1):
        out = tensor(out, a)
    return out
