"""Combined Tausworthe ("HybridTaus") generator, vectorized over threads.

This is the generator recommended for GPU Monte-Carlo in GPU Gems 3,
chapter 37 (Howes & Thomas), and the one the paper cites for on-device
random number generation: three Tausworthe components (periods
:math:`2^{31}-1`, :math:`2^{29}-1`, :math:`2^{28}-1`) are XOR-combined with a
linear congruential generator, giving a combined period of roughly
:math:`2^{121}`.

Each simulated GPU thread owns an independent 4-word state; the NumPy
implementation keeps all thread states in one uint32 array, stored
component-major ``(4, n_threads)``, and advances every lane per call —
the same lockstep structure the GPU kernel has.

Reference single-thread form (GPU Gems 3, fig. 37-4)::

    unsigned TausStep(unsigned &z, int S1, int S2, int S3, unsigned M) {
        unsigned b = (((z << S1) ^ z) >> S2);
        return z = (((z & M) << S3) ^ b);
    }
    unsigned LCGStep(unsigned &z) { return z = 1664525 * z + 1013904223; }
    float HybridTaus() {
        return 2.3283064365387e-10 * (
            TausStep(z1, 13, 19, 12, 4294967294UL) ^
            TausStep(z2,  2, 25,  4, 4294967288UL) ^
            TausStep(z3,  3, 11, 17, 4294967280UL) ^
            LCGStep(z4));
    }
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["HybridTaus", "TAUS_PARAMS", "taus_step", "lcg_step"]

#: (S1, S2, S3, mask) for the three Tausworthe components.
TAUS_PARAMS: tuple[tuple[int, int, int, int], ...] = (
    (13, 19, 12, 0xFFFFFFFE),
    (2, 25, 4, 0xFFFFFFF8),
    (3, 11, 17, 0xFFFFFFF0),
)

#: ``TAUS_PARAMS`` as four ``(3, 1)`` uint32 columns (S1, S2, S3, mask),
#: which step the three components' lanes in one pass.
_TAUS_COLUMNS = tuple(
    np.array(col, dtype=np.uint32)[:, None] for col in zip(*TAUS_PARAMS)
)

_LCG_A = np.uint32(1664525)
_LCG_C = np.uint32(1013904223)
#: 2**-32, mapping a uint32 into [0, 1).
_U32_TO_UNIT = 2.3283064365386963e-10

#: Tausworthe component i requires state word > 2**(S2_i) - 1 to avoid the
#: degenerate all-advance-to-zero orbit; 128 exceeds all three thresholds'
#: low-bit masks in practice (GPU Gems uses >128 as the safe floor).
MIN_STATE = 128


def taus_step(
    z: np.ndarray,
    s1: int | np.ndarray,
    s2: int | np.ndarray,
    s3: int | np.ndarray,
    mask: int | np.ndarray,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Advance Tausworthe state in place; returns the new state.

    The shifts and mask are one component's ints, or uint32 arrays that
    broadcast against ``z`` to step several components at once.
    ``scratch``, a uint32 buffer shaped like ``z``, holds the
    intermediate ``b`` instead of a fresh array.
    """
    b = np.left_shift(z, s1, out=scratch)
    np.bitwise_xor(b, z, out=b)
    np.right_shift(b, s2, out=b)
    np.bitwise_and(z, mask, out=z)
    np.left_shift(z, s3, out=z)
    np.bitwise_xor(z, b, out=z)
    return z


def lcg_step(z: np.ndarray) -> np.ndarray:
    """Advance the LCG component in place (mod 2**32); returns the new state."""
    np.multiply(z, _LCG_A, out=z)
    np.add(z, _LCG_C, out=z)
    return z


class HybridTaus:
    """Vectorized combined Tausworthe + LCG generator.

    Parameters
    ----------
    state:
        ``(n_threads, 4)`` uint32 array of per-thread states.  Words 0-2 are
        the Tausworthe components and must each be ``>= MIN_STATE``; word 3
        is the LCG state (any value).  Use
        :func:`repro.rng.streams.seed_streams` to construct well-spread
        states from a single integer seed.

    Notes
    -----
    All draw methods advance *every* thread lane — exactly what a SIMD warp
    does — so masked/conditional consumption on the caller's side does not
    desynchronize streams between runs.
    """

    def __init__(self, state: np.ndarray) -> None:
        state = np.asarray(state)
        if state.ndim != 2 or state.shape[1] != 4:
            raise ConfigurationError(
                f"state must have shape (n_threads, 4), got {state.shape}"
            )
        if state.dtype != np.uint32:
            raise ConfigurationError(f"state dtype must be uint32, got {state.dtype}")
        if np.any(state[:, :3] < MIN_STATE):
            raise ConfigurationError(
                f"Tausworthe state words must be >= {MIN_STATE} "
                "(degenerate orbits otherwise); use seed_streams()"
            )
        # Component-major, so each component's lanes are contiguous and
        # every step runs in place.
        self._state = np.ascontiguousarray(state.T)
        self._scratch = np.empty((3, state.shape[0]), dtype=np.uint32)

    @property
    def n_threads(self) -> int:
        """Number of independent lanes."""
        return self._state.shape[1]

    @property
    def state(self) -> np.ndarray:
        """A copy of the current ``(n_threads, 4)`` per-thread state (for
        checkpointing)."""
        return self._state.T.copy()

    def next_uint32(self) -> np.ndarray:
        """One uint32 per thread; advances all lanes."""
        s = self._state
        taus_step(s[:3], *_TAUS_COLUMNS, scratch=self._scratch)
        lcg_step(s[3])
        return np.bitwise_xor.reduce(s, axis=0)

    def uniform(self) -> np.ndarray:
        """One float64 in ``[0, 1)`` per thread."""
        return self.next_uint32() * _U32_TO_UNIT

    def uniforms(self, n: int) -> np.ndarray:
        """``(n, n_threads)`` uniforms; column ``t`` is thread ``t``'s stream."""
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        out = np.empty((n, self.n_threads), dtype=np.float64)
        for i in range(n):
            out[i] = self.uniform()
        return out

    def normal(self) -> np.ndarray:
        """One standard-normal float64 per thread (Box-Muller, 2 uniforms).

        Matches the paper's accounting of *three* uniforms per MH
        parameter update: two for the Gaussian proposal increment (this
        call) and one for the accept/reject test (:meth:`uniform`).
        """
        from repro.rng.boxmuller import box_muller

        u1 = self.uniform()
        u2 = self.uniform()
        return box_muller(u1, u2)

    def jump(self, n: int) -> None:
        """Advance all lanes by ``n`` draws without returning values."""
        for _ in range(n):
            self.next_uint32()
