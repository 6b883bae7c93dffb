"""Pinned deterministic PRNG for the synthetic graph generators.

The generators must reproduce bit-identical graphs for a given seed on every
platform, so they draw from SplitMix64 (Steele et al. / Vigna's reference
implementation) rather than from a runtime-dependent generator. The first
three outputs for seed 42 are

    13679457532755275413, 2949826092126892291, 5139283748462763858

and are asserted in the test suite; see README for the full recipe.
"""

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit PRNG: the state advances by a fixed odd gamma and each output
    is a bijective scramble of the state. Period 2**64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n
