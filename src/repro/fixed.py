"""Saturating fixed-point arithmetic shared by the whole tool chain.

The audio core computes on two's-complement fractional fixed point
(Q15 by default: 16-bit words, 15 fraction bits).  The *same* functions
are used by the golden reference interpreter (:mod:`repro.lang`) and by
the cycle-accurate core simulator (:mod:`repro.sim`), so end-to-end
equivalence checks compare bit-exact integers, never floats.

Conventions
-----------
* Values travel as Python ints in ``[-2**(w-1), 2**(w-1) - 1]``.
* ``add``/``sub``/``pass`` wrap around (plain two's complement).
* ``add_clip``/``pass_clip`` saturate — the paper's *clip actions*.
* ``mult`` is the classic DSP fractional multiply:
  ``(a * b) >> frac`` followed by wrap-around.  The single overflow
  case (-1.0 × -1.0) wraps to -1.0, as hardware multipliers without a
  saturation stage do.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FixedFormat:
    """A two's-complement fixed-point format."""

    width: int = 16
    frac_bits: int = 15

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError("fixed-point width must be >= 2")
        if not 0 <= self.frac_bits < self.width:
            raise ValueError("fraction bits must be in [0, width)")

    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def max_value(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    # -- conversions ----------------------------------------------------

    def wrap(self, value: int) -> int:
        """Reduce to the representable range with two's-complement wrap."""
        mask = (1 << self.width) - 1
        value &= mask
        if value > self.max_value:
            value -= 1 << self.width
        return value

    def clip(self, value: int) -> int:
        """Saturate to the representable range (the paper's clip)."""
        if value > self.max_value:
            return self.max_value
        if value < self.min_value:
            return self.min_value
        return value

    def from_float(self, x: float) -> int:
        """Quantise a real coefficient; saturates at the rails."""
        return self.clip(round(x * self.scale))

    def to_float(self, value: int) -> float:
        return value / self.scale

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.wrap(a + b)

    def add_clip(self, a: int, b: int) -> int:
        return self.clip(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.wrap(a - b)

    def mult(self, a: int, b: int) -> int:
        return self.wrap((a * b) >> self.frac_bits)

    def pass_(self, a: int) -> int:
        return self.wrap(a)

    def pass_clip(self, a: int) -> int:
        return self.clip(a)

    def asr(self, a: int, shift: int) -> int:
        """Arithmetic shift right: scaling by ``2**-shift`` with floor
        rounding — bit-identical to ``mult`` by the power-of-two
        coefficient ``2**(frac_bits - shift)``."""
        return self.wrap(a >> shift)

    def apply(self, operation: str, *args: int) -> int:
        """Dispatch by operation usage name (shared op semantics table).

        ``asr<k>`` names (shift distance encoded in the opcode, see
        :func:`repro.arch.opu.standard_shift_operations`) dispatch to
        :meth:`asr` for any distance.
        """
        handler = _OPERATIONS.get(operation)
        if handler is None:
            if (operation.startswith("asr") and operation[3:].isdigit()
                    and len(args) == 1):
                return self.asr(args[0], int(operation[3:]))
            raise ValueError(f"no fixed-point semantics for operation {operation!r}")
        return handler(self, *args)


def _dispatch_add(fmt: FixedFormat, a: int, b: int) -> int:
    return fmt.add(a, b)


def _dispatch_add_clip(fmt: FixedFormat, a: int, b: int) -> int:
    return fmt.add_clip(a, b)


def _dispatch_sub(fmt: FixedFormat, a: int, b: int) -> int:
    return fmt.sub(a, b)


def _dispatch_mult(fmt: FixedFormat, a: int, b: int) -> int:
    return fmt.mult(a, b)


def _dispatch_pass(fmt: FixedFormat, a: int) -> int:
    return fmt.pass_(a)


def _dispatch_pass_clip(fmt: FixedFormat, a: int) -> int:
    return fmt.pass_clip(a)


_OPERATIONS = {
    "add": _dispatch_add,
    "add_clip": _dispatch_add_clip,
    "sub": _dispatch_sub,
    "mult": _dispatch_mult,
    "pass": _dispatch_pass,
    "pass_clip": _dispatch_pass_clip,
}


def has_semantics(operation: str) -> bool:
    """Whether :meth:`FixedFormat.apply` can interpret ``operation``.

    True for the shared semantics table plus the ``asr<k>`` opcode
    family.  The random-DFG generator (:mod:`repro.gen`) uses this to
    restrict its draws from a core's OPU library to operations the
    golden reference can execute — custom ASU operations without
    fixed-point semantics cannot be differentially checked.
    """
    return operation in _OPERATIONS or (
        operation.startswith("asr") and operation[3:].isdigit()
    )

#: The default format of the library cores.
Q15 = FixedFormat(width=16, frac_bits=15)
