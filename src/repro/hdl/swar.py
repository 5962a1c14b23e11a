"""SWAR (SIMD-within-a-register) slot layout for lane-packed values.

The batched simulator (:mod:`repro.hdl.batch`) keeps ``n`` lanes of a
``w``-bit signal (``2 <= w <= 33``) in one big integer of ``n``
fixed-size slots: lane ``l`` holds bits ``[l * pitch, l * pitch + w)``.
The code generator picks one ``pitch`` per design, one more than the
widest packed signal, so every slot has at least one zero *guard bit*
above its value.  This module owns that geometry: the per-width masks,
state packing, and the conversion between slot-spaced and
lane-contiguous 1-bit flags.  It holds no arithmetic.

Guard-band invariant
--------------------

A packed word is *canonical* when every bit outside the per-slot value
regions is zero.  The SWAR formulas exist once, emitted inline into
the generated step by ``_BatchCodeGen.wval``, ``dform`` and
``_cmp_guards`` with this layout's masks bound as factory locals.
Each consumes and produces canonical words, and each relies on a bound
that keeps one slot's intermediate inside its own slot:

* ``add``: a slot sum is ``< 2**(w+1) <= 2**pitch``, so the carry lands
  in the guard band and :meth:`SwarLayout.vmask` clears it;
* ``sub``/``neg``: the minuend is first OR-ed with :meth:`gmask`
  (``2**w`` per slot), so the slot difference stays in
  ``[1, 2**(w+1))`` and no borrow crosses a slot boundary;
* compares: ``(x | G) - y`` keeps the guard bit iff ``x >= y``
  (signed compares first flip :meth:`smask`); the result is one 0/1
  flag at every slot base;
* constant shifts mask to :meth:`vmask` ``(w - k)`` before a left shift
  and after a right one, so no bit crosses into a neighbour;
* ``mux``: a slot-base flag ``d`` widens to the value mask
  ``(d << w) - d``.

Slot-base flags feed SWAR muxes directly; the packed 1-bit tag world
wants them *lane-contiguous* (bit ``l`` = lane ``l``).  :meth:`compress`
and :meth:`spread` convert between the two with one multiply when the
lanes fit under the pitch, and with ``O(log n)`` binary-doubling steps
otherwise -- never a per-lane loop.

``tests/test_swar.py`` checks the layout directly and runs the emitted
formulas, one operator per signal, against the scalar simulator at
the minimum guard band (``pitch = w + 1``).
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Sequence

#: Widest signal the SWAR tier packs (the 33-bit tagged-word boundary).
SWAR_MAX_WIDTH = 33


class SwarLayout:
    """Slot geometry and precomputed masks for ``lanes`` slots of
    ``pitch`` bits each.

    Masks are built lazily per width and cached -- a layout is shared by
    every signal of a module (the batched codegen picks one ``pitch``
    for the whole design), so the per-width dictionaries stay tiny.
    """

    def __init__(self, pitch: int, lanes: int):
        if pitch < 2:
            raise ValueError(f"slot pitch must be >= 2, got {pitch}")
        if lanes < 1:
            raise ValueError(f"lane count must be >= 1, got {lanes}")
        self.pitch = pitch
        self.lanes = lanes
        #: one set bit at the base of every slot
        self.unit = sum(1 << (lane * pitch) for lane in range(lanes))
        #: lane-contiguous all-ones (the packed-1-bit world's ONES)
        self.lane_ones = (1 << lanes) - 1
        self._vmask: dict[int, int] = {}
        self._gmask: dict[int, int] = {}
        self._smask: dict[int, int] = {}
        # binary-doubling schedules for compress/spread: before step k
        # (group size g = 2**k), lane l's bit sits at
        # (l // g) * g * pitch + (l % g); each step merges odd groups
        # into the even group below them.
        self._steps: list[tuple[int, int, int, int]] = []
        g = 1
        while g < lanes:
            blk = 2 * g
            shift = g * (pitch - 1)
            keep = 0
            for base in range(0, lanes, blk):
                keep |= ((1 << blk) - 1) << (base * pitch)
            low = 0
            for base in range(0, lanes, blk):
                low |= ((1 << g) - 1) << (base * pitch)
            self._steps.append((shift, keep, low, keep ^ low))
            g = blk
        # one-multiply gather/scatter magics.  With n <= pitch - 1 the
        # partial products x * sum(2**(j*(pitch-1))) occupy pairwise
        # distinct bit positions (pitch and pitch-1 are coprime and the
        # lane index is too small to alias), so a single multiplication
        # moves every lane bit without carries:
        #   compress: diagonal terms land contiguously at (n-1)*(pitch-1)
        #   spread:   diagonal terms are the only ones on slot bases
        self._magic = None
        if 1 < lanes <= pitch - 1:
            magic = sum(1 << (j * (pitch - 1)) for j in range(lanes))
            self._magic = (magic, (lanes - 1) * (pitch - 1))

    # -- masks --------------------------------------------------------------

    def replicate(self, value: int, width: int) -> int:
        """*value* (masked to *width* bits) copied into every slot."""
        if width > self.pitch - 1:
            raise ValueError(f"width {width} does not fit pitch {self.pitch}")
        return (value & ((1 << width) - 1)) * self.unit

    def vmask(self, width: int) -> int:
        """Value mask: the low *width* bits of every slot."""
        m = self._vmask.get(width)
        if m is None:
            m = self._vmask[width] = self.replicate((1 << width) - 1, width)
        return m

    def gmask(self, width: int) -> int:
        """Guard mask: bit *width* of every slot."""
        m = self._gmask.get(width)
        if m is None:
            if width > self.pitch - 1:
                raise ValueError(f"width {width} does not fit pitch {self.pitch}")
            m = self._gmask[width] = (1 << width) * self.unit
        return m

    def smask(self, width: int) -> int:
        """Sign mask: bit *width - 1* of every slot."""
        m = self._smask.get(width)
        if m is None:
            m = self._smask[width] = (1 << (width - 1)) * self.unit
        return m

    # -- layout conversion --------------------------------------------------

    def compress(self, x: int) -> int:
        """Bits at slot bases (``l * pitch``) gathered to bit ``l``."""
        if self._magic is not None:
            magic, shift = self._magic
            return ((x * magic) >> shift) & self.lane_ones
        for shift, keep, _, _ in self._steps:
            x = (x | (x >> shift)) & keep
        return x

    def spread(self, x: int) -> int:
        """Bit ``l`` scattered to the base of slot ``l`` (compress⁻¹)."""
        if self._magic is not None:
            return (x * self._magic[0]) & self.unit
        for shift, _, low, high in reversed(self._steps):
            x = (x & low) | ((x & high) << shift)
        return x

    def compressor(self):
        """:meth:`compress` as a minimal closure (the batched step calls
        it hundreds of times per cycle, so dispatch overhead matters)."""
        if self._magic is not None:
            magic, shift = self._magic
            ones = self.lane_ones
            return lambda x: ((x * magic) >> shift) & ones
        return self.compress

    def spreader(self):
        """:meth:`spread` as a minimal closure."""
        if self._magic is not None:
            magic = self._magic[0]
            unit = self.unit
            return lambda x: (x * magic) & unit
        return self.spread

    # -- state packing ------------------------------------------------------

    def pack(self, values: Sequence[int], width: int) -> int:
        """Per-lane *values* packed into one canonical word."""
        mask = (1 << width) - 1
        word = 0
        for lane, v in enumerate(values):
            word |= (v & mask) << (lane * self.pitch)
        return word

    def get(self, word: int, lane: int, width: int) -> int:
        return (word >> (lane * self.pitch)) & ((1 << width) - 1)

    def set(self, word: int, lane: int, width: int, value: int) -> int:
        slot = ((1 << width) - 1) << (lane * self.pitch)
        return (word & ~slot) | ((value & ((1 << width) - 1)) << (lane * self.pitch))


@lru_cache(maxsize=64)
def get_layout(pitch: int, lanes: int) -> SwarLayout:
    """Shared :class:`SwarLayout` instances (mask tables are reused)."""
    return SwarLayout(pitch, lanes)
