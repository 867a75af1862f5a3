"""Direction-number tables for the binary digital-net generator.

Table file format (one line per dimension, whitespace separated, '#' starts
a comment; a non-numeric header line is tolerated)::

    d  s  a  m_1 ... m_s

where ``d`` is the output dimension the line provides (d >= 2; dimension 1
is always the plain binary van der Corput sequence), ``s`` the recurrence
degree, ``a`` the packed recurrence coefficients (0 <= a < 2^(s-1)) and
``m_1..m_s`` the odd initial values. Every dimension from 2 to the largest
must appear exactly once. This matches the common published
new-direction-numbers text layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Initial direction numbers for output dimensions 2..8; dimension 1 is the
# van der Corput sequence and needs no table entry.
_BUILTIN_TEXT = """
# d  s  a  m_i
2  1  0  1
3  2  1  1 3
4  3  1  1 3 1
5  3  2  1 1 1
6  4  1  1 1 3 3
7  4  4  1 3 5 13
8  5  2  1 1 5 5 17
"""


@dataclass(frozen=True)
class DirectionTable:
    """Per-dimension recurrence parameters: dim -> (s, a, (m_1, ..., m_s))."""

    entries: dict[int, tuple[int, int, tuple[int, ...]]]

    @property
    def max_dim(self) -> int:
        return max(self.entries) if self.entries else 1

    def direction_integers(self, dim: int, nbits: int) -> np.ndarray:
        """Direction numbers as integers, shape (dim, nbits).

        Row ``i`` holds v_1..v_nbits for output dimension i+1, scaled so the
        point value is ``xor of selected rows / 2**nbits``.
        """
        if dim > self.max_dim:
            raise ValueError(
                f"direction table covers dimensions up to {self.max_dim}, "
                f"requested dimension {dim}"
            )
        v = np.zeros((dim, nbits), dtype=np.uint64)
        for j in range(nbits):
            v[0, j] = 1 << (nbits - 1 - j)
        for d in range(2, dim + 1):
            s, a, m_init = self.entries[d]
            m = list(m_init)
            for j in range(s, nbits):  # 0-based j, extends m_{j+1}
                new = m[j - s] ^ (m[j - s] << s)
                for k in range(1, s):
                    if (a >> (s - 1 - k)) & 1:
                        new ^= m[j - k] << k
                m.append(new)
            for j in range(nbits):
                v[d - 1, j] = m[j] << (nbits - 1 - j)
        return v


def parse_direction_lines(lines) -> DirectionTable:
    """Parse table lines; the dimensions must run 2..max, each given once."""
    entries: dict[int, tuple[int, int, tuple[int, ...]]] = {}
    line_of: dict[int, int] = {}  # the line that gave each dimension
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if not fields[0].isdigit():
            continue  # tolerate a header line like "d s a m_i"
        values = [int(f) for f in fields]
        if len(values) < 4:
            raise ValueError(f"direction table line {lineno}: expected 'd s a m_1..m_s'")
        d, s, a = values[0], values[1], values[2]
        m = tuple(values[3:])
        if d < 2:
            raise ValueError(f"direction table line {lineno}: dimension must be >= 2")
        if len(m) != s:
            raise ValueError(
                f"direction table line {lineno}: dimension {d} declares s={s} "
                f"but provides {len(m)} initial values"
            )
        if not 0 <= a < 1 << (s - 1):
            raise ValueError(f"direction table line {lineno}: a={a} must satisfy 0 <= a < 2^(s-1)")
        if any(mi % 2 == 0 or mi < 1 or mi >= (1 << (i + 1)) for i, mi in enumerate(m)):
            raise ValueError(f"direction table line {lineno}: m_i must be odd with m_i < 2^i")
        if d in entries:
            raise ValueError(f"direction table line {lineno}: dimension {d} repeats line {line_of[d]}")
        entries[d] = (s, a, m)
        line_of[d] = lineno
    after_gap = [d for d in sorted(entries) if d > 2 and d - 1 not in entries]
    if after_gap:
        d = after_gap[0]
        raise ValueError(
            f"direction table line {line_of[d]}: dimension {d} is given but dimension {d - 1} is missing"
        )
    return DirectionTable(entries)


def load_direction_file(path) -> DirectionTable:
    return parse_direction_lines(Path(path).read_text().splitlines())


DEFAULT_DIRECTIONS = parse_direction_lines(_BUILTIN_TEXT.splitlines())
