"""Readers and writers for the plain-text table formats.

Four formats share the same conventions: UTF-8, LF line endings, no
trailing whitespace, a versioned magic first line, and canonical element
order so that write-then-read is byte-stable.

    TRS 1     ternary ring: header, `q <q>`, then q^3 value lines
    QF 1      quasi-field: header, `q <q>`, q^2 addition then q^2
              multiplication lines
    APLANE 1  plane: header, `points <n>`, `lines <m>`, then m lines of
              strictly increasing point indices
    COLL 1    collineation: header, `points <n>`, then n lines `i -> p`
"""

from __future__ import annotations

import sys
from contextlib import suppress
from itertools import accumulate, islice, repeat
from operator import lt

from .errors import FormatError
from .gf import DEFAULT_MAX_ORDER
from .plane import AffinePlane
from .quasifield import QuasiField
from .ternary import TernaryRing


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise FormatError(str(exc), path=path) from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if "\r" in text or list(map(str.rstrip, lines)) != lines:
        for i, line in enumerate(lines, start=1):
            if line != line.rstrip() or "\r" in line:
                raise FormatError("trailing whitespace or CR", path=path, line_no=i)
    return lines


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class _Cursor:
    def __init__(self, path, lines):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next(self, what):
        if self.pos >= len(self.lines):
            raise FormatError(f"unexpected end of file, expected {what}",
                              path=self.path, line_no=len(self.lines) + 1)
        self.pos += 1
        return self.lines[self.pos - 1]

    def fail(self, msg):
        raise FormatError(msg, path=self.path, line_no=self.pos)

    def done(self):
        if self.pos != len(self.lines):
            raise FormatError("trailing content after table",
                              path=self.path, line_no=self.pos + 1)


def _is_number(text):
    """True iff text is a run of ASCII digits that `int` parses: `isdigit`
    alone takes other Unicode digits too, some of which `int` rejects, and
    `int` rejects more than `sys.get_int_max_str_digits()` digits (0: none)."""
    limit = sys.get_int_max_str_digits()
    return text.isascii() and text.isdigit() and not 0 < limit < len(text)


def _expect_magic(cur, magic):
    line = cur.next(f"header `{magic}`")
    if line != magic:
        cur.fail(f"expected header `{magic}`, got `{line}`")


def _expect_int_field(cur, key, minimum=0, maximum=float("inf")):
    line = cur.next(f"`{key} <value>`")
    parts = line.split(" ")
    if len(parts) != 2 or parts[0] != key or not _is_number(parts[1]):
        cur.fail(f"expected `{key} <integer>`, got `{line}`")
    value = int(parts[1])
    if value < minimum:
        cur.fail(f"{key} must be >= {minimum}, got {value}")
    if value > maximum:
        cur.fail(f"{key} must be <= {maximum}, got {value}")
    return value


def _expect_value(cur, q, what):
    line = cur.next(what)
    if not _is_number(line):
        cur.fail(f"expected a {what}, got `{line}`")
    v = int(line)
    if not 0 <= v < q:
        cur.fail(f"{what} {v} out of range 0..{q - 1}")
    return v


def _expect_values(cur, count, q, what):
    """The next `count` lines as values in 0..q-1, parsed as one block
    through a table of the forms `write_trs` gives them; when the block is
    bad, `_expect_value` reads it line by line to name the first bad line."""
    block = cur.lines[cur.pos:cur.pos + count]
    if len(block) == count:  # so q <= count: the table costs no more than the file
        with suppress(KeyError):  # a line that no writer gives
            values = tuple(map(_tokens(q).__getitem__, block))
            cur.pos += count
            return values
    return tuple(_expect_value(cur, q, what) for _ in range(count))


def _tokens(n):
    """str(p) -> p for p in 0..n-1, as the writers give p; built per call."""
    return dict(zip(map(str, range(n)), range(n)))


def read_trs(path):
    cur = _Cursor(path, _read_lines(path))
    _expect_magic(cur, "TRS 1")
    q = _expect_int_field(cur, "q", minimum=2)
    table = _expect_values(cur, q ** 3, q, "table value")
    cur.done()
    return TernaryRing(q, table)


def write_trs(path, T):
    name = list(map(str, range(T.q))).__getitem__
    _write_lines(path, ["TRS 1", f"q {T.q}", *map(name, T.table)])


def read_qf(path):
    cur = _Cursor(path, _read_lines(path))
    _expect_magic(cur, "QF 1")
    q = _expect_int_field(cur, "q", minimum=2)
    add = _expect_values(cur, q * q, q, "addition value")
    mul = _expect_values(cur, q * q, q, "multiplication value")
    cur.done()
    return QuasiField(q, add, mul)


def write_qf(path, Q):
    name = list(map(str, range(Q.q))).__getitem__
    _write_lines(path, ["QF 1", f"q {Q.q}", *map(name, Q.add_table), *map(name, Q.mul_table)])


def _point_block(block, n):
    """The lines of an APLANE block as tuples of point indices, parsed as
    one run of tokens through a table of the forms `write_plane` gives
    them, or None unless every line holds strictly increasing indices
    below n; the block is then read by `_expect_point_line`, which names
    the first bad line."""
    sizes = [raw.count(" ") + 1 for raw in block]  # tokens per line
    if n > sum(sizes):
        return None  # the table costs n; no plane has fewer incidences
    with suppress(KeyError):  # a token that `write_plane` does not give
        points = tuple(map(_tokens(n).__getitem__, " ".join(block).split(" ")))
        ends = list(accumulate(sizes))
        # strictly increasing: each point below the next, but for the
        # last of a line and the first of the line after it
        rises = list(map(lt, points, islice(points, 1, None)))
        for end in ends[:-1]:
            rises[end - 1] = True
        if all(rises):
            return list(map(points.__getitem__, map(slice, [0, *ends], ends)))
    return None


def _expect_point_line(cur, n):
    raw = cur.next("a line of point indices")
    parts = raw.split(" ")
    if not parts or any(not _is_number(p) for p in parts):
        cur.fail(f"expected space-separated point indices, got `{raw}`")
    points = tuple(int(p) for p in parts)
    if any(not 0 <= p < n for p in points):
        cur.fail("point index out of range")
    if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
        cur.fail("point indices must be strictly increasing")
    return points


def read_plane(path):
    cur = _Cursor(path, _read_lines(path))
    _expect_magic(cur, "APLANE 1")
    # at most the points of the plane of the largest field `make_field` builds
    n = _expect_int_field(cur, "points", minimum=1, maximum=DEFAULT_MAX_ORDER ** 2)
    m = _expect_int_field(cur, "lines", minimum=0)
    block = cur.lines[cur.pos:cur.pos + m]
    lines = _point_block(block, n) if len(block) == m else None
    if lines is None:
        lines = [_expect_point_line(cur, n) for _ in range(m)]
    else:
        cur.pos += m
    if lines != sorted(lines):
        cur.fail("lines are not in canonical lexicographic order")
    cur.done()
    # each line is strictly increasing, and the lines are sorted
    return AffinePlane(n, tuple(lines))


def write_plane(path, P):
    name = list(map(str, range(P.n))).__getitem__
    _write_lines(path, ["APLANE 1", f"points {P.n}", f"lines {len(P.lines)}",
                        *map(" ".join, map(map, repeat(name), P.lines))])


def read_coll(path):
    cur = _Cursor(path, _read_lines(path))
    _expect_magic(cur, "COLL 1")
    n = _expect_int_field(cur, "points", minimum=1)
    perm = []
    for i in range(n):
        raw = cur.next("a mapping line `i -> p`")
        parts = raw.split(" ")
        if (len(parts) != 3 or parts[1] != "->"
                or not _is_number(parts[0]) or not _is_number(parts[2])):
            cur.fail(f"expected `{i} -> <point>`, got `{raw}`")
        if int(parts[0]) != i:
            cur.fail(f"expected source point {i}, got {parts[0]}")
        v = int(parts[2])
        if not 0 <= v < n:
            cur.fail(f"image point {v} out of range")
        perm.append(v)
    cur.done()
    if sorted(perm) != list(range(n)):
        raise FormatError("mapping is not a permutation", path=path,
                          line_no=len(cur.lines))
    return tuple(perm)


def write_coll(path, perm):
    names = list(map(str, range(len(perm))))
    _write_lines(path, ["COLL 1", f"points {len(perm)}",
                        *map(" -> ".join, zip(names, map(names.__getitem__, perm)))])
