"""Line-oriented text formats for rings and modules.

Ring files:

    [ring]
    name = r3
    p = 2
    dim = 2
    unit = 1 0
    mul 0 0 = 1 0
    mul 0 1 = 0 1
    mul 1 1 = 0 0

`mul i j` is required once for every 0 <= i <= j < dim; the symmetric
pair is auto-filled, so a `mul j i` line with j > i is an error.  Module
files:

    [module]
    name = k
    ring = r3
    dim = 1
    act 0 = 1
    act 1 = 0

with exactly one `act i` line per ring basis index; rows are separated
by `/`.
`#` starts a comment; integers are whitespace separated, must fit in
64 bits, and are reduced mod p on load.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError, UnknownRing
from .module import Module
from .ring import validate_ring


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_ints(value, lineno):
    try:
        ints = [int(tok) for tok in value.split()]
    except ValueError:
        raise ParseError("expected whitespace-separated integers, got %r"
                         % value, line=lineno)
    if any(not -2 ** 63 <= n < 2 ** 63 for n in ints):
        raise ParseError("integers must fit in 64 bits", line=lineno)
    return ints


def _split_assignment(line, lineno):
    if "=" not in line:
        raise ParseError("expected 'key = value'", line=lineno)
    key, value = line.split("=", 1)
    return key.strip(), value.strip()


def _parse_rows(value, lineno):
    return [_parse_ints(chunk, lineno)
            for chunk in value.split("/")] if value else []


def _int_field(fields, key, least=None):
    """The integer value of a field; a bad value is blamed on its line."""
    value, lineno = fields[key]
    try:
        n = int(value)
    except ValueError:
        raise ParseError("%s must be an integer" % key, line=lineno)
    if least is not None and n < least:
        raise ParseError("%s must be at least %d" % (key, least), line=lineno)
    return n


def _read_section(text, section, fields, usage, parse_value):
    """(header line, {field: (value, line)}, {indices: (parsed value,
    line)}) of a one-section file whose indexed lines are keyed as
    `usage`, e.g. "mul <i> <j>".  A repeated line or decreasing indices
    are rejected."""
    word, arity = usage.split()[0], len(usage.split()) - 1
    header = None
    values = {}
    indexed = {}
    for lineno, line in _logical_lines(text):
        if line.startswith("["):
            if header is not None:
                raise ParseError("duplicate section header", line=lineno)
            if line != "[%s]" % section:
                raise ParseError("expected [%s] section, got %r"
                                 % (section, line), line=lineno)
            header = lineno
            continue
        if header is None:
            raise ParseError("content before [%s] header" % section,
                             line=lineno)
        key, value = _split_assignment(line, lineno)
        parts = key.split()
        if parts[:1] == [word]:
            if len(parts) != arity + 1:
                raise ParseError("expected '%s = ...'" % usage, line=lineno)
            try:
                idx = tuple(int(part) for part in parts[1:])
            except ValueError:
                raise ParseError(
                    "%s index must be an integer" % word if arity == 1
                    else "%s indices must be integers" % word, line=lineno)
            if idx in indexed:
                raise ParseError("repeated '%s' line" % key, line=lineno)
            if list(idx) != sorted(idx):
                raise ParseError("'%s' needs i <= j" % key, line=lineno)
            indexed[idx] = (parse_value(value, lineno), lineno)
        elif key in fields:
            if key in values:
                raise ParseError("duplicate field %r" % key, line=lineno)
            values[key] = (value, lineno)
        else:
            raise ParseError("unknown field %r" % key, line=lineno)
    if header is None:
        raise ParseError("missing [%s] section" % section, line=1)
    for required in fields:
        if required not in values:
            raise ParseError("missing field %r" % required, line=header)
    return header, values, indexed


def parse_ring(text):
    """Parse and fully validate a ring file."""
    header, fields, muls = _read_section(
        text, "ring", ("name", "p", "dim", "unit"), "mul <i> <j>",
        _parse_ints)
    name = fields["name"][0]
    p = _int_field(fields, "p")
    dim = _int_field(fields, "dim", least=0)
    unit = _parse_ints(*fields["unit"])
    if len(unit) != dim:
        raise ParseError("unit must have %d coordinates" % dim,
                         line=fields["unit"][1])
    # every line is checked before the dim^3 table is allocated, so
    # memory stays bounded by the size of the text
    for i in range(dim):
        for j in range(i, dim):
            if (i, j) not in muls:
                raise ParseError("missing 'mul %d %d' line" % (i, j),
                                 line=header)
            coords, lineno = muls[(i, j)]
            if len(coords) != dim:
                raise ParseError("mul %d %d must have %d coordinates"
                                 % (i, j, dim), line=lineno)
    for (i, j), (_, lineno) in muls.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError("mul indices out of range", line=lineno)
    struct = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), (coords, _) in muls.items():
        struct[i, j] = coords
        struct[j, i] = coords
    return validate_ring(name, p, dim, unit, struct)


def parse_module(text, ring_table):
    """Parse and validate a module file against the given rings."""
    header, fields, acts = _read_section(
        text, "module", ("name", "ring", "dim"), "act <i>", _parse_rows)
    ring_name = fields["ring"][0]
    if ring_name not in ring_table:
        raise UnknownRing("module references unknown ring %r" % ring_name)
    ring = ring_table[ring_name]
    dim = _int_field(fields, "dim", least=0)
    # every line is checked before the action table is allocated
    for i in range(ring.dim):
        if (i,) not in acts:
            raise ParseError("missing 'act %d' line" % i, line=header)
        rows, lineno = acts[(i,)]
        if dim == 0:
            if any(row for row in rows):
                raise ParseError("act %d must be empty for dim 0" % i,
                                 line=lineno)
        elif len(rows) != dim or any(len(row) != dim for row in rows):
            raise ParseError("act %d must be a %dx%d matrix" % (i, dim, dim),
                             line=lineno)
    for (i,), (_, lineno) in acts.items():
        if not 0 <= i < ring.dim:
            raise ParseError("act index out of range", line=lineno)
    action = np.zeros((ring.dim, dim, dim), dtype=np.int64)
    if dim:
        for i in range(ring.dim):
            action[i] = acts[(i,)][0]
    return Module(ring, dim, action, name=fields["name"][0])


def _fmt_row(values):
    return " ".join(str(int(v)) for v in values)


def serialize_ring(ring):
    lines = ["[ring]",
             "name = %s" % ring.name,
             "p = %d" % ring.p,
             "dim = %d" % ring.dim,
             "unit = %s" % _fmt_row(ring.unit)]
    for i in range(ring.dim):
        for j in range(i, ring.dim):
            lines.append("mul %d %d = %s" % (i, j, _fmt_row(ring.struct[i, j])))
    return "\n".join(lines) + "\n"


def serialize_module(module, name=None):
    lines = ["[module]",
             "name = %s" % (name or module.name or "M"),
             "ring = %s" % module.ring.name,
             "dim = %d" % module.dim]
    for i in range(module.ring.dim):
        rows = " / ".join(_fmt_row(module.action[i][r])
                          for r in range(module.dim))
        lines.append("act %d = %s" % (i, rows))
    return "\n".join(lines) + "\n"
