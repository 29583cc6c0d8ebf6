"""Row (de)serialization against a table schema.

Rows are stored on pages in a compact binary format so that page
capacity, overflow growth and total database size (figure 7 measures
on-disk footprint) are computed from real byte counts:

* a null bitmap (one bit per column, little-endian bit order),
* INT: 8-byte signed little-endian,
* FLOAT: 8-byte IEEE 754 double,
* BOOL: 1 byte,
* VARCHAR/TEXT: 2-byte length prefix + UTF-8 bytes.

The format is read and written by one :class:`RecordCodec` per
column-type signature.  Its functions are generated once with
:func:`compile` and shared by every schema with the same signature;
they walk the columns in order with precompiled :mod:`struct` helpers,
testing the null bitmap inline.  The generated source is built only from :class:`DataType` members and integer offsets — never
from column names or SQL text — so no user identifier reaches
``compile``.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, NoReturn, Sequence

from repro.catalog.schema import DataType, TableSchema
from repro.errors import StorageError

MAX_STRING_BYTES = 0xFFFF

# struct code and byte width of each fixed-width type; every other type
# is a length-prefixed UTF-8 string.
_FIXED: dict[DataType, tuple[str, int]] = {
    DataType.INT: ("q", 8),
    DataType.FLOAT: ("d", 8),
    DataType.BOOL: ("?", 1),
}
_LEN_CODE = "H"
_LEN_SIZE = 2


def _string_too_long(length: int) -> NoReturn:
    raise StorageError(
        f"string value of {length} bytes exceeds the "
        f"{MAX_STRING_BYTES}-byte storage limit"
    )


class RecordCodec:
    """Decoder, encoder and sizer for one column-type signature.

    * ``decode(data, offset)`` returns ``(row, next_offset)``;
    * ``encode(row)`` returns the row's bytes (the row is already
      schema-checked);
    * ``size(row)`` returns ``len(encode(row))`` without encoding.

    ``source`` is the generated Python source, kept for inspection.
    """

    __slots__ = ("decode", "encode", "size", "source")

    def __init__(self, signature: tuple[DataType, ...]) -> None:
        self.source, namespace = _generate(signature)
        name = ",".join(data_type.name for data_type in signature)
        exec(compile(self.source, f"<record codec {name}>", "exec"), namespace)
        self.decode: Callable[[bytes, int], tuple[tuple[Any, ...], int]] = \
            namespace["decode"]
        self.encode: Callable[[Sequence[Any]], bytes] = namespace["encode"]
        self.size: Callable[[Sequence[Any]], int] = namespace["size"]


_CODECS: dict[tuple[DataType, ...], RecordCodec] = {}


def codec_for(schema: TableSchema) -> RecordCodec:
    """The shared codec for ``schema``'s column-type signature."""
    signature = tuple(column.data_type for column in schema.columns)
    codec = _CODECS.get(signature)
    if codec is None:
        codec = _compile(signature)
    return codec


# staticcheck: coldpath(compiled-once-per-type-signature)
def _compile(signature: tuple[DataType, ...]) -> RecordCodec:
    # Two threads may both compile; setdefault keeps one codec.
    return _CODECS.setdefault(signature, RecordCodec(signature))


def row_size(schema: TableSchema, row: Sequence[Any]) -> int:
    """Return the serialized size of ``row`` in bytes without packing it."""
    return codec_for(schema).size(row)


def pack_row(schema: TableSchema, row: Sequence[Any]) -> bytes:
    """Serialize ``row`` (already schema-checked) to bytes."""
    return codec_for(schema).encode(row)


def unpack_row(schema: TableSchema, data: bytes, offset: int = 0) -> tuple[tuple[Any, ...], int]:
    """Deserialize one row starting at ``offset``.

    Returns ``(row, next_offset)``.
    """
    return codec_for(schema).decode(data, offset)


# -- source generation ------------------------------------------------------


def _generate(signature: tuple[DataType, ...]) -> tuple[str, dict[str, Any]]:
    """Source of ``decode``/``encode``/``size`` for ``signature`` and the
    namespace of struct helpers it refers to."""
    n = len(signature)
    nbytes = (n + 7) // 8
    namespace: dict[str, Any] = {"_string_too_long": _string_too_long}
    values = ", ".join(f"v{i}" for i in range(n))
    row_expr = f"({values},)" if n else "()"

    def helper(prefix: str, fmt: str) -> str:
        compiled = struct.Struct("<" + fmt)
        name = f"_{prefix}{len(namespace)}"
        namespace[name] = (compiled.unpack_from if prefix == "u"
                           else compiled.pack)
        return name

    if nbytes == 0:
        bitmap = "0"
    elif nbytes == 1:
        bitmap = "data[pos]"
    else:
        bitmap = f"int.from_bytes(data[pos:pos + {nbytes}], 'little')"

    # decode: one bitmap test per column.
    lines = ["def decode(data, pos):",
             f"    bm = {bitmap}",
             f"    p = pos + {nbytes}"]
    for i, data_type in enumerate(signature):
        lines.append(f"    if bm & {1 << i}:")
        lines.append(f"        v{i} = None")
        if data_type is DataType.BOOL:
            lines.append(f"    else:\n        v{i} = data[p] != 0\n        p += 1")
        elif data_type in _FIXED:
            code, width = _FIXED[data_type]
            lines.append(f"    else:\n        (v{i},) = {helper('u', code)}(data, p)\n"
                         f"        p += {width}")
        else:
            lines.append(f"    else:\n        (n,) = {helper('u', _LEN_CODE)}(data, p)\n"
                         f"        p += {_LEN_SIZE}\n"
                         f"        v{i} = data[p:p + n].decode('utf-8')\n"
                         f"        p += n")
    lines.append(f"    return {row_expr}, p")

    # encode: the same walk, setting the bitmap for each NULL.
    lines.append("def encode(row):")
    lines.append("    bm = 0")
    lines.append("    out = []")
    for i, data_type in enumerate(signature):
        lines.append(f"    v = row[{i}]")
        lines.append("    if v is None:")
        lines.append(f"        bm |= {1 << i}")
        if data_type in _FIXED:
            name = helper("p", _FIXED[data_type][0])
            lines.append(f"    else:\n        out.append({name}(v))")
        else:
            name = helper("p", _LEN_CODE)
            lines.append(f"    else:\n        b = v.encode('utf-8')\n"
                         f"        if len(b) > {MAX_STRING_BYTES}:\n"
                         f"            _string_too_long(len(b))\n"
                         f"        out.append({name}(len(b)))\n"
                         f"        out.append(b)")
    lines.append(f"    return bm.to_bytes({nbytes}, 'little') + b''.join(out)")

    # size: string lengths without encoding ASCII text.
    lines.append("def size(row):")
    lines.append(f"    n = {nbytes}")
    for i, data_type in enumerate(signature):
        lines.append(f"    v = row[{i}]")
        lines.append("    if v is not None:")
        if data_type in _FIXED:
            lines.append(f"        n += {_FIXED[data_type][1]}")
        else:
            lines.append(f"        n += {_LEN_SIZE} + (len(v) if v.isascii() "
                         f"else len(v.encode('utf-8')))")
    lines.append("    return n")
    return "\n".join(lines) + "\n", namespace
