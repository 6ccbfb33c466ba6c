"""Byte-frame serialization for log records (the durable WAL format).

Every :class:`~repro.wal.records.LogRecord` can be encoded into a
self-describing binary *frame* and decoded back, byte-identically.  A log
segment on (simulated) disk is::

    [segment header][frame][frame][frame]...

* **segment header** (8 bytes): magic ``b"RWAL"``, big-endian u16 format
  version, two reserved zero bytes.  A segment whose header does not match
  is quarantined -- it is not a torn tail, it is the wrong file or a
  corrupted head.
* **frame**: big-endian u32 payload length, big-endian u32 CRC-32 of the
  payload, then the payload bytes.  The CRC covers the payload only; the
  length field is implicitly validated by the CRC (a corrupt length either
  runs past the end of the segment -- indistinguishable from a torn tail --
  or mis-frames the payload so the CRC fails).
* **payload**: one byte record-kind code, the record's ``lsn``,
  ``prev_lsn`` and ``txn_id`` as zig-zag varints, then the record's
  payload fields in dataclass declaration order, each encoded with the
  tagged value codec below.

The value codec covers everything the record classes of
:mod:`repro.wal.records` actually store: ``None``, bools, arbitrary-size
ints, floats, strings, bytes, tuples, lists, dicts (insertion order is
preserved, so a decode/encode round trip is byte-identical), nested log
records (CLR actions), :class:`~repro.storage.schema.TableSchema` objects
(DDL records, swap records) and the frozen spec dataclasses the swap
records embed (:class:`~repro.relational.spec.FojSpec`, ...).  Values
outside this set -- e.g. the row predicate *callable* of a
:class:`~repro.transform.partition.PartitionSpec` -- raise
:class:`FrameCodecError` at encode time: a payload that cannot survive a
round trip must fail loudly at flush, not at recovery.

Salvage (:func:`decode_segment`) implements the torn-write rules the
recovery path relies on:

* a frame that runs past the end of the segment, or trailing bytes too
  short to hold a frame header, are a **torn tail**: the write was cut by
  the crash; the tail is truncated and reported;
* a complete frame whose CRC fails *at the very end* of the segment is a
  **corrupt tail**: physically indistinguishable from a torn write that
  happened to cover the full claimed length, so it is also truncated --
  but reported separately (``tail_corrupt``), never silently applied;
* a frame whose CRC fails while later bytes exist is **mid-log
  corruption**: stable storage lied about previously-synced data, and the
  segment is quarantined with :class:`LogCorruptionError`.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib
from typing import Dict, Iterator, List, Tuple, Type

from repro.common.errors import LogCorruptionError, ReproError
from repro.storage.schema import Attribute, FunctionalDependency, TableSchema
from repro.wal.records import (
    NULL_LSN,
    AbortRecord,
    BeginRecord,
    CatalogFlipRecord,
    CCBeginRecord,
    CCOkRecord,
    CheckpointRecord,
    CLRecord,
    CommitRecord,
    CreateTableRecord,
    DeleteRecord,
    DropTableRecord,
    EndRecord,
    FuzzyMarkRecord,
    InsertRecord,
    LogRecord,
    RenameTableRecord,
    TransformRetireRecord,
    TransformSwapRecord,
    UpdateRecord,
)

#: Segment magic; the version is bumped on any incompatible layout change.
SEGMENT_MAGIC = b"RWAL"
SEGMENT_VERSION = 1
SEGMENT_HEADER = SEGMENT_MAGIC + struct.pack(">H", SEGMENT_VERSION) + b"\x00\x00"
SEGMENT_HEADER_SIZE = len(SEGMENT_HEADER)

#: Bytes of frame metadata preceding each payload: u32 length + u32 CRC.
FRAME_HEADER_SIZE = 8

_pack_frame_header = struct.Struct(">II").pack
_pack_double = struct.Struct(">d").pack


class FrameCodecError(ReproError):
    """A record (or one of its payload values) cannot be framed."""


# ---------------------------------------------------------------------------
# Record-kind registry
# ---------------------------------------------------------------------------

#: Stable one-byte code per record class.  Codes are part of the on-disk
#: format: never renumber, only append.
RECORD_CODES: Dict[Type[LogRecord], int] = {
    BeginRecord: 1,
    CommitRecord: 2,
    AbortRecord: 3,
    EndRecord: 4,
    InsertRecord: 5,
    DeleteRecord: 6,
    UpdateRecord: 7,
    CLRecord: 8,
    FuzzyMarkRecord: 9,
    CCBeginRecord: 10,
    CCOkRecord: 11,
    CreateTableRecord: 12,
    DropTableRecord: 13,
    RenameTableRecord: 14,
    TransformSwapRecord: 15,
    TransformRetireRecord: 16,
    CheckpointRecord: 17,
    CatalogFlipRecord: 18,
}

_RECORD_BY_CODE: Dict[int, Type[LogRecord]] = {
    code: cls for cls, code in RECORD_CODES.items()}

#: ``(code, payload field names)`` per record class, filled on first use.
#: Payload fields are everything but the LogRecord base fields, in
#: dataclass declaration order.
_BASE_FIELDS = ("lsn", "prev_lsn", "txn_id")
_LAYOUTS: Dict[Type[LogRecord], Tuple[int, Tuple[str, ...]]] = {}


def _layout(cls: Type[LogRecord]) -> Tuple[int, Tuple[str, ...]]:
    layout = _LAYOUTS.get(cls)
    if layout is None:
        code = RECORD_CODES.get(cls)
        if code is None:
            raise FrameCodecError(
                f"record class {cls.__name__} has no frame code; "
                f"add it to repro.wal.frames.RECORD_CODES")
        if _DATACLASS_REGISTRY.get("FojSpec") is None:
            _register_spec_dataclasses()
        fields = tuple(f.name for f in dataclasses.fields(cls)
                       if f.name not in _BASE_FIELDS)
        layout = _LAYOUTS[cls] = (code, fields)
    return layout


#: Frozen dataclasses that may appear as payload values (swap-record
#: params, schema attributes).  Name -> class; encoded by field order.
_DATACLASS_REGISTRY: Dict[str, type] = {
    "Attribute": Attribute,
    "FunctionalDependency": FunctionalDependency,
}


def register_payload_dataclass(cls: type) -> type:
    """Allow instances of a frozen dataclass inside record payloads.

    The class is keyed by its ``__name__`` (part of the on-disk format);
    its fields must themselves be encodable values.  Returns ``cls`` so
    it can be used as a decorator.
    """
    existing = _DATACLASS_REGISTRY.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise FrameCodecError(
            f"payload dataclass name {cls.__name__!r} already registered "
            f"for {existing!r}")
    _DATACLASS_REGISTRY[cls.__name__] = cls
    return cls


def _register_spec_dataclasses() -> None:
    # Imported lazily so repro.wal does not drag the relational layer in
    # at import time (and to keep the dependency direction one-way for
    # everything but this registration).
    from repro.relational.spec import (ExplodeSpec, FojSpec, RetypeSpec,
                                       SplitSpec)
    from repro.transform.partition import (AttrPredicate, MergeSpec,
                                           PartitionSpec)
    register_payload_dataclass(FojSpec)
    register_payload_dataclass(SplitSpec)
    register_payload_dataclass(MergeSpec)
    register_payload_dataclass(ExplodeSpec)
    register_payload_dataclass(RetypeSpec)
    register_payload_dataclass(AttrPredicate)
    # Frame-codable only when its predicate is an AttrPredicate; a spec
    # holding a bare callable still raises FrameCodecError at encode time.
    register_payload_dataclass(PartitionSpec)


# ---------------------------------------------------------------------------
# Primitive codec: zig-zag varints and tagged values
# ---------------------------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    """Unsigned LEB128."""
    if value < 0x80:
        if value < 0:
            raise FrameCodecError(f"varint cannot encode negative {value}")
        out.append(value)
        return
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise FrameCodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _write_svarint(out: bytearray, value: int) -> None:
    """Zig-zag signed varint (small magnitudes stay small)."""
    _write_varint(out, value * 2 if value >= 0 else -value * 2 - 1)


def _read_svarint(data: bytes, pos: int) -> Tuple[int, int]:
    raw, pos = _read_varint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


# Value tags (one byte each).
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_RECORD = 0x0A
_T_SCHEMA = 0x0B
_T_DATACLASS = 0x0C


def _write_none(out: bytearray, value: None) -> None:
    out.append(_T_NONE)


def _write_bool(out: bytearray, value: bool) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _write_int(out: bytearray, value: int) -> None:
    out.append(_T_INT)
    _write_svarint(out, value)


def _write_float(out: bytearray, value: float) -> None:
    out.append(_T_FLOAT)
    out += _pack_double(value)


def _write_str(out: bytearray, value: str) -> None:
    raw = value.encode("utf-8")
    out.append(_T_STR)
    _write_varint(out, len(raw))
    out += raw


def _write_bytes(out: bytearray, value: bytes) -> None:
    out.append(_T_BYTES)
    _write_varint(out, len(value))
    out += value


def _write_items(out: bytearray, tag: int, value: object) -> None:
    out.append(tag)
    _write_varint(out, len(value))
    writers = _WRITERS
    for item in value:
        writer = writers.get(type(item))
        if writer is None:
            _encode_other(out, item)
        else:
            writer(out, item)


def _write_tuple(out: bytearray, value: tuple) -> None:
    _write_items(out, _T_TUPLE, value)


def _write_list(out: bytearray, value: list) -> None:
    _write_items(out, _T_LIST, value)


def _write_dict(out: bytearray, value: dict) -> None:
    out.append(_T_DICT)
    _write_varint(out, len(value))
    writers = _WRITERS
    for key, item in value.items():
        writer = writers.get(type(key))
        if writer is None:
            _encode_other(out, key)
        else:
            writer(out, key)
        writer = writers.get(type(item))
        if writer is None:
            _encode_other(out, item)
        else:
            writer(out, item)


#: Writer per exact value type.  Subclasses of these types, nested
#: records, schemas and registered dataclasses take :func:`_encode_other`.
#: The container writers and :func:`_write_record` repeat the dispatch of
#: :func:`encode_value` inline: one call less per value on the commit path.
_WRITERS = {
    type(None): _write_none,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    bytes: _write_bytes,
    tuple: _write_tuple,
    list: _write_list,
    dict: _write_dict,
}


#: Writers for subclasses of the builtin types (an ``IntEnum``, a
#: ``namedtuple``, an ``OrderedDict``), tried in this order.
_SUBCLASS_WRITERS = (
    (int, _write_int),
    (float, _write_float),
    (str, _write_str),
    (bytes, _write_bytes),
    (tuple, _write_tuple),
    (list, _write_list),
    (dict, _write_dict),
)


def encode_value(out: bytearray, value: object) -> None:
    """Append the tagged encoding of ``value`` to ``out``."""
    writer = _WRITERS.get(type(value))
    if writer is None:
        _encode_other(out, value)
    else:
        writer(out, value)


def _encode_other(out: bytearray, value: object) -> None:
    """Tagged encoding of a value whose exact type has no writer."""
    for base, writer in _SUBCLASS_WRITERS:
        if isinstance(value, base):
            writer(out, value)
            return
    if isinstance(value, LogRecord):
        out.append(_T_RECORD)
        body = encode_record(value)
        _write_varint(out, len(body))
        out.extend(body)
    elif isinstance(value, TableSchema):
        out.append(_T_SCHEMA)
        encode_value(out, value.name)
        encode_value(out, value.attributes)
        encode_value(out, value.primary_key)
        encode_value(out, value.candidate_keys)
        encode_value(out, value.functional_deps)
    elif dataclasses.is_dataclass(value) and \
            _DATACLASS_REGISTRY.get(type(value).__name__) is type(value):
        out.append(_T_DATACLASS)
        encode_value(out, type(value).__name__)
        fields = dataclasses.fields(value)
        _write_varint(out, len(fields))
        for field in fields:
            encode_value(out, getattr(value, field.name))
    else:
        raise FrameCodecError(
            f"value of type {type(value).__name__} cannot be framed: "
            f"{value!r} (register_payload_dataclass for frozen dataclasses;"
            f" callables and arbitrary objects are not durable)")


def decode_value(data: bytes, pos: int) -> Tuple[object, int]:
    """Decode one tagged value; returns ``(value, next_pos)``."""
    if pos >= len(data):
        raise FrameCodecError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_INT:
        return _read_svarint(data, pos)
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise FrameCodecError("truncated float")
        return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise FrameCodecError("truncated string")
        return data[pos:pos + length].decode("utf-8"), pos + length
    if tag == _T_BYTES:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise FrameCodecError("truncated bytes")
        return bytes(data[pos:pos + length]), pos + length
    if tag in (_T_TUPLE, _T_LIST):
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = decode_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _read_varint(data, pos)
        result = {}
        for _ in range(count):
            key, pos = decode_value(data, pos)
            item, pos = decode_value(data, pos)
            result[key] = item
        return result, pos
    if tag == _T_RECORD:
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise FrameCodecError("truncated nested record")
        return decode_record(data[pos:pos + length]), pos + length
    if tag == _T_SCHEMA:
        name, pos = decode_value(data, pos)
        attributes, pos = decode_value(data, pos)
        primary_key, pos = decode_value(data, pos)
        candidate_keys, pos = decode_value(data, pos)
        functional_deps, pos = decode_value(data, pos)
        return TableSchema(name, list(attributes), list(primary_key),
                           [list(ck) for ck in candidate_keys],
                           list(functional_deps)), pos
    if tag == _T_DATACLASS:
        class_name, pos = decode_value(data, pos)
        cls = _DATACLASS_REGISTRY.get(class_name)
        if cls is None:
            _register_spec_dataclasses()
            cls = _DATACLASS_REGISTRY.get(class_name)
        if cls is None:
            raise FrameCodecError(
                f"unknown payload dataclass {class_name!r}")
        count, pos = _read_varint(data, pos)
        fields = dataclasses.fields(cls)
        if count != len(fields):
            raise FrameCodecError(
                f"{class_name} field count changed: frame has {count}, "
                f"class has {len(fields)}")
        values = []
        for _ in range(count):
            value, pos = decode_value(data, pos)
            values.append(value)
        return cls(*values), pos
    raise FrameCodecError(f"unknown value tag 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Record payloads and frames
# ---------------------------------------------------------------------------


def _write_record(out: bytearray, record: LogRecord) -> None:
    code, fields = _layout(type(record))
    out.append(code)
    _write_svarint(out, record.lsn)
    _write_svarint(out, record.prev_lsn)
    _write_svarint(out, record.txn_id)
    writers = _WRITERS
    for name in fields:
        value = getattr(record, name)
        writer = writers.get(type(value))
        if writer is None:
            _encode_other(out, value)
        else:
            writer(out, value)


def encode_record(record: LogRecord) -> bytes:
    """Serialize one record (without frame length/CRC)."""
    out = bytearray()
    _write_record(out, record)
    return bytes(out)


def decode_record(data: bytes) -> LogRecord:
    """Rebuild a record from :func:`encode_record` output."""
    if not data:
        raise FrameCodecError("empty record payload")
    cls = _RECORD_BY_CODE.get(data[0])
    if cls is None:
        raise FrameCodecError(f"unknown record code 0x{data[0]:02x}")
    pos = 1
    lsn, pos = _read_svarint(data, pos)
    prev_lsn, pos = _read_svarint(data, pos)
    txn_id, pos = _read_svarint(data, pos)
    kwargs: Dict[str, object] = {"txn_id": txn_id}
    for name in _layout(cls)[1]:
        value, pos = decode_value(data, pos)
        kwargs[name] = value
    if pos != len(data):
        raise FrameCodecError(
            f"{len(data) - pos} trailing bytes after "
            f"{cls.__name__} payload")
    record = cls(**kwargs)
    record.lsn = lsn
    record.prev_lsn = prev_lsn
    return record


def encode_frame(record: LogRecord) -> bytes:
    """One length-prefixed, CRC-protected frame for ``record``."""
    payload = bytearray()
    _write_record(payload, record)
    return _pack_frame_header(len(payload), zlib.crc32(payload)) + payload


def frame_spans(image: bytes) -> Iterator[Tuple[int, int]]:
    """Yield ``(payload_offset, payload_length)`` for each *complete*,
    CRC-valid frame of a segment image (stops at the first bad frame).

    A parsing helper for fault targeting and tests; the authoritative
    salvage path is :func:`decode_segment`.
    """
    pos = SEGMENT_HEADER_SIZE
    while pos + FRAME_HEADER_SIZE <= len(image):
        length, crc = struct.unpack_from(">II", image, pos)
        start = pos + FRAME_HEADER_SIZE
        if start + length > len(image):
            return
        if zlib.crc32(image[start:start + length]) != crc:
            return
        yield start, length
        pos = start + length


class SalvageReport:
    """What :func:`decode_segment` found and what it had to discard.

    Attributes:
        records: The salvaged record prefix, in LSN order.
        byte_length: Length of the valid byte prefix of the segment
            (header + intact frames); everything past it was truncated.
        torn: ``True`` when a partially-written frame was truncated
            (the crash cut a flush mid-frame).
        tail_corrupt: ``True`` when the *final* complete frame failed its
            CRC and was truncated (detected, reported, never applied).
        dropped_bytes: Bytes discarded past the valid prefix.
    """

    def __init__(self, records: List[LogRecord], byte_length: int,
                 torn: bool, tail_corrupt: bool,
                 dropped_bytes: int) -> None:
        self.records = records
        self.byte_length = byte_length
        self.torn = torn
        self.tail_corrupt = tail_corrupt
        self.dropped_bytes = dropped_bytes

    def describe(self) -> str:
        status = []
        if self.torn:
            status.append("torn tail truncated")
        if self.tail_corrupt:
            status.append("corrupt tail frame discarded")
        if not status:
            status.append("clean")
        return (f"salvaged {len(self.records)} records "
                f"({self.byte_length} bytes, "
                f"{self.dropped_bytes} dropped): {'; '.join(status)}")


def decode_segment(image: bytes) -> SalvageReport:
    """Salvage a segment image: decode frames, truncate a torn tail.

    Raises :class:`LogCorruptionError` on a bad segment header or on a
    CRC failure that is *not* at the tail (mid-log corruption).  An empty
    image is a valid empty log (nothing was ever flushed).
    """
    if not image:
        return SalvageReport([], 0, torn=False, tail_corrupt=False,
                             dropped_bytes=0)
    if len(image) < SEGMENT_HEADER_SIZE:
        if SEGMENT_HEADER.startswith(bytes(image)):
            # A crash cut the very first write inside the header.
            return SalvageReport([], 0, torn=True, tail_corrupt=False,
                                 dropped_bytes=len(image))
        raise LogCorruptionError(
            "segment header truncated to unrecognizable bytes",
            frame_index=-1, lsn=NULL_LSN, offset=0)
    if bytes(image[:SEGMENT_HEADER_SIZE]) != SEGMENT_HEADER:
        raise LogCorruptionError(
            f"bad segment header {bytes(image[:SEGMENT_HEADER_SIZE])!r} "
            f"(expected {SEGMENT_HEADER!r})",
            frame_index=-1, lsn=NULL_LSN, offset=0)

    records: List[LogRecord] = []
    pos = SEGMENT_HEADER_SIZE
    index = 0
    size = len(image)
    while pos < size:
        if pos + FRAME_HEADER_SIZE > size:
            return SalvageReport(records, pos, torn=True,
                                 tail_corrupt=False,
                                 dropped_bytes=size - pos)
        length, crc = struct.unpack_from(">II", image, pos)
        start = pos + FRAME_HEADER_SIZE
        end = start + length
        if end > size:
            return SalvageReport(records, pos, torn=True,
                                 tail_corrupt=False,
                                 dropped_bytes=size - pos)
        payload = bytes(image[start:end])
        expected_lsn = records[-1].lsn + 1 if records else NULL_LSN + 1
        if zlib.crc32(payload) != crc:
            if end == size:
                # Final frame: indistinguishable from a torn write that
                # covered the whole claimed length with garbage.  Truncate
                # -- the corrupt bytes are reported, never applied.
                return SalvageReport(records, pos, torn=False,
                                     tail_corrupt=True,
                                     dropped_bytes=size - pos)
            raise LogCorruptionError(
                "frame checksum mismatch with later frames present",
                frame_index=index, lsn=expected_lsn, offset=pos,
                salvaged=tuple(records))
        try:
            record = decode_record(payload)
        except FrameCodecError as exc:
            # CRC passed but the payload does not parse: a codec bug or
            # deliberate tampering -- quarantine either way.
            raise LogCorruptionError(
                f"frame payload undecodable: {exc}",
                frame_index=index, lsn=expected_lsn, offset=pos,
                salvaged=tuple(records))
        if record.lsn != expected_lsn:
            raise LogCorruptionError(
                f"LSN discontinuity: frame carries lsn {record.lsn}, "
                f"expected {expected_lsn}",
                frame_index=index, lsn=expected_lsn, offset=pos,
                salvaged=tuple(records))
        records.append(record)
        index += 1
        pos = end
    return SalvageReport(records, pos, torn=False, tail_corrupt=False,
                         dropped_bytes=0)
