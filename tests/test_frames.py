"""Unit tests for the durable WAL frame codec and salvage rules.

Every record kind must round-trip through its byte frame
*byte-identically* (decode -> re-encode yields the same bytes), values
outside the durable set must fail loudly at encode time, and
:func:`~repro.wal.decode_segment` must implement the torn-tail /
corrupt-tail / mid-log-quarantine trichotomy exactly.
"""

import json
import pathlib
import struct
import zlib

import pytest

from repro.common.errors import LogCorruptionError
from repro.relational.spec import FojSpec, SplitSpec
from repro.storage.schema import TableSchema
from repro.wal import (
    FRAME_HEADER_SIZE,
    SEGMENT_HEADER,
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
    FrameCodecError,
    FuzzyMarkRecord,
    InsertRecord,
    RenameTableRecord,
    TransformRetireRecord,
    TransformSwapRecord,
    UpdateRecord,
    decode_record,
    decode_segment,
    encode_frame,
    encode_record,
    frame_spans,
)
from repro.wal.frames import RECORD_CODES, SEGMENT_VERSION

_SCHEMA = TableSchema("T", ["id", "name", "zip"], primary_key=["id"],
                      candidate_keys=[["name", "zip"]])

_FOJ_SPEC = FojSpec(
    target_name="T", r_name="R", s_name="S", join_attr_r="c",
    join_attr_s="c", r_attrs=("a", "b", "c"), s_attrs=("c", "d"),
    r_key=("a",), s_key=("c",), many_to_many=False)

_SPLIT_SPEC = SplitSpec(
    source_name="T", r_name="T_r", s_name="postal", split_attr="zip",
    r_attrs=("id", "name", "zip"), s_attrs=("zip", "city"),
    r_key=("id",))

#: One representative instance per record kind (all 18 codes).
SAMPLE_RECORDS = [
    BeginRecord(txn_id=3),
    CommitRecord(txn_id=3),
    AbortRecord(txn_id=4),
    EndRecord(txn_id=3, committed=True),
    InsertRecord(txn_id=3, table="T", key=(1,),
                 values={"id": 1, "name": "x", "zip": None}),
    DeleteRecord(txn_id=3, table="T", key=(2,),
                 old_values={"id": 2, "name": "y", "zip": 7001}),
    UpdateRecord(txn_id=3, table="T", key=(1,),
                 changes={"name": "z"}, old_values={"name": "x"}),
    CLRecord(txn_id=3,
             action=DeleteRecord(txn_id=3, table="T", key=(1,),
                                 old_values={"id": 1}),
             undo_next_lsn=0),
    FuzzyMarkRecord(txn_id=0, transform_id="tf-1", phase="start",
                    active_txns=(3, 4, 5)),
    CCBeginRecord(txn_id=0, transform_id="tf-1", split_value=(7001,)),
    CCOkRecord(txn_id=0, transform_id="tf-1", split_value=(7001,),
               image={"city": "C7001"}),
    CreateTableRecord(txn_id=0, schema=_SCHEMA, transient=True),
    DropTableRecord(txn_id=0, table="T_old"),
    RenameTableRecord(txn_id=0, old_name="T_new", new_name="T"),
    TransformSwapRecord(txn_id=0, transform_id="tf-1",
                        transform_kind="foj", retired=("R", "S"),
                        published={"T_new": "T"},
                        params={"spec": _FOJ_SPEC},
                        doomed_txns=(9,)),
    TransformSwapRecord(txn_id=0, transform_id="tf-2",
                        transform_kind="split", retired=("T",),
                        published={"T_r_new": "T_r"},
                        params={"spec": _SPLIT_SPEC},
                        doomed_txns=()),
    TransformRetireRecord(txn_id=0, transform_id="tf-1"),
    CatalogFlipRecord(txn_id=0, transform_id="tf-1", version=2,
                      retired=("R", "S"), published=("T",)),
    CheckpointRecord(txn_id=0, active_txns={3: 17, 4: 19}),
]


class _Int(int):
    """An int subclass: framed through the isinstance fall-through."""


class _Str(str):
    """A str subclass: framed through the isinstance fall-through."""


#: One record whose payload reaches every value tag and varint width:
#: negative and multi-byte ints, big ints, floats, bytes, lists, bools,
#: a string longer than one varint byte, non-ASCII text, nested tuples
#: and subclasses of the builtin types.
EDGE_RECORD = UpdateRecord(
    txn_id=123456789, table="T" * 200,
    key=(-5, 2 ** 70, -(2 ** 70), (1, "a")),
    changes={"f": 1.5, "neg": -0.0, "b": b"\x00\xff",
             "l": [True, False, None], "u": "äß☃", "sub": _Int(300),
             _Str("k"): _Str("v")},
    old_values={"n": -1, "big": 2 ** 64, "t": (), "d": {}})
EDGE_RECORD.lsn = 70000
EDGE_RECORD.prev_lsn = 129


def _with_lsns(records):
    """Assign the dense LSNs the salvage path expects."""
    out = []
    for i, record in enumerate(records):
        record.lsn = i + 1
        record.prev_lsn = i  # arbitrary but stable chain
        out.append(record)
    return out


def _segment(records):
    return SEGMENT_HEADER + b"".join(encode_frame(r) for r in records)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def test_every_record_code_has_a_sample():
    covered = {type(r) for r in SAMPLE_RECORDS}
    assert covered == set(RECORD_CODES), (
        "SAMPLE_RECORDS must exercise every registered record kind")


@pytest.mark.parametrize("record", _with_lsns(SAMPLE_RECORDS),
                         ids=lambda r: type(r).__name__)
def test_record_round_trip_is_byte_identical(record):
    payload = encode_record(record)
    decoded = decode_record(payload)
    assert type(decoded) is type(record)
    assert decoded.lsn == record.lsn
    assert decoded.prev_lsn == record.prev_lsn
    assert decoded.txn_id == record.txn_id
    # Re-encoding the decoded record reproduces the exact bytes: the
    # byte-for-byte durability invariant the crash oracle checks.
    assert encode_record(decoded) == payload


def test_frames_match_golden_bytes():
    """The encoder writes the exact bytes of segment format version 1.

    ``fixtures/golden_frames.json`` holds the frames of every sample
    record (all 18 kinds, a CLR with its nested action and swap records
    with spec dataclasses) plus :data:`EDGE_RECORD`, as written by the
    original branch-per-type encoder.  Any byte drift here is a format
    change and needs a new ``SEGMENT_VERSION``.
    """
    assert SEGMENT_VERSION == 1
    path = pathlib.Path(__file__).parent / "fixtures" / "golden_frames.json"
    golden = json.loads(path.read_text())
    records = _with_lsns(list(SAMPLE_RECORDS))
    actual = {f"{i:02d}-{type(r).__name__}": encode_frame(r).hex()
              for i, r in enumerate(records)}
    actual["edge-values"] = encode_frame(EDGE_RECORD).hex()
    assert actual == golden


def test_schema_round_trip_preserves_keys():
    record = CreateTableRecord(txn_id=0, schema=_SCHEMA, transient=False)
    record.lsn = 1
    decoded = decode_record(encode_record(record))
    schema = decoded.schema
    assert schema.name == "T"
    assert list(schema.primary_key) == ["id"]
    assert [list(ck) for ck in schema.candidate_keys] == [["name", "zip"]]
    assert schema.attribute_names == _SCHEMA.attribute_names


def test_spec_dataclass_round_trip():
    record = TransformSwapRecord(
        txn_id=0, transform_id="tf", transform_kind="foj",
        retired=(), published={}, params={"spec": _FOJ_SPEC},
        doomed_txns=())
    record.lsn = 1
    decoded = decode_record(encode_record(record))
    assert decoded.params["spec"] == _FOJ_SPEC


def test_unframeable_value_raises_at_encode_time():
    record = TransformSwapRecord(
        txn_id=0, transform_id="tf", transform_kind="partition",
        retired=(), published={},
        params={"predicate": lambda row: True},  # callables not durable
        doomed_txns=())
    record.lsn = 1
    with pytest.raises(FrameCodecError):
        encode_record(record)


def test_decode_rejects_unknown_code_and_trailing_bytes():
    record = BeginRecord(txn_id=1)
    record.lsn = 1
    payload = encode_record(record)
    with pytest.raises(FrameCodecError):
        decode_record(b"\xff" + payload[1:])
    with pytest.raises(FrameCodecError):
        decode_record(payload + b"\x00")
    with pytest.raises(FrameCodecError):
        decode_record(b"")


def test_frame_spans_walks_valid_frames():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1),
                          EndRecord(txn_id=1, committed=True)])
    image = _segment(records)
    spans = list(frame_spans(image))
    assert len(spans) == 3
    for (start, length), record in zip(spans, records):
        assert decode_record(image[start:start + length]).lsn == record.lsn


# ---------------------------------------------------------------------------
# Salvage rules
# ---------------------------------------------------------------------------


def test_salvage_empty_image_is_clean_empty_log():
    report = decode_segment(b"")
    assert report.records == []
    assert report.byte_length == 0
    assert not report.torn and not report.tail_corrupt


def test_salvage_clean_segment():
    records = _with_lsns(list(SAMPLE_RECORDS))
    image = _segment(records)
    report = decode_segment(image)
    assert len(report.records) == len(records)
    assert report.byte_length == len(image)
    assert not report.torn and not report.tail_corrupt
    assert report.dropped_bytes == 0
    assert "clean" in report.describe()


def test_salvage_truncates_torn_tail():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1)])
    image = _segment(records)
    prefix_len = len(SEGMENT_HEADER) + FRAME_HEADER_SIZE + \
        len(encode_record(records[0]))
    for cut in (1, 5, FRAME_HEADER_SIZE, FRAME_HEADER_SIZE + 3):
        torn = image[:len(image) - cut]
        report = decode_segment(torn)
        assert report.torn and not report.tail_corrupt
        assert [r.lsn for r in report.records] == [1]
        assert report.byte_length == prefix_len
        assert report.dropped_bytes == len(torn) - prefix_len


def test_salvage_truncated_header_is_torn():
    report = decode_segment(SEGMENT_HEADER[:3])
    assert report.torn
    assert report.records == [] and report.byte_length == 0


def test_salvage_rejects_bad_header():
    with pytest.raises(LogCorruptionError):
        decode_segment(b"JUNKJUNK" + b"\x00" * 16)
    with pytest.raises(LogCorruptionError):
        decode_segment(b"XY")  # not even a prefix of the magic


def test_salvage_truncates_corrupt_final_frame():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1)])
    image = bytearray(_segment(records))
    image[-1] ^= 0x40  # rot inside the final frame's payload
    report = decode_segment(bytes(image))
    assert report.tail_corrupt and not report.torn
    assert [r.lsn for r in report.records] == [1]


def test_salvage_quarantines_midlog_corruption():
    records = _with_lsns([BeginRecord(txn_id=1),
                          InsertRecord(txn_id=1, table="T", key=(1,),
                                       values={"id": 1}),
                          CommitRecord(txn_id=1)])
    image = bytearray(_segment(records))
    # Flip a payload bit of the *first* frame: later frames exist, so
    # this is mid-log corruption, never a tail truncation.
    offset = len(SEGMENT_HEADER) + FRAME_HEADER_SIZE
    image[offset + 1] ^= 0x01
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(bytes(image))
    err = excinfo.value
    assert err.frame_index == 0
    assert err.salvaged == ()


def test_salvage_quarantine_carries_salvaged_prefix():
    records = _with_lsns([BeginRecord(txn_id=1), CommitRecord(txn_id=1),
                          EndRecord(txn_id=1, committed=True)])
    image = bytearray(_segment(records))
    spans = list(frame_spans(bytes(image)))
    start, _ = spans[1]
    image[start] ^= 0x20  # corrupt the middle frame
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(bytes(image))
    assert [r.lsn for r in excinfo.value.salvaged] == [1]
    assert excinfo.value.frame_index == 1


def test_salvage_quarantines_lsn_discontinuity():
    first, second = BeginRecord(txn_id=1), CommitRecord(txn_id=1)
    first.lsn = 1
    second.lsn = 5  # hole: a frame from some other log spliced in
    image = SEGMENT_HEADER + encode_frame(first) + encode_frame(second)
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(image)
    assert "discontinuity" in str(excinfo.value)
    assert [r.lsn for r in excinfo.value.salvaged] == [1]


def test_salvage_quarantines_undecodable_payload_with_valid_crc():
    first = BeginRecord(txn_id=1)
    first.lsn = 1
    garbage = b"\xee\x01\x02"  # unknown record code, CRC made valid
    frame = struct.pack(">II", len(garbage),
                        zlib.crc32(garbage)) + garbage
    # Later bytes exist, so the bad frame is not a tail case.
    tail = encode_frame(first)
    with pytest.raises(LogCorruptionError) as excinfo:
        decode_segment(SEGMENT_HEADER + frame + tail)
    assert "undecodable" in str(excinfo.value)
