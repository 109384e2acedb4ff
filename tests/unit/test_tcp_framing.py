"""Stream reassembly in the TCP transport's reader, without sockets.

A TCP stream has no message boundaries: one read can end anywhere — inside
a header, inside a payload, exactly between two frames — and one read can
carry many frames.  These properties drive the reader protocol
(``_FrameReader``) directly, with a fake transport, feeding it the golden
frames split at arbitrary cut points, and check that

* the same frames come out, whole and in order, however the stream is cut;
* a corrupt header after k good frames delivers exactly those k, then fails
  the run once with the typed error naming the peer, and closes the
  connection;
* the bytes it holds never exceed one header plus the largest frame the
  codec accepts plus one read chunk — a length field it has not validated
  never sizes a buffer.
"""

from __future__ import annotations

import asyncio
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.errors import (
    BadFrameMagic,
    MalformedWirePayload,
    OversizedFrame,
    UnsupportedWireVersion,
    WireError,
)
from repro.net.tcp import TcpTransport, _FrameReader
from repro.net.topology import build_topology
from repro.net.wire import (
    HEADER,
    HEADER_SIZE,
    WIRE_MAGIC,
    WIRE_VERSION,
    WireCodec,
)
from repro.sim.rng import RngRegistry

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden" / "wire"
GOLDEN_FRAMES = [path.read_bytes()
                 for path in sorted(GOLDEN_DIR.glob("*.bin"))]
#: the codec's ceiling, set to the largest golden frame so the buffer bound
#: below is tight enough to mean something.
MAX_FRAME = max(len(frame) for frame in GOLDEN_FRAMES) - HEADER_SIZE
PEER = ("10.0.0.9", 4242)

prop_settings = settings(max_examples=80, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


class _Kernel:
    """What the reader asks of a kernel: a loop and a place to fail."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self.errors: list = []

    def fail(self, error: BaseException) -> None:
        self.errors.append(error)


class _RecordingTransport(TcpTransport):
    """Keeps every frame the reader hands over, undecoded."""

    def __init__(self, kernel: _Kernel) -> None:
        super().__init__(kernel, build_topology(["a", "b"], [], ("san-jose",),
                                                120.0),
                         RngRegistry(1),
                         wire_codec=WireCodec(max_frame_bytes=MAX_FRAME))
        self.frames: list = []

    def _on_frame(self, flags: int, frame: bytes) -> None:
        self.frames.append((flags, frame))


class _FakeSocket:
    """The slice of ``asyncio.Transport`` a reader uses."""

    def __init__(self) -> None:
        self.closed = False

    def get_extra_info(self, name, default=None):
        return PEER if name == "peername" else default

    def close(self) -> None:
        self.closed = True

    abort = close


@pytest.fixture
def loop():
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


def _reader(loop):
    owner = _RecordingTransport(_Kernel(loop))
    reader = _FrameReader(owner)
    socket = _FakeSocket()
    reader.connection_made(socket)
    return owner, reader, socket


def _split(stream: bytes, cuts: list) -> list:
    bounds = [0, *sorted(set(cuts)), len(stream)]
    return [stream[start:end] for start, end in zip(bounds, bounds[1:])]


def _feed(reader, pieces: list) -> None:
    for piece in pieces:
        reader.data_received(piece)
        assert reader.buffered <= HEADER_SIZE + MAX_FRAME + len(piece)


def _expected(frames: list) -> list:
    return [(frame[3], frame[HEADER_SIZE:]) for frame in frames]


@st.composite
def cut_stream(draw, tail: bytes = b""):
    """Golden frames (repeats allowed), concatenated, plus cut points."""
    frames = draw(st.lists(st.sampled_from(GOLDEN_FRAMES), min_size=1,
                           max_size=10))
    stream = b"".join(frames) + tail
    cuts = draw(st.lists(st.integers(0, len(stream)), max_size=40))
    return frames, stream, cuts


@prop_settings
@given(cut_stream())
def test_frames_come_out_whole_and_in_order(case):
    frames, stream, cuts = case
    loop = asyncio.new_event_loop()
    try:
        owner, reader, socket = _reader(loop)
        _feed(reader, _split(stream, cuts))
        assert owner.frames == _expected(frames)
        assert reader.buffered == 0
        assert not owner._kernel.errors and not socket.closed
    finally:
        loop.close()


_CORRUPT_HEADERS = {
    "magic": (HEADER.pack(b"GE", WIRE_VERSION, 0, 4), BadFrameMagic),
    "version": (HEADER.pack(WIRE_MAGIC, WIRE_VERSION + 1, 0, 4),
                UnsupportedWireVersion),
    "flags": (HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0x80, 4),
              MalformedWirePayload),
    "length": (HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0, 2**32 - 1),
               OversizedFrame),
    "one past the ceiling": (HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0,
                                         MAX_FRAME + 1), OversizedFrame),
}


@prop_settings
@given(st.sampled_from(sorted(_CORRUPT_HEADERS)),
       st.data())
def test_a_corrupt_header_stops_the_stream_after_the_good_frames(kind, data):
    header, error_type = _CORRUPT_HEADERS[kind]
    # good frames, the corrupt header, and more good frames that must never
    # be delivered: nothing after a desynchronised header can be trusted
    frames, stream, cuts = data.draw(cut_stream(
        tail=header + b"".join(GOLDEN_FRAMES[:3])))
    loop = asyncio.new_event_loop()
    try:
        owner, reader, socket = _reader(loop)
        _feed(reader, _split(stream, cuts))
        assert owner.frames == _expected(frames)
        (error,) = owner._kernel.errors
        assert type(error) is error_type
        assert isinstance(error, WireError)
        assert "10.0.0.9:4242" in str(error)
        assert socket.closed
        assert reader.buffered == 0
    finally:
        loop.close()


def test_a_huge_length_is_refused_from_the_header_alone(loop):
    owner, reader, socket = _reader(loop)
    header = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0, 2**32 - 1)
    for byte in header[:-1]:
        reader.data_received(bytes((byte,)))
        assert not owner._kernel.errors
    assert reader.buffered == HEADER_SIZE - 1
    reader.data_received(header[-1:] + b"x" * 1000)
    (error,) = owner._kernel.errors
    assert isinstance(error, OversizedFrame)
    assert reader.buffered == 0
    # a failed connection reads nothing more
    reader.data_received(GOLDEN_FRAMES[0])
    assert owner.frames == [] and len(owner._kernel.errors) == 1


def test_a_frame_fed_one_byte_at_a_time_comes_out_once(loop):
    owner, reader, _ = _reader(loop)
    frame = max(GOLDEN_FRAMES, key=len)
    for index in range(len(frame)):
        reader.data_received(frame[index:index + 1])
        assert reader.buffered == (index + 1) % len(frame)
    assert owner.frames == _expected([frame])
