//! Length-prefixed framing for stream transports.
//!
//! The TCP runtime carries every message as a *frame*: a 4-byte
//! big-endian length followed by that many payload bytes. The framing
//! layer is payload-agnostic — versioning and message typing live in the
//! payload's first bytes (see `dewe-core`'s `protocol::WireMsg`) — so the
//! same reader/writer pair serves every connection role.
//!
//! ```text
//!  ┌──────────────┬──────────────────────────────┐
//!  │ len: u32 BE  │ payload (len bytes)          │
//!  └──────────────┴──────────────────────────────┘
//! ```
//!
//! One writer here produces those bytes, [`write_frame`], which flushes
//! after the frame; the runtime's senders have `dewe-core`'s `WireMsg`
//! frame a message into a buffer they write whole.
//!
//! A length cap guards both sides against a corrupt or hostile peer
//! declaring a multi-gigabyte frame: oversized lengths are an
//! [`std::io::ErrorKind::InvalidData`] error, not an allocation.

use std::io::{self, Read, Write};

/// Default frame-length cap: generous for workflow DAG text (the largest
/// payload the runtime ships — a few MB at paper scale) while refusing
/// absurd lengths from corrupt streams.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Write one frame: length prefix and payload in one buffer, written
/// whole, then flush. For a frame that must be on the wire when the call
/// returns — a handshake, a one-shot client. One write, because a payload
/// written after its prefix on an unbuffered socket waits for the peer's
/// delayed acknowledgment of the prefix. A payload longer than a `u32` can
/// declare is `InvalidInput`, and then nothing is written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on a clean end of stream (the peer
/// closed between frames); a stream that ends *inside* a frame is an
/// [`std::io::ErrorKind::UnexpectedEof`] error. Frames longer than
/// `max_frame` are rejected before any payload allocation.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        match r.read(&mut len_buf[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended inside a frame length prefix",
                ));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {max_frame}"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// [`read_frame`] for a reader that must never wait: bytes go in a bounded
/// read at a time, as they happen to arrive, and whole frames come out,
/// borrowed from the buffer they arrived in. One thread serving many
/// non-blocking sockets keeps one of these per socket.
///
/// The buffer holds at most the frame in progress and one read beyond it:
/// it grows to a frame's length only once that length is known to be within
/// `max_frame`, and is reused from the front whenever it runs empty.
#[derive(Debug)]
pub struct FrameBuf {
    /// Received bytes not yet handed out are `buf[start..end]`; the rest of
    /// `buf` is room, zeroed once when it was added and never again.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
    read_bound: usize,
}

impl FrameBuf {
    /// A buffer for frames of at most `max_frame` payload bytes, filled at
    /// most `read_bound` bytes at a time. Allocates nothing until filled.
    pub fn new(max_frame: usize, read_bound: usize) -> Self {
        Self { buf: Vec::new(), start: 0, end: 0, max_frame, read_bound: read_bound.max(1) }
    }

    /// Payload length of the frame at the front, once its prefix is in.
    fn front_len(&self) -> io::Result<Option<usize>> {
        let Some(prefix) = self.buf[self.start..self.end].first_chunk::<4>() else {
            return Ok(None);
        };
        let (len, max_frame) = (u32::from_be_bytes(*prefix) as usize, self.max_frame);
        if len > max_frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {max_frame}"),
            ));
        }
        Ok(Some(len))
    }

    /// One `read` of at most the read bound, appended to what is buffered;
    /// for a caller that has taken every frame
    /// [`next_frame`](Self::next_frame) had.
    /// Returns what the read returned — `Ok(0)` is end of stream, and
    /// `WouldBlock` is the reader's to report — or `InvalidData` if the
    /// frame at the front declares a length over the cap, before making
    /// room for any of it.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        if self.buf.len() - self.end < self.read_bound {
            let frame = self.front_len()?.map_or(0, |len| 4 + len);
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            let want = frame.max(self.end) + self.read_bound;
            if want > self.buf.len() {
                self.buf.reserve_exact(want - self.buf.len());
                self.buf.resize(want, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..self.end + self.read_bound])?;
        self.end += n;
        Ok(n)
    }

    /// The next whole frame's payload, or `Ok(None)` when the bytes so far
    /// end inside one (or there are none). A declared length over the cap
    /// is `InvalidData`, as from [`read_frame`].
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(len) = self.front_len()? else { return Ok(None) };
        let body = self.start + 4;
        if self.end - body < len {
            return Ok(None);
        }
        self.start = body + len;
        Ok(Some(&self.buf[body..self.start]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A stream that hands its bytes out in reads of the given sizes (over
    /// and over), however much room the caller offers.
    struct Chunked<'a> {
        rest: &'a [u8],
        cuts: std::iter::Cycle<std::slice::Iter<'a, usize>>,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (*self.cuts.next().expect("cycles")).min(buf.len()).min(self.rest.len());
            buf[..n].copy_from_slice(&self.rest[..n]);
            self.rest = &self.rest[n..];
            Ok(n)
        }
    }

    /// The frames of `stream` and how it ended (`None`: cleanly, between
    /// frames), as [`read_frame`] sees it.
    fn by_read_frame(mut stream: &[u8], max_frame: usize) -> (Vec<Vec<u8>>, Option<io::ErrorKind>) {
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut stream, max_frame) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e.kind())),
            }
        }
    }

    /// The same as a [`FrameBuf`] sees it when the stream arrives cut at
    /// `cuts`, and the most memory the buffer held.
    fn by_frame_buf(
        stream: &[u8],
        cuts: &[usize],
        max_frame: usize,
        read_bound: usize,
    ) -> (Vec<Vec<u8>>, Option<io::ErrorKind>, usize) {
        let mut r = Chunked { rest: stream, cuts: cuts.iter().cycle() };
        let mut buf = FrameBuf::new(max_frame, read_bound);
        let (mut frames, mut room) = (Vec::new(), 0);
        let end = loop {
            match buf.next_frame() {
                Ok(Some(frame)) => {
                    frames.push(frame.to_vec());
                    continue;
                }
                Ok(None) => {}
                Err(e) => break Some(e.kind()),
            }
            let filled = buf.fill(&mut r);
            room = room.max(buf.buf.capacity());
            match filled {
                Ok(0) if buf.start == buf.end => break None,
                Ok(0) => break Some(io::ErrorKind::UnexpectedEof),
                Ok(_) => {}
                Err(e) => break Some(e.kind()),
            }
        };
        (frames, end, room)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Whatever was framed comes out as framed, wherever the stream was
        /// cut on the way — a byte at a time, all at once, anything between.
        #[test]
        fn frame_buf_is_blind_to_how_the_stream_was_cut(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..80), 0..8),
            cuts in prop::collection::vec(1usize..700, 1..8),
            read_bound in 1usize..700,
        ) {
            let mut stream = Vec::new();
            for payload in &payloads {
                write_frame(&mut stream, payload).unwrap();
            }
            let (frames, end, _) = by_frame_buf(&stream, &cuts, 80, read_bound);
            prop_assert_eq!((&frames, end), (&payloads, None));
            prop_assert_eq!(by_read_frame(&stream, 80), (frames, None));
        }

        /// Over arbitrary bytes (mostly zeros, so that length prefixes are
        /// often small enough to be followed) a `FrameBuf` does what
        /// `read_frame` does — the same frames, then the same end — and
        /// never holds more than the largest frame and one read beyond it.
        #[test]
        fn frame_buf_is_total_over_an_arbitrary_stream(
            stream in prop::collection::vec(prop_oneof![Just(0u8), Just(0u8), Just(0u8), any::<u8>()], 0..400),
            cuts in prop::collection::vec(1usize..400, 1..8),
            max_frame in 0usize..64,
            read_bound in 1usize..128,
        ) {
            let (frames, end, room) = by_frame_buf(&stream, &cuts, max_frame, read_bound);
            prop_assert_eq!((frames, end), by_read_frame(&stream, max_frame));
            prop_assert!(room <= 4 + max_frame + read_bound, "{room} bytes held");
        }
    }

    #[test]
    fn frame_buf_refuses_an_oversized_prefix_before_buffering_any_payload() {
        let mut stream = 1025u32.to_be_bytes().to_vec();
        stream.extend([7u8; 5000]);
        let mut buf = FrameBuf::new(1024, 4);
        let mut rest = stream.as_slice();
        assert_eq!(buf.fill(&mut rest).unwrap(), 4, "the prefix, and it is enough");
        assert_eq!(buf.next_frame().unwrap_err().kind(), io::ErrorKind::InvalidData);
        // A caller that reads on regardless is refused there too.
        assert_eq!(buf.fill(&mut rest).unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(rest.len(), 5000, "not a byte of payload was taken off the stream");
        assert_eq!(buf.buf.capacity(), 4, "and no room was made for one");
    }

    #[test]
    fn round_trips_frames_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"beta").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"beta");
        assert!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Takes every byte offered, counting the calls.
        #[derive(Default)]
        struct Counting {
            bytes: Vec<u8>,
            writes: usize,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting::default();
        for (frames, payload) in [(1, &b"alpha"[..]), (2, b""), (3, &[9u8; 5000])] {
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, frames, "one write per frame, prefix and payload together");
        }
        let mut r = w.bytes.as_slice();
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), [9u8; 5000]);
    }

    #[test]
    fn rejects_oversized_length_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Cut the stream inside the payload.
        buf.truncate(7);
        let err = read_frame(&mut buf.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // And inside the length prefix.
        let err = read_frame(&mut [0u8, 0u8].as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
