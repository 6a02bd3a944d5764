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
//! Two writers produce those bytes: [`write_frame`] / [`write_frame_split`]
//! flush after the frame, [`queue_frame_split`] leaves the flush to a
//! caller that has more frames to send first.
//!
//! A length cap guards both sides against a corrupt or hostile peer
//! declaring a multi-gigabyte frame: oversized lengths are an
//! [`std::io::ErrorKind::InvalidData`] error, not an allocation.

use std::io::{self, Read, Write};

/// Default frame-length cap: generous for workflow DAG text (the largest
/// payload the runtime ships — a few MB at paper scale) while refusing
/// absurd lengths from corrupt streams.
pub const DEFAULT_MAX_FRAME: usize = 64 * 1024 * 1024;

/// Write one frame: length prefix, payload, flush. For a frame that must
/// be on the wire when the call returns — a handshake, a one-shot client.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_split(w, payload, &[])
}

/// Write one frame whose payload is `head` followed by `tail`, each with
/// its own `write_all`, then flush: a sender holding a small header and a
/// large body (a shared DAG text) frames them without first copying both
/// into one buffer. On the wire it is indistinguishable from
/// [`write_frame`] of the concatenation.
pub fn write_frame_split(w: &mut impl Write, head: &[u8], tail: &[u8]) -> io::Result<()> {
    queue_frame_split(w, head, tail)?;
    w.flush()
}

/// [`write_frame_split`] without the flush: the frame is left in `w`'s
/// buffer (when `w` is buffered) for the caller to flush. The writer
/// threads of a long-lived connection use this — they queue every frame
/// that is ready and flush once, before they block — so a burst of frames
/// costs one `send(2)`, not one each, and a lone frame still leaves at
/// once. Same bytes on the wire either way.
pub fn queue_frame_split(w: &mut impl Write, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let len =
        head.len().checked_add(tail.len()).and_then(|len| u32::try_from(len).ok()).ok_or_else(
            || io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"),
        )?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(head)?;
    w.write_all(tail)
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn split_frames_read_back_as_their_concatenation() {
        let mut split = Vec::new();
        write_frame_split(&mut split, b"head", b"-and-tail").unwrap();
        write_frame_split(&mut split, b"", b"").unwrap();
        let mut whole = Vec::new();
        write_frame(&mut whole, b"head-and-tail").unwrap();
        write_frame(&mut whole, b"").unwrap();
        assert_eq!(split, whole);
        let mut r = split.as_slice();
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME).unwrap().unwrap(), b"head-and-tail");
    }

    #[test]
    fn queued_frames_reach_the_wire_at_the_callers_flush_with_the_same_bytes() {
        let mut flushed = Vec::new();
        write_frame_split(&mut flushed, b"head", b"-and-tail").unwrap();
        write_frame(&mut flushed, b"next").unwrap();
        let mut w = std::io::BufWriter::new(Vec::new());
        queue_frame_split(&mut w, b"head", b"-and-tail").unwrap();
        queue_frame_split(&mut w, b"next", b"").unwrap();
        assert!(w.get_ref().is_empty(), "nothing leaves before the flush");
        w.flush().unwrap();
        assert_eq!(w.get_ref(), &flushed);
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
