//! Length-prefixed MIXC frame bursts — the unit of transmission.
//!
//! A *frame* is one onion envelope (or whole onion message) plus a
//! sequence number; a *burst* is every frame a sender flushes to one
//! peer at once:
//!
//! ```text
//! magic   u32 = 0x4d495842 ("MIXB")
//! version u8  = 1
//! count   u32
//! repeat count times:
//!     seq  u32             // position in the sender's logical batch
//!     len  u32
//!     data len bytes       // MIXC onion bytes (opaque to the wire)
//! ```
//!
//! **Batched flushing** is the transmission analogue of the crypto
//! layer's `open_batch`: a round's C envelopes for one peer coalesce
//! into a *single* burst, paying the per-packet transmission overhead
//! once instead of C times. The per-envelope-flush baseline (one burst
//! per envelope) is what `eval load` measures batching against. Because
//! frames carry their sequence number, the receiver reassembles the
//! logical batch in order no matter how the wire delayed or reordered
//! the packets that carried it.

use bytes::{Buf, BufMut};
use std::error::Error;
use std::fmt;

/// Burst framing magic: `"MIXB"` as a big-endian u32.
pub const BURST_MAGIC: u32 = 0x4d49_5842;
/// Current burst framing version.
pub const BURST_VERSION: u8 = 1;
/// Fixed burst header bytes (magic + version + count).
pub const BURST_HEADER_BYTES: usize = 9;
/// Per-frame header bytes (seq + len).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Wire bytes a burst of `frames` frames adds on top of its payloads.
pub const fn burst_overhead_bytes(frames: usize) -> usize {
    BURST_HEADER_BYTES + frames * FRAME_HEADER_BYTES
}

/// A malformed burst.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Human-readable decode failure.
    pub reason: String,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame burst: {}", self.reason)
    }
}

impl Error for FrameError {}

/// Accumulates frames and flushes them as one burst.
///
/// The internal buffer survives [`FrameWriter::flush`]-less reuse via
/// [`FrameWriter::clear`]; `flush` hands the finished burst out by value
/// (it goes on the wire) and re-arms the writer with a fresh header.
#[derive(Debug)]
pub struct FrameWriter {
    buf: Vec<u8>,
    count: u32,
}

impl Default for FrameWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameWriter {
    /// An empty writer with the burst header pre-laid.
    pub fn new() -> Self {
        let mut w = FrameWriter {
            buf: Vec::new(),
            count: 0,
        };
        w.lay_header();
        w
    }

    fn lay_header(&mut self) {
        self.buf.put_u32(BURST_MAGIC);
        self.buf.put_u8(BURST_VERSION);
        self.buf.put_u32(0); // count, patched on flush
    }

    /// Appends one frame carrying `payload` at logical position `seq`.
    pub fn push(&mut self, seq: u32, payload: &[u8]) {
        self.buf.put_u32(seq);
        self.buf.put_u32(payload.len() as u32);
        self.buf.put_slice(payload);
        self.count += 1;
    }

    /// Frames accumulated since the last flush.
    pub fn frames(&self) -> usize {
        self.count as usize
    }

    /// Whether no frame has been pushed since the last flush.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finishes the burst: patches the frame count, hands the bytes out
    /// and re-arms the writer.
    pub fn flush(&mut self) -> Vec<u8> {
        self.buf[5..9].copy_from_slice(&self.count.to_be_bytes());
        let out = std::mem::take(&mut self.buf);
        self.count = 0;
        self.lay_header();
        out
    }

    /// Discards accumulated frames, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.count = 0;
        self.lay_header();
    }
}

/// Parses a burst into `(seq, payload)` frames, in burst order.
///
/// # Errors
///
/// Returns [`FrameError`] on truncation, bad magic, an unknown version,
/// an implausible frame count or trailing bytes.
pub fn parse_burst(mut bytes: &[u8]) -> Result<Vec<(u32, Vec<u8>)>, FrameError> {
    let fail = |reason: &str| FrameError {
        reason: reason.to_string(),
    };
    if bytes.remaining() < BURST_HEADER_BYTES {
        return Err(fail("header truncated"));
    }
    if bytes.get_u32() != BURST_MAGIC {
        return Err(fail("bad magic"));
    }
    let version = bytes.get_u8();
    if version != BURST_VERSION {
        return Err(FrameError {
            reason: format!("unsupported version {version}"),
        });
    }
    let count = bytes.get_u32() as usize;
    if count > bytes.remaining() / FRAME_HEADER_BYTES + 1 {
        return Err(fail("implausible frame count"));
    }
    let mut frames = Vec::with_capacity(count);
    for _ in 0..count {
        if bytes.remaining() < FRAME_HEADER_BYTES {
            return Err(fail("frame header truncated"));
        }
        let seq = bytes.get_u32();
        let len = bytes.get_u32() as usize;
        if bytes.remaining() < len {
            return Err(fail("frame payload truncated"));
        }
        let mut payload = vec![0u8; len];
        bytes.copy_to_slice(&mut payload);
        frames.push((seq, payload));
    }
    if bytes.has_remaining() {
        return Err(fail("trailing bytes after last frame"));
    }
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_batched_frames() {
        let mut w = FrameWriter::new();
        w.push(2, b"charlie");
        w.push(0, b"alpha");
        w.push(1, b"");
        assert_eq!(w.frames(), 3);
        let burst = w.flush();
        assert_eq!(
            burst.len(),
            burst_overhead_bytes(3) + "charlie".len() + "alpha".len()
        );
        let frames = parse_burst(&burst).unwrap();
        assert_eq!(
            frames,
            vec![
                (2, b"charlie".to_vec()),
                (0, b"alpha".to_vec()),
                (1, Vec::new())
            ]
        );
        // The writer re-armed.
        assert!(w.is_empty());
        w.push(9, b"x");
        let frames = parse_burst(&w.flush()).unwrap();
        assert_eq!(frames, vec![(9, b"x".to_vec())]);
    }

    #[test]
    fn empty_burst_is_valid() {
        let mut w = FrameWriter::new();
        let frames = parse_burst(&w.flush()).unwrap();
        assert!(frames.is_empty());
    }

    #[test]
    fn clear_discards_without_flushing() {
        let mut w = FrameWriter::new();
        w.push(0, b"dropped");
        w.clear();
        assert!(w.is_empty());
        assert!(parse_burst(&w.flush()).unwrap().is_empty());
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        let mut w = FrameWriter::new();
        w.push(0, b"abc");
        w.push(1, b"defg");
        let burst = w.flush();
        for cut in 0..burst.len() {
            assert!(parse_burst(&burst[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn bad_magic_version_trailing_and_count_are_rejected() {
        let mut w = FrameWriter::new();
        w.push(0, b"abc");
        let good = w.flush();

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(parse_burst(&bad).unwrap_err().to_string().contains("magic"));

        let mut bad = good.clone();
        bad[4] = 7;
        assert!(parse_burst(&bad)
            .unwrap_err()
            .to_string()
            .contains("version 7"));

        let mut bad = good.clone();
        bad.push(0);
        assert!(parse_burst(&bad)
            .unwrap_err()
            .to_string()
            .contains("trailing"));

        let mut bad = good;
        bad[5..9].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(parse_burst(&bad)
            .unwrap_err()
            .to_string()
            .contains("implausible"));
    }
}
