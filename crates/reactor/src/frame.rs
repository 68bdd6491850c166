//! Incremental frame assembly and writeback for the serve wire format.
//!
//! A frame is `[version: u8][len: u32 big-endian][payload: len bytes]`.
//! A reactor cannot read a whole frame per call — bytes arrive whenever
//! the socket feels like it, and a response may only partially fit the
//! send buffer. These two state machines carry a connection across any
//! split (the blocking reader in `gnnmls-serve` drives the same decoder,
//! asking for [`FrameDecoder::needed`] bytes at a time):
//!
//! - [`FrameDecoder`] accumulates bytes and yields complete payloads.
//!   It validates eagerly: a foreign version byte is refused as soon as
//!   byte 0 arrives (before the length is even known), and a length
//!   above the configured cap is refused as soon as the 5-byte header
//!   completes — the decoder never allocates for a frame it will
//!   reject.
//! - [`WriteQueue`] holds encoded frames and tracks a byte offset into
//!   the frame currently being written, so a short write (or
//!   `WouldBlock`) resumes exactly where it stopped.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};

/// Bytes in a frame header: 1 version byte + 4 length bytes.
pub const FRAME_HEADER_LEN: usize = 5;

/// Why the decoder refused the stream. Both cases poison the
/// connection: the byte stream can no longer be trusted to be
/// frame-aligned, so the owner should notify and close.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Byte 0 of a frame was not the expected protocol version.
    Version {
        /// The version byte the peer sent.
        got: u8,
        /// The version this decoder speaks.
        want: u8,
    },
    /// The header announced a payload larger than the cap.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Version { got, want } => {
                write!(f, "peer speaks protocol version {got}, want {want}")
            }
            DecodeError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes one frame: version byte, big-endian length, payload.
///
/// Purely mechanical — length caps and serialization live with the
/// caller, which validates *before* encoding so nothing is ever
/// half-written.
pub fn encode_frame(version: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.push(version);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental frame reassembly. Feed it bytes as they arrive; take
/// complete payloads out.
pub struct FrameDecoder {
    version: u8,
    max_frame: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when the buffer empties so a
    /// long-lived chatty connection cannot grow it without bound.
    pos: usize,
}

impl FrameDecoder {
    /// A decoder for the given protocol version and payload cap.
    pub fn new(version: u8, max_frame: usize) -> Self {
        Self {
            version,
            max_frame,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Appends raw bytes from the socket.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Reads from `r` until it would block, hits EOF, errors, or
    /// `budget` bytes have been consumed (fairness cap per readiness
    /// event; level-triggered polling re-reports leftovers). Returns
    /// `(bytes_read, saw_eof)`; `WouldBlock` is not an error.
    pub fn fill_from<R: Read>(&mut self, r: &mut R, budget: usize) -> io::Result<(usize, bool)> {
        self.compact();
        let mut total = 0usize;
        let mut chunk = [0u8; 16 * 1024];
        while total < budget {
            let want = chunk.len().min(budget - total);
            match r.read(&mut chunk[..want]) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok((total, false))
    }

    /// Takes the next complete payload, if one is buffered.
    ///
    /// Validation is eager: the version byte is checked the moment it
    /// is present and the announced length the moment the header
    /// completes, so garbage is refused before any payload is buffered
    /// for it. After an `Err` the decoder is poisoned — the stream is
    /// no longer frame-aligned and must be closed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        let avail = self.buf.len() - self.pos;
        if avail == 0 {
            return Ok(None);
        }
        let got = self.buf[self.pos];
        if got != self.version {
            return Err(DecodeError::Version {
                got,
                want: self.version,
            });
        }
        if avail < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_be_bytes([
            self.buf[self.pos + 1],
            self.buf[self.pos + 2],
            self.buf[self.pos + 3],
            self.buf[self.pos + 4],
        ]) as usize;
        if len > self.max_frame {
            return Err(DecodeError::TooLarge {
                len,
                max: self.max_frame,
            });
        }
        if avail < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let start = self.pos + FRAME_HEADER_LEN;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        self.compact();
        Ok(Some(payload))
    }

    /// Bytes the frame at the head of the buffer still needs before
    /// [`next_frame`](Self::next_frame) can yield it: the rest of the
    /// header, then the rest of the payload. A blocking reader asks for
    /// exactly this many so it never consumes the next frame's bytes.
    /// Call it after `next_frame` returned `Ok(None)`; a complete frame
    /// still buffered needs 0.
    pub fn needed(&self) -> usize {
        let avail = self.buffered();
        if avail < FRAME_HEADER_LEN {
            return FRAME_HEADER_LEN - avail;
        }
        let len = u32::from_be_bytes([
            self.buf[self.pos + 1],
            self.buf[self.pos + 2],
            self.buf[self.pos + 3],
            self.buf[self.pos + 4],
        ]) as usize;
        (FRAME_HEADER_LEN + len).saturating_sub(avail)
    }

    /// Whether a partial frame is buffered (the peer started one and
    /// has not finished it). This is what arms a stall deadline.
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.pos
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 64 * 1024 {
            // A pathological interleaving could otherwise pin the
            // consumed prefix forever.
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Outgoing frames with partial-write tracking.
pub struct WriteQueue {
    frames: VecDeque<Vec<u8>>,
    /// Offset already written into `frames[0]`.
    offset: usize,
    buffered: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            frames: VecDeque::new(),
            offset: 0,
            buffered: 0,
        }
    }

    /// Queues one fully encoded frame.
    pub fn push(&mut self, frame: Vec<u8>) {
        self.buffered += frame.len();
        self.frames.push_back(frame);
    }

    /// Nothing left to write.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Bytes still queued (the backpressure signal: a loop pauses
    /// reading from a connection whose peer is not draining this).
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Writes as much as the socket accepts. Returns `Ok(true)` when
    /// the queue drained, `Ok(false)` when the socket would block with
    /// bytes still queued. A short write advances the offset so the
    /// next call resumes mid-frame.
    pub fn flush_to<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while let Some(front) = self.frames.front() {
            match w.write(&front[self.offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.offset += n;
                    self.buffered -= n;
                    if self.offset == front.len() {
                        self.frames.pop_front();
                        self.offset = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

impl Default for WriteQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: u8 = 2;
    const MAX: usize = 1024;

    #[test]
    fn one_byte_at_a_time_reassembles() {
        let payload = b"{\"id\":42}";
        let frame = encode_frame(V, payload);
        let mut dec = FrameDecoder::new(V, MAX);
        for (i, b) in frame.iter().enumerate() {
            dec.extend_from_slice(&[*b]);
            let got = dec.next_frame().unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "frame complete too early at byte {i}");
                assert!(dec.mid_frame());
            } else {
                assert_eq!(got.as_deref(), Some(&payload[..]));
            }
        }
        assert!(!dec.mid_frame(), "buffer empty after the frame");
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn needed_counts_down_the_header_then_the_payload() {
        let frame = encode_frame(V, &[5u8; 12]);
        let mut dec = FrameDecoder::new(V, MAX);
        assert_eq!(dec.needed(), FRAME_HEADER_LEN);
        dec.extend_from_slice(&frame[..3]);
        assert_eq!(dec.needed(), 2, "rest of the header");
        dec.extend_from_slice(&frame[3..8]);
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.needed(), 9, "rest of the payload");
        dec.extend_from_slice(&frame[8..]);
        assert_eq!(dec.needed(), 0);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&[5u8; 12][..]));
        assert_eq!(dec.needed(), FRAME_HEADER_LEN, "back to a fresh header");
    }

    #[test]
    fn pipelined_frames_come_out_in_order() {
        let mut bytes = Vec::new();
        for i in 0..5u8 {
            bytes.extend_from_slice(&encode_frame(V, &[i; 3]));
        }
        let mut dec = FrameDecoder::new(V, MAX);
        dec.extend_from_slice(&bytes);
        for i in 0..5u8 {
            assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&[i; 3][..]));
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn foreign_version_refused_on_byte_zero() {
        let mut dec = FrameDecoder::new(V, MAX);
        dec.extend_from_slice(&[1]);
        // One byte is enough: no length, no payload needed.
        assert_eq!(
            dec.next_frame().unwrap_err(),
            DecodeError::Version { got: 1, want: V }
        );
    }

    #[test]
    fn oversized_length_refused_at_header_without_buffering() {
        let mut dec = FrameDecoder::new(V, MAX);
        let mut hdr = vec![V];
        hdr.extend_from_slice(&((MAX + 1) as u32).to_be_bytes());
        dec.extend_from_slice(&hdr);
        assert_eq!(
            dec.next_frame().unwrap_err(),
            DecodeError::TooLarge {
                len: MAX + 1,
                max: MAX
            }
        );
    }

    #[test]
    fn empty_payload_frame_is_legal() {
        let mut dec = FrameDecoder::new(V, MAX);
        dec.extend_from_slice(&encode_frame(V, b""));
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b""[..]));
    }

    #[test]
    fn fill_from_respects_budget_and_reports_eof() {
        let frame = encode_frame(V, &[7u8; 100]);
        let mut dec = FrameDecoder::new(V, MAX);
        let mut src = io::Cursor::new(frame.clone());
        let (n, eof) = dec.fill_from(&mut src, 10).unwrap();
        assert_eq!(n, 10);
        assert!(!eof, "budget stop is not EOF");
        assert!(dec.next_frame().unwrap().is_none());
        let (n, eof) = dec.fill_from(&mut src, usize::MAX).unwrap();
        assert_eq!(n, frame.len() - 10);
        assert!(eof, "cursor drained to EOF");
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&[7u8; 100][..]));
    }

    /// A writer that accepts at most `cap` bytes per call and then
    /// pretends the socket buffer filled up.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        calls_until_block: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_short_writes_and_backpressure() {
        let f1 = encode_frame(V, &[1u8; 50]);
        let f2 = encode_frame(V, &[2u8; 30]);
        let mut q = WriteQueue::new();
        q.push(f1.clone());
        q.push(f2.clone());
        assert_eq!(q.buffered(), f1.len() + f2.len());

        let mut w = Throttled {
            out: Vec::new(),
            cap: 7,
            calls_until_block: 3,
        };
        // Three short writes of 7 bytes, then WouldBlock.
        assert!(!q.flush_to(&mut w).unwrap());
        assert_eq!(w.out.len(), 21);
        assert_eq!(q.buffered(), f1.len() + f2.len() - 21);

        // The peer drains; writing resumes exactly where it stopped.
        w.calls_until_block = usize::MAX;
        assert!(q.flush_to(&mut w).unwrap());
        assert!(q.is_empty());
        assert_eq!(q.buffered(), 0);
        let mut expect = f1;
        expect.extend_from_slice(&f2);
        assert_eq!(w.out, expect, "byte stream identical despite splits");
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut dec = FrameDecoder::new(V, 512 * 1024);
        // Push enough consumed frames to trip compaction.
        for _ in 0..3 {
            dec.extend_from_slice(&encode_frame(V, &[9u8; 40 * 1024]));
            assert!(dec.next_frame().unwrap().is_some());
        }
        assert_eq!(dec.buffered(), 0);
        assert!(!dec.mid_frame());
    }
}
