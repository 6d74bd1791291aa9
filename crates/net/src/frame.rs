//! Newline-delimited JSON framing with a hard size cap.
//!
//! One request or response per line, UTF-8 JSON, terminated by `\n` (a
//! trailing `\r` is tolerated and stripped).  The reader enforces a
//! maximum frame size *while accumulating*, so a peer cannot make the
//! server buffer an unbounded line — the oversized frame is reported
//! before the newline ever arrives.  Reads honour the socket's read
//! timeout: a timeout surfaces as [`FrameOutcome::Timeout`] with the
//! partial frame kept, letting the connection loop poll the server's
//! shutdown state between chunks without losing data.

use std::io::{ErrorKind, Read, Write};

/// Default cap on a single frame (16 MiB), matching the service protocol.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 16 << 20;

/// Outcome of one [`FrameReader::read_frame`] call.
#[derive(Debug)]
pub enum FrameOutcome {
    /// A complete frame (the line without its `\n` / `\r\n` terminator).
    Frame(Vec<u8>),
    /// The read timed out before a full frame arrived; the partial frame
    /// is retained, call again to continue.
    Timeout,
    /// The peer closed its write side.  `mid_frame` reports whether bytes
    /// of an unterminated frame were discarded.
    Eof {
        /// `true` when the connection died with a partial frame buffered.
        mid_frame: bool,
    },
    /// The frame exceeded the size cap before its newline arrived.  The
    /// stream is beyond resynchronization: reply with an error and close.
    TooLarge {
        /// The enforced cap in bytes.
        limit: usize,
    },
    /// Any other I/O error.
    Io(std::io::Error),
}

/// Smallest room a `read` is offered.  A large frame arrives in few reads,
/// each straight into the buffer it is scanned in; what the socket holds of
/// a small one still comes back in the first.
const READ_STEP: usize = 64 << 10;

/// Incremental reader for capped newline-delimited frames.
pub struct FrameReader<R> {
    inner: R,
    /// Storage, initialized throughout so that a `read` can be handed any
    /// part of it; grown (and zeroed) only when a frame outgrows it.
    buf: Vec<u8>,
    /// Bytes of `buf` that hold data read and not yet returned.
    filled: usize,
    /// Scan resume position: bytes before it are known newline-free.
    scanned: usize,
    max_frame: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner`, enforcing `max_frame` bytes per frame.
    pub fn new(inner: R, max_frame: usize) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            filled: 0,
            scanned: 0,
            max_frame,
        }
    }

    /// Reads until one full frame, EOF, timeout or the size cap.
    pub fn read_frame(&mut self) -> FrameOutcome {
        loop {
            let unscanned = &self.buf[self.scanned..self.filled];
            if let Some(offset) = unscanned.iter().position(|&b| b == b'\n') {
                let newline = self.scanned + offset;
                if newline > self.max_frame {
                    break;
                }
                let mut frame = self.buf[..newline].to_vec();
                if frame.last() == Some(&b'\r') {
                    frame.pop();
                }
                self.buf.copy_within(newline + 1..self.filled, 0);
                self.filled -= newline + 1;
                self.scanned = 0;
                return FrameOutcome::Frame(frame);
            }
            self.scanned = self.filled;
            if self.filled > self.max_frame {
                break;
            }
            if self.buf.len() - self.filled < READ_STEP {
                // Doubling, but never past what a frame at the cap needs.
                let grown = (self.filled + READ_STEP).max(self.buf.len() * 2);
                self.buf
                    .resize(grown.min(self.max_frame.saturating_add(1 + READ_STEP)), 0);
            }
            match self.inner.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    return FrameOutcome::Eof {
                        mid_frame: self.filled > 0,
                    }
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return FrameOutcome::Timeout
                }
                Err(e) => return FrameOutcome::Io(e),
            }
        }
        FrameOutcome::TooLarge {
            limit: self.max_frame,
        }
    }
}

/// Writes one frame: the payload followed by `\n`, flushed.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    writer.write_all(payload)?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_frames_and_strips_terminators() {
        let data: &[u8] = b"one\r\ntwo\nthree";
        let mut reader = FrameReader::new(data, 64);
        assert!(matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == b"one"));
        assert!(matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == b"two"));
        assert!(matches!(
            reader.read_frame(),
            FrameOutcome::Eof { mid_frame: true }
        ));
    }

    #[test]
    fn clean_eof_is_not_mid_frame() {
        let data: &[u8] = b"only\n";
        let mut reader = FrameReader::new(data, 64);
        assert!(matches!(reader.read_frame(), FrameOutcome::Frame(_)));
        assert!(matches!(
            reader.read_frame(),
            FrameOutcome::Eof { mid_frame: false }
        ));
    }

    #[test]
    fn oversized_frame_is_reported_before_its_newline() {
        let data = [b'x'; 200];
        let mut reader = FrameReader::new(&data[..], 64);
        assert!(matches!(
            reader.read_frame(),
            FrameOutcome::TooLarge { limit: 64 }
        ));
    }

    /// Hands out at most `step` bytes per `read`, like a socket.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn large_and_pipelined_frames_survive_any_read_size() {
        let big: Vec<u8> = (0..300_000u32).map(|i| b'a' + (i % 23) as u8).collect();
        let mut data = b"first\n".to_vec();
        data.extend_from_slice(&big);
        data.extend_from_slice(b"\r\nlast\n");
        for step in [1usize << 20, 70_000, 4096, 7] {
            let mut reader = FrameReader::new(Trickle { data: &data, step }, 1 << 20);
            assert!(matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == b"first"));
            assert!(matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == big));
            assert!(matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == b"last"));
            assert!(matches!(
                reader.read_frame(),
                FrameOutcome::Eof { mid_frame: false }
            ));
        }
    }

    #[test]
    fn oversized_frame_is_refused_even_with_its_newline_buffered() {
        let mut data = vec![b'x'; 65];
        data.push(b'\n');
        let mut reader = FrameReader::new(&data[..], 64);
        assert!(matches!(
            reader.read_frame(),
            FrameOutcome::TooLarge { limit: 64 }
        ));
    }

    #[test]
    fn frame_at_the_cap_still_passes() {
        let mut data = vec![b'x'; 64];
        data.push(b'\n');
        let mut reader = FrameReader::new(&data[..], 64);
        assert!(matches!(reader.read_frame(), FrameOutcome::Frame(f) if f.len() == 64));
    }
}
