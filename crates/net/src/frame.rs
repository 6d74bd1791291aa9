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
//!
//! The terminator is looked for eight bytes at a time (`find_newline`):
//! an `insert` frame is hundreds of kilobytes, and a byte-wise search of
//! one took as long as a tenth of the shard's decode of it.

use std::io::{ErrorKind, IoSlice, Read, Write};

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
            if let Some(offset) = find_newline(unscanned) {
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

/// The position of the first `\n` in `bytes`, read one little-endian `u64`
/// word at a time.  In `word ^ NEWLINES` a newline is a zero byte, and
/// `(x - 0x01..01) & !x & 0x80..80` sets the high bit of every zero byte of
/// `x`; it may also set the bit of a `0x01` byte *above* a zero one, where
/// the subtraction's borrow arrives, but never below the first zero.  So
/// the lowest set bit is exact, and is the only one read.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    const NEWLINES: u64 = u64::from_ne_bytes([b'\n'; 8]);
    let mut words = bytes.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(offset + zeros.trailing_zeros() as usize / 8);
        }
        offset += 8;
    }
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| offset + i)
}

/// Writes one frame: the payload followed by `\n`, flushed.  Both go out
/// in one vectored write when the writer takes them whole, so a small reply
/// is one TCP segment rather than a second one carrying only the `\n`; the
/// payload is never copied to append the newline (an `insert` frame is
/// hundreds of kilobytes).
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    write_frame_while(writer, payload, || false)
}

/// [`write_frame`] on a writer with a write timeout: a write that times
/// out (`WouldBlock` / `TimedOut`) is retried for as long as `keep_going`
/// says so, and otherwise fails with that error.
pub(crate) fn write_frame_while<W: Write>(
    writer: &mut W,
    payload: &[u8],
    mut keep_going: impl FnMut() -> bool,
) -> std::io::Result<()> {
    let mut parts = [IoSlice::new(payload), IoSlice::new(b"\n")];
    let mut unsent = &mut parts[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && keep_going() => {}
            Err(e) => return Err(e),
        }
    }
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

    /// Bytes that sit next to `\n` in the search's arithmetic: `0x0b` is it
    /// with the low bit flipped (in `x`, a `0x01`, where a borrow lands),
    /// `0x8a` with the high bit set; then its neighbours in text (`\t`,
    /// `\r`), the extremes, a high-bit byte and a digit.
    const FILLER: [u8; 8] = [0x00, 0x09, 0x0b, 0x0d, 0x8a, 0x80, 0xff, b'0'];

    #[test]
    fn word_search_equals_the_bytewise_search() {
        let bytewise = |buf: &[u8]| buf.iter().position(|&b| b == b'\n');
        for len in 0..=40 {
            // Each filler alone, and mixed in three patterns.
            let fills: Vec<Vec<u8>> = FILLER
                .iter()
                .map(|&fill| vec![fill; len])
                .chain((1..4).map(|step| (0..len).map(|i| FILLER[(i * step + len) % 8]).collect()))
                .collect();
            for fill in fills {
                let mut buf = fill.clone();
                assert_eq!(find_newline(&buf), bytewise(&buf), "{buf:?}");
                for at in 0..len {
                    buf[at] = b'\n';
                    assert_eq!(find_newline(&buf), bytewise(&buf), "{buf:?}");
                    // A second newline after it changes nothing.
                    if at + 3 < len {
                        buf[at + 3] = b'\n';
                        assert_eq!(find_newline(&buf), Some(at), "{buf:?}");
                        buf[at + 3] = fill[at + 3];
                    }
                    buf[at] = fill[at];
                }
            }
        }
    }

    #[test]
    fn frames_straddling_reads_at_every_word_offset() {
        for offset in 0..8 {
            // A first frame of `offset` bytes puts the second one's bytes
            // at every alignment against the eight-byte words.
            let first = vec![b'x'; offset];
            let second: Vec<u8> = (0..37).map(|i| FILLER[i % 8]).collect();
            let mut data = first.clone();
            data.push(b'\n');
            data.extend_from_slice(&second);
            data.extend_from_slice(b"\r\n");
            for step in 1..=17 {
                let mut reader = FrameReader::new(Trickle { data: &data, step }, 64);
                assert!(
                    matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == first),
                    "offset {offset}, step {step}"
                );
                assert!(
                    matches!(reader.read_frame(), FrameOutcome::Frame(f) if f == second),
                    "offset {offset}, step {step}"
                );
                assert!(matches!(
                    reader.read_frame(),
                    FrameOutcome::Eof { mid_frame: false }
                ));
            }
        }
    }

    /// Takes at most `step` bytes per call across the slices it is offered,
    /// like a socket's `writev`, after refusing `interrupts` calls with
    /// `Interrupted`; counts the calls.
    struct TrickleWriter {
        taken: Vec<u8>,
        step: usize,
        interrupts: usize,
        calls: usize,
    }

    impl TrickleWriter {
        fn new(step: usize, interrupts: usize) -> Self {
            TrickleWriter {
                taken: Vec::new(),
                step,
                interrupts,
                calls: 0,
            }
        }
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(ErrorKind::Interrupted.into());
            }
            let mut room = self.step;
            for buf in bufs {
                let n = room.min(buf.len());
                self.taken.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.step - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_short_and_interrupted_writes() {
        let payload: Vec<u8> = (0..100u8).map(|i| b'a' + i % 26).collect();
        let mut expected = payload.clone();
        expected.push(b'\n');
        for (step, interrupts) in [(7, 0), (7, 1), (1, 0), (usize::MAX, 1)] {
            let mut writer = TrickleWriter::new(step, interrupts);
            write_frame(&mut writer, &payload).unwrap();
            assert_eq!(
                writer.taken, expected,
                "step {step}, {interrupts} interrupt(s)"
            );
        }
        // An empty payload is still a frame: its newline.
        let mut writer = TrickleWriter::new(7, 0);
        write_frame(&mut writer, b"").unwrap();
        assert_eq!(writer.taken, b"\n");
    }

    #[test]
    fn write_frame_is_one_call_when_the_writer_takes_it_whole() {
        let mut writer = TrickleWriter::new(usize::MAX, 0);
        write_frame(&mut writer, b"one").unwrap();
        assert_eq!(writer.calls, 1);
        write_frame(&mut writer, b"two").unwrap();
        assert_eq!(writer.calls, 2);
        assert_eq!(writer.taken, b"one\ntwo\n");
    }

    #[test]
    fn write_frame_while_retries_timeouts_only_while_told_to() {
        /// Times out on its first `timeouts` calls, then takes everything.
        struct Stalled {
            timeouts: usize,
            taken: Vec<u8>,
        }
        impl Write for Stalled {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.timeouts > 0 {
                    self.timeouts -= 1;
                    return Err(ErrorKind::WouldBlock.into());
                }
                self.taken.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut writer = Stalled {
            timeouts: 3,
            taken: Vec::new(),
        };
        let mut asked = 0;
        write_frame_while(&mut writer, b"reply", || {
            asked += 1;
            true
        })
        .unwrap();
        assert_eq!((asked, writer.taken.as_slice()), (3, &b"reply\n"[..]));
        let mut writer = Stalled {
            timeouts: 1,
            taken: Vec::new(),
        };
        let err = write_frame(&mut writer, b"reply").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
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
