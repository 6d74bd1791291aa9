//! Read-only memory mappings for finished run files.
//!
//! The Coconut layout is exactly the case where mapped reads pay off: runs
//! and leaf levels are dense, sorted and immutable once finished, so a
//! page-cache-resident scan through a mapping is a plain `memcpy` instead of
//! a `pread` syscall per buffer.  [`Mapping`] wraps the raw `mmap(2)` /
//! `munmap(2)` calls behind a safe slice view; [`crate::PagedFile`] uses it
//! when its [`IoBackend`] is [`IoBackend::Mmap`].
//!
//! The build environment is offline, so the syscalls are declared directly
//! (minimal `extern "C"` bindings) rather than pulled in through a crate.
//! The declarations assume the LP64 ABI (`off_t` = `i64`), so the real
//! mapping is compiled only for 64-bit Unix targets; everywhere else —
//! non-Unix, or 32-bit Unix where glibc's `mmap` takes a 32-bit `off_t` —
//! mapping always fails and the caller falls back to positioned reads,
//! keeping the backend a pure performance knob on every platform.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{Result, StorageError};

coconut_json::wire! {
    /// How a [`crate::PagedFile`] serves read requests.  Its wire name
    /// (`"pread"` / `"mmap"`, [`IoBackend::name`]) is used by the palm
    /// protocol, reports and env vars; the wire also takes any spelling
    /// [`str::parse`] does.
    ///
    /// A pure performance knob: both backends return the same bytes and
    /// charge the same `IoStats` (mapped reads account every page they copy
    /// from, with the same sequential/random classification as positioned
    /// reads), so answers, costs and I/O totals are byte-identical at either
    /// setting.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub enum IoBackend names "the io backend" {
        /// Positioned `read` calls through the file descriptor (the default).
        #[default]
        Pread = "pread",
        /// Reads are copied out of a read-only shared mapping of the file.
        Mmap = "mmap",
    }
    fn name;
    unknown: str::parse;
}

impl std::fmt::Display for IoBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for IoBackend {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<IoBackend, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "pread" => Ok(IoBackend::Pread),
            "mmap" => Ok(IoBackend::Mmap),
            other => Err(format!("unknown io backend '{other}' (pread|mmap)")),
        }
    }
}

/// Advisory access-pattern hint for a read mapping (`madvise(2)`).
///
/// A pure performance knob layered on a pure performance knob: the hint
/// tunes kernel read-ahead for the mapped pages (aggressive for sequential
/// range scans, disabled for random query-time probes) but never changes
/// which bytes a read returns or which page touches `IoStats` accounts —
/// accounting happens in [`crate::PagedFile`], entirely outside the kernel's
/// read-ahead machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccessPattern {
    /// No particular expectation (the kernel default).
    #[default]
    Normal,
    /// Pages will be touched in ascending order (merge/scan range readers):
    /// `MADV_SEQUENTIAL`, aggressive read-ahead, early reclaim behind the
    /// cursor.
    Sequential,
    /// Pages will be touched in no predictable order (query-time block
    /// probes): `MADV_RANDOM`, read-ahead disabled so a probe faults only
    /// the pages it needs.
    Random,
}

impl AccessPattern {
    /// Short lowercase name used by diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            AccessPattern::Normal => "normal",
            AccessPattern::Sequential => "sequential",
            AccessPattern::Random => "random",
        }
    }
}

/// Number of file mappings currently alive in the process (diagnostic; the
/// unmap-before-unlink tests assert on the per-file state instead, which is
/// immune to concurrent tests creating their own mappings).
pub fn live_mappings() -> usize {
    LIVE_MAPPINGS.load(Ordering::Relaxed)
}

static LIVE_MAPPINGS: AtomicUsize = AtomicUsize::new(0);

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 0x1;
    pub const MAP_SHARED: c_int = 0x01;
    pub const MADV_NORMAL: c_int = 0;
    pub const MADV_RANDOM: c_int = 1;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MADV_WILLNEED: c_int = 3;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// A read-only `MAP_SHARED` mapping of the first `len` bytes of a file.
///
/// `MAP_SHARED` keeps the view coherent with writes made through the file
/// descriptor (both go through the same page cache), so a mapping created
/// while a file is still being appended to serves the already-written prefix
/// correctly; reads past the mapped length must remap (handled by
/// [`crate::PagedFile`]).  Dropping the mapping unmaps it.
pub struct Mapping {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// The mapping is read-only and the pointer is never handed out mutably.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps the first `len` bytes of `file` read-only.  Fails (and the
    /// caller falls back to positioned reads) when the platform has no
    /// `mmap`, when `len` is zero, or when the kernel refuses the mapping.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map(file: &std::fs::File, len: u64) -> Result<Mapping> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(len).map_err(|_| StorageError::InvalidRange {
            offset: 0,
            len: u64::MAX,
        })?;
        if len == 0 {
            return Err(StorageError::Corrupt("cannot map an empty file".into()));
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr.is_null() || ptr as isize == -1 {
            return Err(StorageError::Io(std::io::Error::last_os_error()));
        }
        // Purely advisory kick-off of kernel read-ahead for the fresh
        // mapping; errors are irrelevant.
        unsafe {
            let _ = sys::madvise(ptr, len, sys::MADV_WILLNEED);
        }
        LIVE_MAPPINGS.fetch_add(1, Ordering::Relaxed);
        Ok(Mapping {
            ptr: std::ptr::NonNull::new(ptr as *mut u8).expect("mmap returned non-null"),
            len,
        })
    }

    /// Non-Unix and 32-bit targets (where the hand-rolled LP64 `mmap`
    /// declaration would mismatch the C ABI) have no mapping; callers fall
    /// back to `pread`.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map(_file: &std::fs::File, _len: u64) -> Result<Mapping> {
        Err(StorageError::Corrupt(
            "memory mapping is not supported on this platform".into(),
        ))
    }

    /// Length of the mapping in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for a zero-length mapping (never constructed today).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Applies an advisory access-pattern hint to the whole mapping.
    ///
    /// Purely advisory: failures are ignored (as with the `MADV_WILLNEED`
    /// issued at map time) and neither the returned bytes nor the `IoStats`
    /// accounting depend on the hint.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn advise(&self, pattern: AccessPattern) {
        let advice = match pattern {
            AccessPattern::Normal => sys::MADV_NORMAL,
            AccessPattern::Sequential => sys::MADV_SEQUENTIAL,
            AccessPattern::Random => sys::MADV_RANDOM,
        };
        unsafe {
            let _ = sys::madvise(self.ptr.as_ptr() as *mut std::ffi::c_void, self.len, advice);
        }
    }

    /// No-op on platforms without `madvise`.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn advise(&self, _pattern: AccessPattern) {}
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        unsafe {
            let _ = sys::munmap(self.ptr.as_ptr() as *mut std::ffi::c_void, self.len);
        }
        LIVE_MAPPINGS.fetch_sub(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Mapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mapping").field("len", &self.len).finish()
    }
}

#[cfg(all(test, unix, target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn mapping_sees_file_bytes_and_unmaps_on_drop() {
        let dir = crate::tempdir::ScratchDir::new("mmap-basic").unwrap();
        let path = dir.file("a.bin");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(b"mapped bytes").unwrap();
        f.sync_data().unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let before = live_mappings();
        let m = Mapping::map(&f, 12).unwrap();
        assert_eq!(m.as_slice(), b"mapped bytes");
        assert_eq!(m.len(), 12);
        assert!(live_mappings() > before);
        drop(m);
    }

    #[test]
    fn mapping_is_coherent_with_descriptor_writes() {
        // MAP_SHARED mappings and write(2) share the page cache: bytes
        // written through the descriptor after the mapping was created must
        // be visible through the mapping (within the mapped length).
        let dir = crate::tempdir::ScratchDir::new("mmap-coherent").unwrap();
        let path = dir.file("a.bin");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(b"aaaaaaaa").unwrap();
        let reader = std::fs::File::open(&path).unwrap();
        let m = Mapping::map(&reader, 8).unwrap();
        assert_eq!(m.as_slice(), b"aaaaaaaa");
        use std::io::Seek;
        f.seek(std::io::SeekFrom::Start(2)).unwrap();
        f.write_all(b"zz").unwrap();
        assert_eq!(m.as_slice(), b"aazzaaaa");
    }

    #[test]
    fn advise_leaves_mapped_bytes_intact() {
        let dir = crate::tempdir::ScratchDir::new("mmap-advise").unwrap();
        let path = dir.file("a.bin");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(b"advised bytes!").unwrap();
        f.sync_data().unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let m = Mapping::map(&f, 14).unwrap();
        for pattern in [
            AccessPattern::Sequential,
            AccessPattern::Random,
            AccessPattern::Normal,
        ] {
            m.advise(pattern);
            assert_eq!(m.as_slice(), b"advised bytes!", "{}", pattern.name());
        }
    }

    #[test]
    fn empty_mapping_is_rejected() {
        let dir = crate::tempdir::ScratchDir::new("mmap-empty").unwrap();
        let path = dir.file("a.bin");
        std::fs::File::create(&path).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        assert!(Mapping::map(&f, 0).is_err());
    }

    #[test]
    fn backend_parses_and_prints() {
        assert_eq!("pread".parse::<IoBackend>().unwrap(), IoBackend::Pread);
        assert_eq!("MMAP".parse::<IoBackend>().unwrap(), IoBackend::Mmap);
        assert!(" mmap ".parse::<IoBackend>().is_ok());
        assert!("readv".parse::<IoBackend>().is_err());
        assert_eq!(IoBackend::Mmap.to_string(), "mmap");
        assert_eq!(IoBackend::default(), IoBackend::Pread);
    }
}
