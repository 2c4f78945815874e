//! Memory-mapped and shared read-only storage for graph arrays.
//!
//! This module is the **only** place in the crate that owns storage
//! `unsafe`: the raw `mmap`/`munmap` FFI, the lifetime of mapped regions,
//! and the reinterpretation of raw bytes as typed slices. Everything above
//! it ([`crate::csr::CsrGraph`], [`crate::io`]) works with two safe
//! abstractions:
//!
//! * [`Region`] — an immutable byte region backed either by a memory-mapped
//!   file (zero-copy, on 64-bit Unix) or by an 8-byte-aligned heap buffer
//!   (the portable fallback, used on other targets and for whole-file
//!   reads). Mapped regions are unmapped when the last reference drops.
//! * [`MappedSlice<T>`] / [`SharedSlice<T>`] — a typed view into a
//!   [`Region`] (alignment- and bounds-checked at construction) and the
//!   owned-or-mapped storage enum the CSR arrays use, so a graph loaded
//!   with [`crate::io::load_binary_mmap`] is a *view* over the file while a
//!   built graph owns plain `Vec`s — behind one `&[T]` interface.
//!
//! Safety argument for the byte→typed reinterpretation: views are limited
//! to [`Pod`] element types (every bit pattern valid, no padding, no drop),
//! the constructor verifies alignment and bounds, regions are immutable and
//! private (`MAP_PRIVATE`) for their whole lifetime, and each view keeps
//! its region alive through an [`Arc`].

use std::fmt;
use std::fs::File;
use std::io;
use std::marker::PhantomData;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// Marker for element types that any byte pattern validly inhabits.
///
/// Sealed: implemented exactly for the primitive array element types the
/// binary graph format uses.
pub(crate) trait Pod: Copy + Send + Sync + 'static + private::Sealed {}

mod private {
    /// Seals [`super::Pod`].
    pub(crate) trait Sealed {}
}

macro_rules! impl_pod {
    ($($t:ty),*) => {
        $(impl private::Sealed for $t {})*
        $(impl Pod for $t {})*
    };
}
impl_pod!(u8, u32, u64, usize);

#[cfg(all(unix, target_pointer_width = "64"))]
mod ffi {
    //! Minimal `mmap`/`munmap` declarations (the container has no `libc`
    //! crate; these link against the platform libc that `std` already
    //! pulls in).
    use std::os::raw::{c_int, c_void};

    extern "C" {
        pub(crate) fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(crate) fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    pub(crate) const PROT_READ: c_int = 1;
    pub(crate) const MAP_PRIVATE: c_int = 2;

    pub(crate) fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// Backing storage of a [`Region`].
enum RegionStorage {
    /// A read-only file mapping; unmapped on drop.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped { ptr: *const u8, len: usize },
    /// A heap buffer. `u64` elements guarantee 8-byte alignment so every
    /// [`Pod`] view type is alignable; `len` is the real byte length (the
    /// last word may be padding).
    Heap { words: Vec<u64>, len: usize },
}

// SAFETY: the mapped pointer references immutable, private memory for the
// lifetime of the region; the heap variant is an ordinary Vec.
unsafe impl Send for RegionStorage {}
// SAFETY: the region is never mutated after construction.
unsafe impl Sync for RegionStorage {}

/// An immutable byte region: a zero-copy file mapping where supported, or
/// an aligned heap buffer elsewhere.
pub(crate) struct Region {
    storage: RegionStorage,
}

impl Region {
    /// Memory-maps `path` read-only (zero-copy). On targets without the
    /// mapping fast path (non-Unix, or 32-bit, where `u64` offsets cannot
    /// be reinterpreted as `usize`), falls back to [`Region::read`].
    pub(crate) fn map<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            Self::map_unix(path.as_ref())
        }
        #[cfg(not(all(unix, target_pointer_width = "64")))]
        {
            Self::read(path)
        }
    }

    /// Reads `path` entirely into an aligned heap region.
    #[cfg(any(test, not(all(unix, target_pointer_width = "64"))))]
    pub(crate) fn read<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        use std::io::Read;
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: a u64 buffer is validly viewable as initialised bytes of
        // the same allocation; the slice stays within the Vec.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        file.read_exact(bytes)?;
        Ok(Self {
            storage: RegionStorage::Heap { words, len },
        })
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    fn map_unix(path: &Path) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        if len == 0 {
            // mmap rejects zero-length mappings; an empty heap region is
            // equivalent (no bytes to view).
            return Ok(Self {
                storage: RegionStorage::Heap {
                    words: Vec::new(),
                    len: 0,
                },
            });
        }
        // SAFETY: len > 0, the fd is open for reading, and we request a
        // private read-only mapping the kernel fully owns; failure is
        // reported through MAP_FAILED which we turn into an io::Error.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == ffi::map_failed() {
            return Err(io::Error::last_os_error());
        }
        Ok(Self {
            storage: RegionStorage::Mapped {
                ptr: ptr.cast_const().cast(),
                len,
            },
        })
    }

    /// Whether this region is a zero-copy file mapping.
    pub(crate) fn is_mapped(&self) -> bool {
        match &self.storage {
            #[cfg(all(unix, target_pointer_width = "64"))]
            RegionStorage::Mapped { .. } => true,
            RegionStorage::Heap { .. } => false,
        }
    }

    /// The region's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.storage {
            #[cfg(all(unix, target_pointer_width = "64"))]
            RegionStorage::Mapped { ptr, len } => {
                // SAFETY: the mapping is live for &self, readable and never
                // written (PROT_READ + MAP_PRIVATE).
                unsafe { std::slice::from_raw_parts(*ptr, *len) }
            }
            RegionStorage::Heap { words, len } => {
                // SAFETY: in-bounds view of initialised Vec memory.
                unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len) }
            }
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let RegionStorage::Mapped { ptr, len } = &self.storage {
            // SAFETY: the pointer/length pair came from a successful mmap
            // and is unmapped exactly once.
            unsafe {
                ffi::munmap((*ptr).cast_mut().cast(), *len);
            }
        }
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("len", &self.bytes().len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A typed, alignment-checked view into a shared [`Region`].
pub(crate) struct MappedSlice<T: Pod> {
    region: Arc<Region>,
    byte_offset: usize,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: Pod> MappedSlice<T> {
    /// Creates a view of `len` elements of `T` starting `byte_offset` bytes
    /// into `region`. Fails when the range is out of bounds or the start is
    /// not aligned for `T`.
    pub(crate) fn new(region: Arc<Region>, byte_offset: usize, len: usize) -> Result<Self, String> {
        let bytes = region.bytes();
        let elem = std::mem::size_of::<T>();
        let end = len
            .checked_mul(elem)
            .and_then(|b| b.checked_add(byte_offset));
        match end {
            Some(end) if end <= bytes.len() => {}
            _ => {
                return Err(format!(
                    "slice of {len} x {elem}B at offset {byte_offset} exceeds region of {}B",
                    bytes.len()
                ))
            }
        }
        let addr = bytes.as_ptr() as usize + byte_offset;
        if addr % std::mem::align_of::<T>() != 0 {
            return Err(format!(
                "slice at offset {byte_offset} is not {}-byte aligned",
                std::mem::align_of::<T>()
            ));
        }
        Ok(Self {
            region,
            byte_offset,
            len,
            _marker: PhantomData,
        })
    }

    /// The viewed elements.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[T] {
        // SAFETY: bounds and alignment were verified in `new`, the region
        // is immutable and outlives `self` via the Arc, and T is Pod so any
        // byte content is a valid value.
        unsafe {
            std::slice::from_raw_parts(
                self.region.bytes().as_ptr().add(self.byte_offset).cast(),
                self.len,
            )
        }
    }
}

impl<T: Pod> Clone for MappedSlice<T> {
    fn clone(&self) -> Self {
        Self {
            region: Arc::clone(&self.region),
            byte_offset: self.byte_offset,
            len: self.len,
            _marker: PhantomData,
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for MappedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Owned-or-mapped read-only storage: `Vec<T>` for built graphs, a region
/// view for memory-mapped ones, behind one `&[T]` interface.
#[derive(Clone)]
pub(crate) enum SharedSlice<T: Pod> {
    /// Heap-owned storage.
    Owned(Vec<T>),
    /// A view into a shared (usually memory-mapped) region.
    Mapped(MappedSlice<T>),
}

impl<T: Pod> SharedSlice<T> {
    /// Whether the storage is a region view (vs an owned `Vec`).
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, SharedSlice::Mapped(_))
    }
}

impl<T: Pod> Deref for SharedSlice<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            SharedSlice::Owned(v) => v,
            SharedSlice::Mapped(m) => m.as_slice(),
        }
    }
}

impl<T: Pod> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        SharedSlice::Owned(v)
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Lets several threads write **disjoint** index sets of one slice without
/// locking — the primitive behind the parallel CSR builder's scattered
/// neighbor-placement pass (each thread owns a disjoint set of cursor
/// ranges computed by the prefix-sum phase, so no index is ever written
/// twice).
///
/// The unsafety is confined to [`DisjointWriter::write`]; the contiguous
/// passes of the builder use safe `split_at_mut` partitioning instead.
pub(crate) struct DisjointWriter<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the writer only allows writes, callers guarantee index
// disjointness across threads, and T: Send means values may be produced on
// any thread.
unsafe impl<T: Send> Sync for DisjointWriter<'_, T> {}

impl<'a, T> DisjointWriter<'a, T> {
    /// Wraps a slice for disjoint multi-threaded writes; the exclusive
    /// borrow guarantees no concurrent readers exist for the writer's
    /// lifetime.
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Writes `value` at `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds and no other thread may read or write `idx`
    /// during the writer's lifetime.
    #[inline]
    pub(crate) unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        *self.ptr.add(idx) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("graphpi_mmap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn mapped_region_round_trips_bytes() {
        let data: Vec<u8> = (0..=255).collect();
        let path = temp_file("roundtrip.bin", &data);
        let region = Region::map(&path).unwrap();
        assert_eq!(region.bytes(), &data[..]);
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(region.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn heap_region_matches_mapped() {
        let data = b"graphpi heap region test".to_vec();
        let path = temp_file("heap.bin", &data);
        let heap = Region::read(&path).unwrap();
        assert!(!heap.is_mapped());
        assert_eq!(heap.bytes(), Region::map(&path).unwrap().bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_views_check_alignment_and_bounds() {
        let words: Vec<u64> = vec![0x0101010101010101, 0x0202020202020202];
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let path = temp_file("typed.bin", &bytes);
        let region = Arc::new(Region::map(&path).unwrap());

        let v64 = MappedSlice::<u64>::new(Arc::clone(&region), 0, 2).unwrap();
        assert_eq!(v64.as_slice(), &words[..]);
        let v32 = MappedSlice::<u32>::new(Arc::clone(&region), 8, 2).unwrap();
        assert_eq!(v32.as_slice(), &[0x02020202, 0x02020202]);

        // Out of bounds and misaligned views are rejected.
        assert!(MappedSlice::<u64>::new(Arc::clone(&region), 0, 3).is_err());
        assert!(MappedSlice::<u64>::new(Arc::clone(&region), 12, 1).is_err());
        assert!(MappedSlice::<u32>::new(Arc::clone(&region), 2, 1).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_slice_owned_and_mapped_agree() {
        let values: Vec<u32> = (0..64).collect();
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let path = temp_file("shared.bin", &bytes);
        let region = Arc::new(Region::map(&path).unwrap());
        let mapped = SharedSlice::Mapped(MappedSlice::<u32>::new(region, 0, 64).unwrap());
        let owned: SharedSlice<u32> = values.clone().into();
        assert_eq!(&*mapped, &*owned);
        assert!(mapped.is_mapped());
        assert!(!owned.is_mapped());
        // Clones share the region and stay valid after the original drops.
        let clone = mapped.clone();
        drop(mapped);
        assert_eq!(&*clone, &values[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_to_empty_region() {
        let path = temp_file("empty.bin", &[]);
        let region = Region::map(&path).unwrap();
        assert!(region.bytes().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
