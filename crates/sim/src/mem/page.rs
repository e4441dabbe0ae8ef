//! A physical page frame with real contents and tracking bits.

use crate::PAGE_SIZE;
use std::rc::Rc;

/// A refcounted, copy-on-write 4 KiB page buffer — the only page
/// representation in the simulation.
///
/// Every layer that holds a page holds the same allocation: the guest frame,
/// the checkpoint image, the delta shadow, the placement stripes, the backup
/// page store, the page cache, the block device and its write log. Handing a
/// page from one layer to the next is an `Rc` clone. A buffer that more than
/// one holder sees is immutable: a writer goes through [`Rc::make_mut`], which
/// copies the 4 KiB only when another holder still shares it, so a later
/// write never changes what an earlier holder captured. The simulation is
/// single-threaded, so `Rc` suffices.
pub type PageBuf = Rc<[u8; PAGE_SIZE]>;

thread_local! {
    static ZERO_PAGE: PageBuf = Rc::new([0u8; PAGE_SIZE]);
}

/// The shared all-zeros page. Untouched anonymous pages and zero-encoded
/// deltas resolve to this single allocation instead of a fresh 4 KiB each.
pub fn zero_page() -> PageBuf {
    ZERO_PAGE.with(Rc::clone)
}

/// One 4 KiB page frame.
///
/// Frames materialize lazily on first write; a virtual page with no frame
/// reads as zeros, exactly like an untouched anonymous mapping.
#[derive(Clone)]
pub struct PageFrame {
    data: PageBuf,
    /// Soft-dirty bit: set on write, cleared by `clear_refs`.
    pub soft_dirty: bool,
    /// Tracking armed: the *next* write to this frame takes a tracking fault.
    pub tracked_clean: bool,
}

impl std::fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageFrame")
            .field("soft_dirty", &self.soft_dirty)
            .field("tracked_clean", &self.tracked_clean)
            .field("first_bytes", &&self.data[..8])
            .finish()
    }
}

impl Default for PageFrame {
    fn default() -> Self {
        Self::from_buf(zero_page())
    }
}

impl PageFrame {
    /// A zeroed frame (shares the zero page until its first write).
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// A frame backed by `data`, shared with its other holders until the
    /// frame's first write.
    pub fn from_buf(data: PageBuf) -> Self {
        PageFrame {
            data,
            soft_dirty: false,
            tracked_clean: false,
        }
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the page contents, copying the buffer first if
    /// another holder shares it. Callers are responsible for dirty
    /// accounting — use [`crate::mem::AddressSpace`] APIs in normal paths.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        Rc::make_mut(&mut self.data)
    }

    /// Capture the page contents as a shared buffer. No bytes are copied:
    /// the frame's next write copies instead (see [`Self::bytes_mut`]).
    pub fn snapshot(&self) -> PageBuf {
        Rc::clone(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_zeros_and_shares_the_zero_page() {
        let z = PageFrame::zeroed();
        assert!(z.bytes().iter().all(|&b| b == 0));
        assert!(Rc::ptr_eq(&z.snapshot(), &zero_page()));
        assert!(!z.soft_dirty);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut f = PageFrame::zeroed();
        f.bytes_mut()[..5].copy_from_slice(b"hello");
        let snap = f.snapshot();
        f.bytes_mut()[0] = b'X';
        assert_eq!(&snap[..5], b"hello");
        assert_eq!(f.bytes()[0], b'X');
    }
}
