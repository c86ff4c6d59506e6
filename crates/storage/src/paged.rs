//! A block-aligned paged file: the on-disk substrate a production
//! deployment of the trees would sit on.
//!
//! Layout: page 0 is the header (magic, block size, page count, free-list
//! head); every other page is either live data or a free-list link. Freed
//! pages form an intrusive singly-linked list threaded through their first
//! eight bytes, so allocation is O(1) and the file is reused instead of
//! growing monotonically.
//!
//! The paged file itself is deliberately dumb — fixed-size page reads and
//! writes plus allocation. Each page access is one positioned read or
//! write (`pread`/`pwrite` on Unix, a seek and a read or write elsewhere)
//! into the caller's buffer. The store above it (`dc_oocore::OocStore`)
//! caches decoded nodes, not pages: decoding is what a node access costs,
//! and the OS page cache already holds recently read pages.

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::Path;

use dc_common::{DcError, DcResult};

use crate::block::BlockConfig;

const MAGIC: u64 = 0x4443_5041_4745_4431; // "DCPAGED1"
const NO_PAGE: u64 = u64::MAX;

/// Identifier of a page within a [`PagedFile`] (page 0 is the header and
/// never handed out).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u64);

/// A block-aligned file of fixed-size pages with a free list.
#[derive(Debug)]
pub struct PagedFile {
    file: File,
    block: BlockConfig,
    num_pages: u64,
    free_head: u64,
}

impl PagedFile {
    /// Creates a new paged file (truncating any existing one).
    pub fn create(path: impl AsRef<Path>, block: BlockConfig) -> DcResult<Self> {
        assert!(
            block.block_size >= 32,
            "pages must hold at least the header"
        );
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut pf = PagedFile {
            file,
            block,
            num_pages: 1,
            free_head: NO_PAGE,
        };
        pf.write_header()?;
        Ok(pf)
    }

    /// The block size the file at `path` was created with, read from its
    /// header: the one [`open`](Self::open) accepts.
    pub fn block_of(path: impl AsRef<Path>) -> DcResult<BlockConfig> {
        let mut header = [0u8; 16];
        File::open(path)?.read_exact(&mut header)?;
        if u64::from_le_bytes(header[0..8].try_into().expect("8 bytes")) != MAGIC {
            return Err(DcError::Corrupt("not a DC paged file".into()));
        }
        match u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")) {
            size @ 32..=0x100_0000 => Ok(BlockConfig::new(size as usize)),
            size => Err(DcError::Corrupt(format!("header claims {size}-byte pages"))),
        }
    }

    /// Opens an existing paged file, validating its header.
    pub fn open(path: impl AsRef<Path>, block: BlockConfig) -> DcResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut pf = PagedFile {
            file,
            block,
            num_pages: 0,
            free_head: NO_PAGE,
        };
        let header = pf.read_page_raw(0)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("8 bytes"));
        if magic != MAGIC {
            return Err(DcError::Corrupt("not a DC paged file".into()));
        }
        let stored_block = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes")) as usize;
        if stored_block != block.block_size {
            return Err(DcError::Corrupt(format!(
                "file uses {stored_block}-byte pages, opened with {}",
                block.block_size
            )));
        }
        pf.num_pages = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        pf.free_head = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        if pf.num_pages == 0 {
            return Err(DcError::Corrupt(
                "paged file header claims zero pages".into(),
            ));
        }
        pf.check_free_link(pf.free_head)?;
        Ok(pf)
    }

    /// Validates a free-list link read from disk: either the end-of-list
    /// sentinel or a data-page id. Following a corrupt link would silently
    /// hand out the header page or read past the file.
    fn check_free_link(&self, link: u64) -> DcResult<()> {
        if link != NO_PAGE && (link == 0 || link >= self.num_pages) {
            return Err(DcError::Corrupt(format!(
                "free-list link {link} out of bounds ({} pages)",
                self.num_pages
            )));
        }
        Ok(())
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.block.block_size
    }

    /// Total pages in the file, header included.
    pub fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn write_header(&mut self) -> DcResult<()> {
        let mut page = vec![0u8; self.block.block_size];
        page[0..8].copy_from_slice(&MAGIC.to_le_bytes());
        page[8..16].copy_from_slice(&(self.block.block_size as u64).to_le_bytes());
        page[16..24].copy_from_slice(&self.num_pages.to_le_bytes());
        page[24..32].copy_from_slice(&self.free_head.to_le_bytes());
        self.write_page_raw(0, &page)
    }

    fn read_page_raw(&mut self, page: u64) -> DcResult<Vec<u8>> {
        let mut buf = vec![0u8; self.block.block_size];
        self.read_page_into(page, &mut buf)?;
        Ok(buf)
    }

    fn read_page_into(&mut self, page: u64, buf: &mut [u8]) -> DcResult<()> {
        debug_assert_eq!(buf.len(), self.block.block_size);
        page_io::read_at(&mut self.file, buf, page * self.block.block_size as u64)?;
        Ok(())
    }

    fn write_page_raw(&mut self, page: u64, data: &[u8]) -> DcResult<()> {
        debug_assert_eq!(data.len(), self.block.block_size);
        page_io::write_at(&mut self.file, data, page * self.block.block_size as u64)?;
        Ok(())
    }

    /// Allocates a page: reuses the free list if possible, otherwise grows
    /// the file.
    pub fn alloc(&mut self) -> DcResult<PageId> {
        let id = if self.free_head != NO_PAGE {
            let head = self.free_head;
            let page = self.read_page_raw(head)?;
            let next = u64::from_le_bytes(page[0..8].try_into().expect("8 bytes"));
            self.check_free_link(next)?;
            self.free_head = next;
            // Zero the recycled page so stale free-list links (or old
            // content) never leak to the new owner.
            self.write_page_raw(head, &vec![0u8; self.block.block_size])?;
            head
        } else {
            let id = self.num_pages;
            self.num_pages += 1;
            // Materialize the page so reads within the file length succeed.
            self.write_page_raw(id, &vec![0u8; self.block.block_size])?;
            id
        };
        self.write_header()?;
        Ok(PageId(id))
    }

    /// Returns a page to the free list.
    ///
    /// # Panics
    /// Panics on an attempt to free the header page.
    pub fn free(&mut self, id: PageId) -> DcResult<()> {
        assert_ne!(id.0, 0, "cannot free the header page");
        if id.0 >= self.num_pages {
            return Err(DcError::Corrupt(format!(
                "freeing page {} beyond the file ({} pages)",
                id.0, self.num_pages
            )));
        }
        let mut page = vec![0u8; self.block.block_size];
        page[0..8].copy_from_slice(&self.free_head.to_le_bytes());
        self.write_page_raw(id.0, &page)?;
        self.free_head = id.0;
        self.write_header()
    }

    /// Reads a full page into `buf`, which must be exactly `page_size`
    /// bytes: a chain walk reuses one buffer for all of its pages.
    pub fn read_into(&mut self, id: PageId, buf: &mut [u8]) -> DcResult<()> {
        if id.0 == 0 || id.0 >= self.num_pages {
            return Err(DcError::Corrupt(format!("page {} out of bounds", id.0)));
        }
        if buf.len() != self.block.block_size {
            return Err(DcError::Corrupt(format!(
                "page read into {} bytes from {}-byte pages",
                buf.len(),
                self.block.block_size
            )));
        }
        self.read_page_into(id.0, buf)
    }

    /// Writes a full page (must be exactly `page_size` bytes).
    pub fn write(&mut self, id: PageId, data: &[u8]) -> DcResult<()> {
        if id.0 == 0 || id.0 >= self.num_pages {
            return Err(DcError::Corrupt(format!("page {} out of bounds", id.0)));
        }
        if data.len() != self.block.block_size {
            return Err(DcError::Corrupt(format!(
                "page write of {} bytes into {}-byte pages",
                data.len(),
                self.block.block_size
            )));
        }
        self.write_page_raw(id.0, data)
    }

    /// Flushes OS buffers to durable storage.
    pub fn sync(&mut self) -> DcResult<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

/// One positioned read or write per page access.
#[cfg(unix)]
mod page_io {
    use std::fs::File;
    use std::io;
    use std::os::unix::fs::FileExt;

    pub(super) fn read_at(file: &mut File, buf: &mut [u8], offset: u64) -> io::Result<()> {
        file.read_exact_at(buf, offset)
    }

    pub(super) fn write_at(file: &mut File, data: &[u8], offset: u64) -> io::Result<()> {
        file.write_all_at(data, offset)
    }
}

/// One seek plus one read or write per page access, where no positioned
/// call is available.
#[cfg(not(unix))]
mod page_io {
    use std::fs::File;
    use std::io::{self, Read, Seek, SeekFrom, Write};

    pub(super) fn read_at(file: &mut File, buf: &mut [u8], offset: u64) -> io::Result<()> {
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(buf)
    }

    pub(super) fn write_at(file: &mut File, data: &[u8], offset: u64) -> io::Result<()> {
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_common::TempDir;

    impl PagedFile {
        fn read(&mut self, id: PageId) -> DcResult<Vec<u8>> {
            let mut buf = vec![0u8; self.page_size()];
            self.read_into(id, &mut buf)?;
            Ok(buf)
        }
    }

    #[test]
    fn create_alloc_write_read_roundtrip() {
        let dir = TempDir::new("paged");
        let path = dir.join("roundtrip");
        let mut f = PagedFile::create(&path, BlockConfig::new(256)).unwrap();
        let a = f.alloc().unwrap();
        let b = f.alloc().unwrap();
        assert_ne!(a, b);
        let data_a = vec![0xAB; 256];
        let data_b = vec![0xCD; 256];
        f.write(a, &data_a).unwrap();
        f.write(b, &data_b).unwrap();
        assert_eq!(f.read(a).unwrap(), data_a);
        assert_eq!(f.read(b).unwrap(), data_b);
    }

    #[test]
    fn reopen_preserves_contents_and_freelist() {
        let dir = TempDir::new("paged");
        let path = dir.join("reopen");
        let (a, b);
        {
            let mut f = PagedFile::create(&path, BlockConfig::new(128)).unwrap();
            a = f.alloc().unwrap();
            b = f.alloc().unwrap();
            f.write(a, &[7u8; 128]).unwrap();
            f.free(b).unwrap();
            f.sync().unwrap();
        }
        let mut f = PagedFile::open(&path, BlockConfig::new(128)).unwrap();
        assert_eq!(f.read(a).unwrap(), vec![7u8; 128]);
        // The freed page is recycled before the file grows.
        let c = f.alloc().unwrap();
        assert_eq!(c, b);
        let d = f.alloc().unwrap();
        assert!(d.0 > c.0);
    }

    #[test]
    fn wrong_block_size_rejected_on_open() {
        let dir = TempDir::new("paged");
        let path = dir.join("blocksize");
        PagedFile::create(&path, BlockConfig::new(128)).unwrap();
        // Larger pages may fail with an I/O error (file shorter than one
        // page) or Corrupt (header mismatch) — either way it must not open.
        assert!(PagedFile::open(&path, BlockConfig::new(256)).is_err());
        assert!(matches!(
            PagedFile::open(&path, BlockConfig::new(64)),
            Err(DcError::Corrupt(_))
        ));
        assert_eq!(PagedFile::block_of(&path).unwrap().block_size, 128);
    }

    #[test]
    fn out_of_bounds_and_bad_sizes_are_errors() {
        let dir = TempDir::new("paged");
        let path = dir.join("bounds");
        let mut f = PagedFile::create(&path, BlockConfig::new(128)).unwrap();
        let a = f.alloc().unwrap();
        assert!(f.read(PageId(0)).is_err(), "header is not readable as data");
        assert!(f.read(PageId(99)).is_err());
        assert!(f.write(a, &[0u8; 64]).is_err(), "short writes rejected");
        assert!(
            f.read_into(a, &mut [0u8; 64]).is_err(),
            "short reads rejected"
        );
    }

    #[test]
    fn free_list_is_lifo_and_reusable() {
        let dir = TempDir::new("paged");
        let path = dir.join("freelist");
        let mut f = PagedFile::create(&path, BlockConfig::new(128)).unwrap();
        let pages: Vec<PageId> = (0..5).map(|_| f.alloc().unwrap()).collect();
        for &p in &pages {
            f.free(p).unwrap();
        }
        // LIFO reuse.
        for &p in pages.iter().rev() {
            assert_eq!(f.alloc().unwrap(), p);
        }
        assert_eq!(f.num_pages(), 6); // header + 5, never grew past that
    }

    /// Regression test for free-list handling across reopen: a page freed
    /// before close must be the first one handed out after reopen, instead
    /// of the file growing a new page.
    #[test]
    fn alloc_free_reopen_alloc_reuses_freed_page() {
        let dir = TempDir::new("paged");
        let path = dir.join("freelist-reopen");
        let freed;
        let pages_before;
        {
            let mut f = PagedFile::create(&path, BlockConfig::new(128)).unwrap();
            let _keep = f.alloc().unwrap();
            freed = f.alloc().unwrap();
            f.free(freed).unwrap();
            pages_before = f.num_pages();
            f.sync().unwrap();
        }
        let mut f = PagedFile::open(&path, BlockConfig::new(128)).unwrap();
        let reused = f.alloc().unwrap();
        assert_eq!(reused, freed, "freed page is reused after reopen");
        assert_eq!(
            f.num_pages(),
            pages_before,
            "the file must not grow while the free list is non-empty"
        );
        // The recycled page comes back zeroed, not carrying its old link.
        assert_eq!(f.read(reused).unwrap(), vec![0u8; 128]);
    }

    #[test]
    fn corrupt_free_list_links_are_checked_errors() {
        let dir = TempDir::new("paged");
        let path = dir.join("freelist-corrupt");
        {
            let mut f = PagedFile::create(&path, BlockConfig::new(128)).unwrap();
            let a = f.alloc().unwrap();
            f.free(a).unwrap();
            f.sync().unwrap();
        }
        // Smash the header's free_head to point past the file.
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut raw = OpenOptions::new().write(true).open(&path).unwrap();
            raw.seek(SeekFrom::Start(24)).unwrap();
            raw.write_all(&999u64.to_le_bytes()).unwrap();
        }
        assert!(matches!(
            PagedFile::open(&path, BlockConfig::new(128)),
            Err(DcError::Corrupt(_))
        ));
        // Out-of-bounds frees are rejected too.
        let path2 = dir.join("freelist-badfree");
        let mut f = PagedFile::create(&path2, BlockConfig::new(128)).unwrap();
        assert!(matches!(f.free(PageId(42)), Err(DcError::Corrupt(_))));
    }

    #[test]
    fn garbage_file_rejected() {
        let dir = TempDir::new("paged");
        let path = dir.join("garbage");
        std::fs::write(&path, vec![0u8; 512]).unwrap();
        assert!(PagedFile::open(&path, BlockConfig::new(128)).is_err());
    }
}
