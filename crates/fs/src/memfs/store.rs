//! The metadata-store abstraction the journal interposes on.
//!
//! Every metadata helper (inode table, bitmaps, directory blocks) is
//! generic over [`MetaStore`] so the same code runs in two modes:
//! directly against the [`CachedDisk`] (read paths, journaling
//! disabled), or through a [`Tx`] that records each written block into
//! a transaction buffer for the journal to commit atomically.

use crate::error::FsResult;
use bytes::Bytes;
use dc_blockdev::CachedDisk;
use std::cell::RefCell;

/// Block-granular access to file-system metadata.
pub(crate) trait MetaStore {
    /// Reads one block (coherent with any writes buffered in this store).
    fn read_block(&self, block: u64) -> FsResult<Bytes>;
    /// Writes one block.
    fn write_block(&self, block: u64, data: &[u8]) -> FsResult<()>;
}

impl MetaStore for CachedDisk {
    fn read_block(&self, block: u64) -> FsResult<Bytes> {
        Ok(CachedDisk::read_block(self, block)?)
    }

    fn write_block(&self, block: u64, data: &[u8]) -> FsResult<()> {
        Ok(CachedDisk::write_block(self, block, data)?)
    }
}

/// The write set of one metadata transaction: final content per block,
/// in first-touch order (kept deterministic so seeded campaigns lay the
/// journal out identically every run). Each image is one immutable
/// buffer that reads, the journal's log slot and the in-place page all
/// share. A transaction touches a handful of blocks, so a linear scan
/// finds one.
#[derive(Default)]
pub(crate) struct TxnBuf {
    blocks: Vec<(u64, Bytes)>,
}

impl TxnBuf {
    fn record(&mut self, block: u64, data: &[u8]) {
        let image = Bytes::copy_from_slice(data);
        match self.blocks.iter_mut().find(|(b, _)| *b == block) {
            Some((_, old)) => *old = image,
            None => self.blocks.push((block, image)),
        }
    }

    fn get(&self, block: u64) -> Option<&Bytes> {
        self.blocks
            .iter()
            .find(|(b, _)| *b == block)
            .map(|(_, d)| d)
    }

    /// Number of distinct blocks written.
    pub(crate) fn len(&self) -> usize {
        self.blocks.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Blocks in first-touch order with their final content.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Bytes)> {
        self.blocks.iter().map(|(b, d)| (*b, d))
    }
}

/// A per-operation metadata store.
///
/// In *buffered* mode (journaling on) writes accumulate in a [`TxnBuf`]
/// and reads see the buffered content first, so the operation observes
/// its own uncommitted writes; nothing touches the shared page cache
/// until the journal commits the whole set. In *passthrough* mode
/// (journaling off) it is a thin shim over the disk, preserving the
/// original write-back behavior exactly.
pub(crate) struct Tx<'a> {
    disk: &'a CachedDisk,
    buf: Option<RefCell<TxnBuf>>,
}

impl<'a> Tx<'a> {
    pub(crate) fn passthrough(disk: &'a CachedDisk) -> Tx<'a> {
        Tx { disk, buf: None }
    }

    pub(crate) fn buffered(disk: &'a CachedDisk) -> Tx<'a> {
        Tx {
            disk,
            buf: Some(RefCell::new(TxnBuf::default())),
        }
    }

    /// Consumes the transaction, returning its write set (`None` in
    /// passthrough mode).
    pub(crate) fn into_buf(self) -> Option<TxnBuf> {
        self.buf.map(|b| b.into_inner())
    }
}

impl MetaStore for Tx<'_> {
    fn read_block(&self, block: u64) -> FsResult<Bytes> {
        if let Some(buf) = &self.buf {
            if let Some(data) = buf.borrow().get(block) {
                return Ok(data.clone());
            }
        }
        Ok(self.disk.read_block(block)?)
    }

    fn write_block(&self, block: u64, data: &[u8]) -> FsResult<()> {
        match &self.buf {
            Some(buf) => {
                buf.borrow_mut().record(block, data);
                Ok(())
            }
            None => Ok(self.disk.write_block(block, data)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_blockdev::{DiskConfig, LatencyModel};

    fn disk() -> CachedDisk {
        CachedDisk::new(DiskConfig {
            block_size: 512,
            capacity_blocks: 64,
            latency: LatencyModel::free(),
            cache_pages: 16,
        })
    }

    #[test]
    fn buffered_tx_sees_its_own_writes_but_disk_does_not() {
        let d = disk();
        let tx = Tx::buffered(&d);
        tx.write_block(3, &[7u8; 512]).unwrap();
        assert_eq!(MetaStore::read_block(&tx, 3).unwrap()[0], 7);
        // The shared cache is untouched until commit.
        assert_eq!(d.read_block(3).unwrap()[0], 0);
        let buf = tx.into_buf().unwrap();
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn txn_buf_keeps_first_touch_order_and_last_content() {
        let mut buf = TxnBuf::default();
        buf.record(9, &[1]);
        buf.record(4, &[2]);
        buf.record(9, &[3]);
        let got: Vec<(u64, u8)> = buf.iter().map(|(b, d)| (b, d[0])).collect();
        assert_eq!(got, vec![(9, 3), (4, 2)]);
    }

    #[test]
    fn passthrough_tx_writes_through() {
        let d = disk();
        let tx = Tx::passthrough(&d);
        tx.write_block(5, &[9u8; 512]).unwrap();
        assert_eq!(d.read_block(5).unwrap()[0], 9);
        assert!(tx.into_buf().is_none());
    }
}
