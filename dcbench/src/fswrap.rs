//! A pass-through [`FileSystem`] that counts and times every call.
//!
//! The traced run mounts this over memfs. `as_any` and `stats` answer
//! for the inner file system, so the kernel's downcasts to `MemFs`
//! (`drop_caches`, journal and disk statistics) and its `FsStats`
//! reporting behave as on bare memfs.

use crate::trace::{self, Name};
use bytes::Bytes;
use dc_fs::{DirEntry, FileSystem, FsResult, FsStats, InodeAttr, SetAttr, StatFs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type Ino = u64;

/// Calls that reached the file system, in `FsStats`' four classes.
#[derive(Debug, Default)]
pub struct FsCalls {
    pub lookups: AtomicU64,
    pub getattrs: AtomicU64,
    pub readdirs: AtomicU64,
    pub mutations: AtomicU64,
}

impl FsCalls {
    /// `(lookups, readdirs, getattrs, mutations)`, the order of
    /// [`FsStats::snapshot`].
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.lookups.load(Ordering::Relaxed),
            self.readdirs.load(Ordering::Relaxed),
            self.getattrs.load(Ordering::Relaxed),
            self.mutations.load(Ordering::Relaxed),
        )
    }
}

/// The wrapper.
pub struct TracedFs {
    inner: Arc<dyn FileSystem>,
    /// Calls seen so far.
    pub calls: FsCalls,
}

impl TracedFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn FileSystem>) -> TracedFs {
        TracedFs {
            inner,
            calls: FsCalls::default(),
        }
    }

    fn mutation<R>(&self, f: impl FnOnce() -> R) -> R {
        self.calls.mutations.fetch_add(1, Ordering::Relaxed);
        trace::span(Name::FsMutation, f)
    }
}

impl FileSystem for TracedFs {
    fn fs_type(&self) -> &'static str {
        self.inner.fs_type()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn root_ino(&self) -> Ino {
        self.inner.root_ino()
    }

    fn getattr(&self, ino: Ino) -> FsResult<InodeAttr> {
        self.calls.getattrs.fetch_add(1, Ordering::Relaxed);
        trace::span(Name::FsGetattr, || self.inner.getattr(ino))
    }

    fn lookup(&self, dir: Ino, name: &str) -> FsResult<InodeAttr> {
        self.calls.lookups.fetch_add(1, Ordering::Relaxed);
        trace::span(Name::FsLookup, || self.inner.lookup(dir, name))
    }

    fn readdir(
        &self,
        dir: Ino,
        offset: u64,
        max: usize,
        out: &mut Vec<DirEntry>,
    ) -> FsResult<Option<u64>> {
        self.calls.readdirs.fetch_add(1, Ordering::Relaxed);
        trace::span(Name::FsReaddir, || {
            self.inner.readdir(dir, offset, max, out)
        })
    }

    fn create(&self, dir: Ino, name: &str, mode: u16, uid: u32, gid: u32) -> FsResult<InodeAttr> {
        self.mutation(|| self.inner.create(dir, name, mode, uid, gid))
    }

    fn mkdir(&self, dir: Ino, name: &str, mode: u16, uid: u32, gid: u32) -> FsResult<InodeAttr> {
        self.mutation(|| self.inner.mkdir(dir, name, mode, uid, gid))
    }

    fn symlink(
        &self,
        dir: Ino,
        name: &str,
        target: &str,
        uid: u32,
        gid: u32,
    ) -> FsResult<InodeAttr> {
        self.mutation(|| self.inner.symlink(dir, name, target, uid, gid))
    }

    fn readlink(&self, ino: Ino) -> FsResult<String> {
        trace::span(Name::FsOther, || self.inner.readlink(ino))
    }

    fn link(&self, dir: Ino, name: &str, ino: Ino) -> FsResult<InodeAttr> {
        self.mutation(|| self.inner.link(dir, name, ino))
    }

    fn unlink(&self, dir: Ino, name: &str) -> FsResult<()> {
        self.mutation(|| self.inner.unlink(dir, name))
    }

    fn rmdir(&self, dir: Ino, name: &str) -> FsResult<()> {
        self.mutation(|| self.inner.rmdir(dir, name))
    }

    fn rename(&self, old_dir: Ino, old_name: &str, new_dir: Ino, new_name: &str) -> FsResult<()> {
        self.mutation(|| self.inner.rename(old_dir, old_name, new_dir, new_name))
    }

    fn setattr(&self, ino: Ino, changes: SetAttr) -> FsResult<InodeAttr> {
        self.mutation(|| self.inner.setattr(ino, changes))
    }

    fn read(&self, ino: Ino, offset: u64, len: usize) -> FsResult<Bytes> {
        trace::span(Name::FsOther, || self.inner.read(ino, offset, len))
    }

    fn write(&self, ino: Ino, offset: u64, data: &[u8]) -> FsResult<usize> {
        self.mutation(|| self.inner.write(ino, offset, data))
    }

    fn statfs(&self) -> FsResult<StatFs> {
        trace::span(Name::FsOther, || self.inner.statfs())
    }

    fn sync(&self) -> FsResult<()> {
        trace::span(Name::FsOther, || self.inner.sync())
    }

    fn stats(&self) -> &FsStats {
        self.inner.stats()
    }

    fn is_pseudo(&self) -> bool {
        self.inner.is_pseudo()
    }

    fn supports_fastpath(&self) -> bool {
        self.inner.supports_fastpath()
    }
}
