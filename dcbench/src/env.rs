//! Kernel assembly, per-process credentials and the file-system oracle.

use crate::fswrap::TracedFs;
use dc_blockdev::{CachedDisk, DiskConfig, LatencyModel};
use dc_fs::{FileSystem, FileType, FsResult, InodeAttr, MemFs, MemFsConfig};
use dc_vfs::{Kernel, KernelBuilder, Process};
use dcache_core::DcacheConfig;
use std::sync::Arc;

/// `access(2)` mask asking for read permission.
pub const MAY_READ: u32 = 0x4;

/// The simulated device under memfs.
#[derive(Debug, Clone, Copy)]
pub struct DiskSpec {
    /// Device capacity, 4 KiB blocks. memfs sizes its journal from it
    /// (a 64th of the device, at least 16 blocks, plus two headers).
    pub blocks: u64,
    /// Inodes memfs formats.
    pub inodes: u64,
    /// Device write cost, ns, spun for so wall time pays it.
    pub write_ns: u64,
    /// Page-cache capacity, 4 KiB pages.
    pub cache_pages: usize,
}

impl DiskSpec {
    /// A free device with room for the read workloads' trees and a page
    /// cache that holds all of their metadata.
    pub const FREE: DiskSpec = DiskSpec {
        blocks: 1 << 16,
        inodes: 1 << 13,
        write_ns: 0,
        cache_pages: 4096,
    };
}

/// One assembled kernel.
pub struct Env {
    pub kernel: Arc<Kernel>,
    /// The init process (root credentials).
    pub root: Arc<Process>,
    /// The root file system itself, for oracle reads and its statistics.
    pub memfs: Arc<MemFs>,
    /// The pass-through wrapper, when the kernel was built traced.
    pub wrapper: Option<Arc<TracedFs>>,
}

impl Env {
    /// Builds a kernel with the shipped optimized dcache configuration,
    /// its signature key seeded with `key_seed`, over memfs on `disk`.
    /// `capacity` bounds the dcache; `traced` mounts memfs through
    /// [`TracedFs`].
    pub fn new(key_seed: u64, capacity: Option<usize>, disk: DiskSpec, traced: bool) -> Env {
        let mut config = DcacheConfig::optimized().with_seed(key_seed);
        if let Some(c) = capacity {
            config = config.with_capacity(c);
        }
        let blockdev = Arc::new(CachedDisk::new(DiskConfig {
            capacity_blocks: disk.blocks,
            latency: LatencyModel::new(0, disk.write_ns, disk.write_ns > 0),
            cache_pages: disk.cache_pages,
            ..Default::default()
        }));
        let memfs = MemFs::mkfs(
            blockdev,
            MemFsConfig {
                max_inodes: disk.inodes,
                ..Default::default()
            },
        )
        .expect("mkfs on a fresh device");
        let wrapper = traced.then(|| Arc::new(TracedFs::new(memfs.clone())));
        let root_fs: Arc<dyn FileSystem> = match &wrapper {
            Some(w) => w.clone(),
            None => memfs.clone(),
        };
        let kernel = KernelBuilder::new(config)
            .root_fs(root_fs)
            .build()
            .expect("kernel assembly");
        let root = kernel.init_process();
        Env {
            kernel,
            root,
            memfs,
            wrapper,
        }
    }

    /// `n` processes, each with its own uid and gid (1000, 1001, …).
    pub fn users(&self, n: usize) -> Vec<Arc<Process>> {
        (0..n)
            .map(|i| {
                let p = self.kernel.spawn(&self.root);
                self.kernel.setuid(&p, 1000 + i as u32, 1000 + i as u32);
                p
            })
            .collect()
    }

    /// What memfs itself says `path` is, walked with `FileSystem::lookup`
    /// from the root, bypassing the dcache. Symlinks are not followed.
    pub fn oracle(&self, path: &str) -> FsResult<InodeAttr> {
        let fs: &dyn FileSystem = self.memfs.as_ref();
        let mut attr = fs.getattr(fs.root_ino())?;
        for c in path.split('/').filter(|c| !c.is_empty()) {
            attr = fs.lookup(attr.ino, c)?;
        }
        Ok(attr)
    }

    /// A directory's entries as memfs lists them, sorted by name.
    pub fn oracle_listing(&self, dir: &str) -> FsResult<Listing> {
        let fs: &dyn FileSystem = self.memfs.as_ref();
        let ino = self.oracle(dir)?.ino;
        let mut out = Vec::new();
        let mut cursor = Some(0);
        while let Some(off) = cursor {
            cursor = fs.readdir(ino, off, 1024, &mut out)?;
        }
        Ok(sorted_listing(
            out.into_iter().map(|e| (e.name, e.ino, e.ftype)),
        ))
    }
}

/// A directory listing as `(name, ino, type)`, sorted by name.
pub type Listing = Vec<(String, u64, FileType)>;

/// Sorts listing records by name.
pub fn sorted_listing(entries: impl IntoIterator<Item = (String, u64, FileType)>) -> Listing {
    let mut v: Listing = entries.into_iter().collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

/// `path`'s components, with `name/..` pairs cancelled: the components
/// the fastpath hashes for a path without symlinks.
pub fn reduced_components(path: &str) -> Vec<&str> {
    let mut out: Vec<&str> = Vec::new();
    for c in path.split('/').filter(|c| !c.is_empty() && *c != ".") {
        if c == ".." {
            out.pop();
        } else {
            out.push(c);
        }
    }
    out
}
