//! `warm_lookup`: a warm read mix over a ~500-file source-like tree,
//! from four processes with distinct uids taking turns on one thread.
//! Mostly `stat`, with `open`+`close`, `access`, a few repeated absent
//! names (some under a missing directory: deep negatives) and a few
//! spellings through a symlinked directory and through `..`. The tree's
//! dcache state (~600 dentries) stays in the L2 cache, so this measures
//! the paper's fastpath (sighash, DLHT, PCC, the syscall envelope) and
//! not the host's memory; memfs and the block device stay idle.

use super::Workload;
use crate::env::{DiskSpec, Env, Listing, MAY_READ};
use crate::phase::{self, Class, Rec};
use crate::probe;
use crate::rng::{derive, Rng};
use crate::trace::Name;
use dc_fs::{FileType, FsError};
use dc_vfs::{OpenFlags, Process};
use dc_workloads::tree::{build_tree, TreeSpec};
use std::sync::Arc;

/// Files asked of `TreeSpec::source_like` (it rounds up to whole leaf
/// directories: 528 files in 44 leaves under 11 top directories).
pub const FILES: usize = 500;
/// Processes, each with its own uid.
pub const USERS: usize = 4;
/// Symlinked-directory and dot-dot spellings of tree files, each.
const VARIANTS: usize = 32;
/// Distinct absent names: half in existing leaf directories, half
/// below a missing directory.
const ABSENT: usize = 16;
/// Ops per window: about 10 ms on the reference host.
const WINDOW: u64 = 16_384;

/// Salts deriving sub-seeds from the workload seed.
pub const SALT_KEY: u64 = 1;
const SALT_TREE: u64 = 2;
const SALT_SPELLINGS: u64 = 3;
const SALT_STREAM: u64 = 4;

/// Sizes of the path groups, which are laid out in this order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub files: usize,
    pub sym: usize,
    pub dotdot: usize,
    pub absent: usize,
}

/// The built tree and every path the workloads use, with the answer
/// memfs gives for each.
pub struct Tree {
    pub env: Env,
    pub users: Vec<Arc<Process>>,
    /// Tree files, then symlink spellings, dot-dot spellings and absent
    /// names.
    pub paths: Vec<String>,
    /// `(ino, type)` for each path, `None` where the answer is `ENOENT`.
    pub expect: Vec<Option<(u64, FileType)>>,
    pub counts: Counts,
    /// Directories that hold files, with their listings.
    pub leaf_dirs: Vec<(String, Listing)>,
}

/// Builds the tree on a fresh kernel (through the file-system wrapper
/// when `traced`) and asks memfs, below the dcache, for every answer.
pub fn build(seed: u64, traced: bool) -> Tree {
    let env = Env::new(derive(seed, SALT_KEY), None, DiskSpec::FREE, traced);
    let (k, root) = (&env.kernel, &env.root);
    let spec = TreeSpec {
        seed: derive(seed, SALT_TREE),
        ..TreeSpec::source_like(FILES)
    };
    let m = build_tree(k, root, "/src", &spec).expect("build the source tree");
    let top = m.dirs[1].clone();
    k.symlink(root, &top, "/src/lnk")
        .expect("symlink a top directory");

    let mut rng = Rng::new(derive(seed, SALT_SPELLINGS));
    let mut paths = m.files.clone();
    let mut canonical: Vec<String> = m.files.clone();
    let under: Vec<&String> = m
        .files
        .iter()
        .filter(|f| {
            f.strip_prefix(top.as_str())
                .is_some_and(|r| r.starts_with('/'))
        })
        .collect();
    for _ in 0..VARIANTS {
        let f = under[rng.below(under.len())];
        paths.push(format!("/src/lnk{}", &f[top.len()..]));
        canonical.push(f.clone());
    }
    for _ in 0..VARIANTS {
        let f = &m.files[rng.below(m.files.len())];
        let comps: Vec<&str> = f.split('/').filter(|c| !c.is_empty()).collect();
        let at = 1 + rng.below(comps.len() - 2);
        paths.push(format!(
            "/{}/../{}",
            comps[..=at].join("/"),
            comps[at..].join("/")
        ));
        canonical.push(f.clone());
    }
    let mut leaves: Vec<String> = m
        .files
        .iter()
        .map(|f| f[..f.rfind('/').expect("absolute path")].to_string())
        .collect();
    leaves.dedup();
    for i in 0..ABSENT {
        let dir = &leaves[rng.below(leaves.len())];
        let name = if i % 2 == 0 {
            format!("{dir}/missing{i}.o")
        } else {
            format!("{dir}/gone{i}/obj/missing.o")
        };
        paths.push(name.clone());
        canonical.push(name);
    }
    let expect = canonical
        .iter()
        .map(|c| match env.oracle(c) {
            Ok(a) => Some((a.ino, a.ftype)),
            Err(FsError::NoEnt) => None,
            Err(e) => panic!("oracle lookup of {c}: {e:?}"),
        })
        .collect();
    let leaf_dirs = leaves
        .into_iter()
        .map(|d| {
            let l = env.oracle_listing(&d).expect("oracle listing");
            (d, l)
        })
        .collect();
    let users = env.users(USERS);
    Tree {
        env,
        users,
        paths,
        expect,
        counts: Counts {
            files: m.files.len(),
            sym: VARIANTS,
            dotdot: VARIANTS,
            absent: ABSENT,
        },
        leaf_dirs,
    }
}

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `stat`; `ENOENT` is the right answer for an absent name.
    Stat,
    /// `open` read-only, then `close`.
    Open,
    /// `access(R_OK)`.
    Access,
}

/// One generated op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub user: u8,
    pub kind: Kind,
    /// Index into [`Tree::paths`].
    pub path: u32,
}

/// The op stream, drawn from the seed alone: 70% `stat`, 12%
/// `open`+`close` and 8% `access` of a uniformly drawn tree file, and
/// `stat`s of a symlink spelling (4%), a dot-dot spelling (3%) and an
/// absent name (3%). The user of each op is drawn uniformly.
pub struct Stream {
    rng: Rng,
    c: Counts,
}

impl Stream {
    /// The stream for `seed` over path groups of sizes `c`.
    pub fn new(seed: u64, c: Counts) -> Stream {
        Stream {
            rng: Rng::new(derive(seed, SALT_STREAM)),
            c,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let (c, rng) = (self.c, &mut self.rng);
        let user = rng.below(USERS) as u8;
        let (kind, path) = match rng.below(100) {
            0..=69 => (Kind::Stat, rng.below(c.files)),
            70..=81 => (Kind::Open, rng.below(c.files)),
            82..=89 => (Kind::Access, rng.below(c.files)),
            90..=93 => (Kind::Stat, c.files + rng.below(c.sym)),
            94..=96 => (Kind::Stat, c.files + c.sym + rng.below(c.dotdot)),
            _ => (Kind::Stat, c.files + c.sym + c.dotdot + rng.below(c.absent)),
        };
        Op {
            user,
            kind,
            path: path as u32,
        }
    }
}

/// The workload, set up and warm.
pub struct WarmLookup {
    pub tree: Tree,
    stream: Stream,
}

impl Workload for WarmLookup {
    const WINDOW_STEPS: u64 = WINDOW;

    /// Builds the tree, then warms the caches: every user stats every
    /// path once, then two windows of the stream run.
    fn setup(seed: u64, traced: bool) -> (WarmLookup, Rec) {
        let tree = build(seed, traced);
        let stream = Stream::new(seed, tree.counts);
        let mut w = WarmLookup { tree, stream };
        let mut warm = Rec::default();
        for user in 0..USERS as u8 {
            for path in 0..w.tree.paths.len() as u32 {
                let op = Op {
                    user,
                    kind: Kind::Stat,
                    path,
                };
                w.exec(op, &mut warm, false);
            }
        }
        for _ in 0..2 * WINDOW {
            w.step(&mut warm, false);
        }
        (w, warm)
    }

    fn env(&self) -> &Env {
        &self.tree.env
    }

    /// Runs the next op of the stream.
    fn step(&mut self, rec: &mut Rec, traced: bool) {
        let op = self.stream.next_op();
        self.exec(op, rec, traced);
    }
}

impl WarmLookup {
    fn exec(&self, op: Op, rec: &mut Rec, traced: bool) {
        let t = &self.tree;
        let (k, p) = (&t.env.kernel, &t.users[op.user as usize]);
        let path = t.paths[op.path as usize].as_str();
        let want = t.expect[op.path as usize];
        match op.kind {
            Kind::Stat => {
                let r = probe::stat(k, p, path, rec, traced);
                let ok = match (&r, want) {
                    (Ok(a), Some((ino, ftype))) => a.ino == ino && a.ftype == ftype,
                    (Err(FsError::NoEnt), None) => true,
                    _ => false,
                };
                rec.check(ok, || format!("stat {path}: {r:?}, expected {want:?}"));
            }
            Kind::Open => {
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Read, Name::VfsOpen, || {
                    let fd = k.open(p, path, OpenFlags::read_only(), 0)?;
                    let ino = p.fd(fd).map(|h| h.inode.ino);
                    crate::trace::span(Name::VfsClose, || k.close(p, fd))?;
                    ino
                });
                let ok = matches!((&r, want), (Ok(ino), Some((w, _))) if *ino == w);
                rec.check(ok, || format!("open {path}: {r:?}, expected {want:?}"));
            }
            Kind::Access => {
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Read, Name::VfsAccess, || {
                    k.access(p, path, MAY_READ)
                });
                let ok = matches!((&r, want), (Ok(()), Some(_)) | (Err(FsError::NoEnt), None));
                rec.check(ok, || format!("access {path}: {r:?}, expected {want:?}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let c = Counts {
            files: 500,
            sym: 10,
            dotdot: 10,
            absent: 20,
        };
        let draw = |seed| {
            let mut s = Stream::new(seed, c);
            (0..5000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(43));
        let stats = a.iter().filter(|o| o.kind == Kind::Stat).count();
        assert!((3700..4200).contains(&stats), "stats = {stats}");
        assert!(a
            .iter()
            .all(|o| (o.path as usize) < 540 && (o.user as usize) < USERS));
    }
}
