//! `rename_churn`: a `stat` stream over deep paths while interior
//! directories are renamed away and back. Eight "layer" chains, each 12
//! directories deep with 32 files in the leaf (14-component paths, ~360
//! dentries). Every 64th op renames an interior directory of a chain
//! away or back, and every 512th op flips an interior directory's mode.
//! Each rename shoots down the subtree's DLHT and PCC entries (§3.2), so
//! the reads that follow pay slowpath walks over cached dentries: this
//! measures coherence and the walk, not memfs reads.

use super::Workload;
use crate::env::{DiskSpec, Env, MAY_READ};
use crate::phase::{self, Class, Rec};
use crate::probe;
use crate::rng::{derive, Rng};
use crate::trace::Name;
use dc_fs::FsError;
use dc_vfs::{OpenFlags, Process};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Chains, directories per chain, and files in each chain's leaf.
pub const CHAINS: usize = 8;
pub const DEPTH: usize = 12;
pub const FILES: usize = 32;
/// A rename (away, then back) every this many ops.
pub const RENAME_EVERY: u64 = 64;
/// A mode flip every this many ops (offset by half a period).
pub const CHMOD_EVERY: u64 = 512;
/// Ops per window: 64 renames and 8 mode flips.
const WINDOW: u64 = 4096;

const SALT_STREAM: u64 = 11;

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Rename the pending directory back, or rename directory `level`
    /// of `chain` away.
    Rename,
    /// Flip the mode of directory `level` of `chain`.
    Chmod,
    /// `stat` file `file` of `chain`, under its current spelling.
    Stat,
    /// `access(R_OK)` of the same.
    Access,
    /// `stat` of the old spelling of a renamed-away directory's file
    /// (a `Stat` while nothing is renamed away): `ENOENT`.
    StatOld,
}

/// One generated op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub chain: u8,
    /// Directory level, 0 (the chain's top) to `DEPTH - 2`: never the
    /// leaf, so a rename always moves directories and files.
    pub level: u8,
    /// A file of the chain's leaf.
    pub file: u8,
}

/// The op stream, drawn from the seed alone.
pub struct Stream {
    rng: Rng,
    n: u64,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(derive(seed, SALT_STREAM)),
            n: 0,
        }
    }

    /// The next op: a rename every [`RENAME_EVERY`], a mode flip every
    /// [`CHMOD_EVERY`], otherwise 90% `stat`, 6% `access` and 4% `stat`
    /// of an old spelling, of a uniformly drawn file. Renames and mode
    /// flips rotate over every chain and level in a fixed order, so
    /// every window does the same coherence work.
    pub fn next_op(&mut self) -> Op {
        self.n += 1;
        let rng = &mut self.rng;
        let mut chain = rng.below(CHAINS) as u8;
        let mut level = rng.below(DEPTH - 1) as u8;
        let file = rng.below(FILES) as u8;
        let n = self.n;
        let rotate = |k: u64| {
            (
                (k % CHAINS as u64) as u8,
                ((k * 5) % (DEPTH as u64 - 1)) as u8,
            )
        };
        let kind = if n.is_multiple_of(RENAME_EVERY) {
            // Renames come in away-and-back pairs; a pair's target.
            (chain, level) = rotate(n / (2 * RENAME_EVERY));
            Kind::Rename
        } else if n % CHMOD_EVERY == CHMOD_EVERY / 2 + 1 {
            (chain, level) = rotate(n / CHMOD_EVERY + 3);
            Kind::Chmod
        } else {
            match rng.below(100) {
                0..=89 => Kind::Stat,
                90..=95 => Kind::Access,
                _ => Kind::StatOld,
            }
        };
        Op {
            kind,
            chain,
            level,
            file,
        }
    }
}

/// A directory renamed away: its chain and level.
#[derive(Debug, Clone, Copy)]
struct Away {
    chain: usize,
    level: usize,
}

/// The workload, set up.
pub struct RenameChurn {
    pub env: Env,
    user: Arc<Process>,
    /// File inodes by chain, then file.
    inos: Vec<Vec<u64>>,
    /// Mode bits flipped per chain and level.
    flipped: Vec<Vec<bool>>,
    away: Option<Away>,
    stream: Stream,
    renames: u64,
}

/// Name of directory `level` of `chain`, renamed away or not.
fn dir_name(chain: usize, level: usize, away: bool) -> String {
    let base = if level == 0 {
        format!("l{chain}")
    } else {
        format!("d{level:02}")
    };
    if away {
        format!("{base}.mv")
    } else {
        base
    }
}

impl RenameChurn {
    /// The path of directory `level` of `chain` (or of file `file` in
    /// its leaf), spelled as it is now, or as it was before the pending
    /// rename when `old`.
    fn path(&self, chain: usize, upto: usize, file: Option<usize>, old: bool) -> String {
        let mut p = String::from("/lc");
        for level in 0..=upto {
            let away = !old && matches!(self.away, Some(a) if a.chain == chain && a.level == level);
            p.push('/');
            p.push_str(&dir_name(chain, level, away));
        }
        if let Some(f) = file {
            p.push_str(&format!("/f{f:02}"));
        }
        p
    }
}

impl Workload for RenameChurn {
    const WINDOW_STEPS: u64 = WINDOW;

    /// Builds the chains as an unprivileged user, then warms the caches:
    /// every file is stat'ed once, then two windows of the stream run.
    fn setup(seed: u64, traced: bool) -> (RenameChurn, Rec) {
        let env = Env::new(
            derive(seed, super::warm_lookup::SALT_KEY),
            None,
            DiskSpec::FREE,
            traced,
        );
        let user = env.users(1).pop().expect("one user");
        let (k, root) = (&env.kernel, &env.root);
        k.mkdir(root, "/lc", 0o755).expect("mkdir /lc");
        k.chown(root, "/lc", Some(1000), Some(1000))
            .expect("chown /lc");
        let mut w = RenameChurn {
            env,
            user,
            inos: Vec::new(),
            flipped: vec![vec![false; DEPTH]; CHAINS],
            away: None,
            stream: Stream::new(seed),
            renames: 0,
        };
        let k = w.env.kernel.clone();
        for c in 0..CHAINS {
            for level in 0..DEPTH {
                k.mkdir(&w.user, &w.path(c, level, None, false), 0o755)
                    .expect("mkdir a chain directory");
            }
            let mut inos = Vec::with_capacity(FILES);
            for f in 0..FILES {
                let path = w.path(c, DEPTH - 1, Some(f), false);
                let fd = k
                    .open(&w.user, &path, OpenFlags::create(), 0o644)
                    .expect("create a leaf file");
                k.close(&w.user, fd).expect("close");
                inos.push(w.env.oracle(&path).expect("oracle").ino);
            }
            w.inos.push(inos);
        }
        let mut warm = Rec::default();
        for c in 0..CHAINS {
            for f in 0..FILES {
                let path = w.path(c, DEPTH - 1, Some(f), false);
                w.stat(&mut warm, false, &path, Some(w.inos[c][f]));
            }
        }
        for _ in 0..2 * WINDOW {
            w.step(&mut warm, false);
        }
        (w, warm)
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn step(&mut self, rec: &mut Rec, traced: bool) {
        let op = self.stream.next_op();
        let k = self.env.kernel.clone();
        let p = self.user.clone();
        let (c, level, f) = (op.chain as usize, op.level as usize, op.file as usize);
        match op.kind {
            Kind::Rename => {
                let (from, to) = match self.away {
                    Some(a) => {
                        let from = self.path(a.chain, a.level, None, false);
                        self.away = None;
                        (from, self.path(a.chain, a.level, None, false))
                    }
                    None => {
                        let a = Away { chain: c, level };
                        let from = self.path(c, level, None, false);
                        self.away = Some(a);
                        (from, self.path(c, level, None, false))
                    }
                };
                rec.path_calls += 2;
                self.renames += 1;
                let r = phase::op(rec, Class::Write, Name::VfsRename, || {
                    k.rename(&p, &from, &to)
                });
                rec.check(r.is_ok(), || format!("rename {from} {to}: {r:?}"));
            }
            Kind::Chmod => {
                let path = self.path(c, level, None, false);
                let flipped = &mut self.flipped[c][level];
                *flipped = !*flipped;
                let mode = if *flipped { 0o711 } else { 0o755 };
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Write, Name::VfsChmod, || {
                    k.chmod(&p, &path, mode)
                });
                rec.check(r.is_ok(), || format!("chmod {path}: {r:?}"));
            }
            Kind::Stat => {
                let path = self.path(c, DEPTH - 1, Some(f), false);
                self.stat(rec, traced, &path, Some(self.inos[c][f]));
            }
            Kind::Access => {
                let path = self.path(c, DEPTH - 1, Some(f), false);
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Read, Name::VfsAccess, || {
                    k.access(&p, &path, MAY_READ)
                });
                rec.check(r.is_ok(), || format!("access {path}: {r:?}"));
            }
            Kind::StatOld => match self.away {
                Some(a) => {
                    let path = self.path(a.chain, DEPTH - 1, Some(f), true);
                    self.stat(rec, traced, &path, None);
                }
                None => {
                    let path = self.path(c, DEPTH - 1, Some(f), false);
                    self.stat(rec, traced, &path, Some(self.inos[c][f]));
                }
            },
        }
    }

    /// Renames, and the subtree shootdowns they cause.
    fn periodic(&self) -> Vec<(&'static str, u64)> {
        let stats = &self.env.kernel.dcache.stats;
        let shootdowns = stats.shootdowns.load(Ordering::Relaxed);
        vec![("renames", self.renames), ("shootdowns", shootdowns)]
    }

    /// Every file answers with its inode under its current spelling.
    fn verify(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for c in 0..CHAINS {
            for f in 0..FILES {
                let path = self.path(c, DEPTH - 1, Some(f), false);
                match self.env.oracle(&path) {
                    Ok(a) if a.ino == self.inos[c][f] => {}
                    other => problems.push(format!("final check of {path}: {other:?}")),
                }
            }
        }
        problems
    }
}

impl RenameChurn {
    fn stat(&self, rec: &mut Rec, traced: bool, path: &str, want: Option<u64>) {
        let r = probe::stat(&self.env.kernel, &self.user, path, rec, traced);
        let ok = match (&r, want) {
            (Ok(a), Some(ino)) => a.ino == ino,
            (Err(FsError::NoEnt), None) => true,
            _ => false,
        };
        rec.check(ok, || format!("stat {path}: {r:?}, expected {want:?}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut s = Stream::new(seed);
            (0..4096).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        let count = |k| a.iter().filter(|o| o.kind == k).count();
        assert_eq!(count(Kind::Rename), 64);
        assert_eq!(count(Kind::Chmod), 8);
        // Coherence work does not depend on the seed.
        let targets = |ops: &[Op]| {
            ops.iter()
                .filter(|o| matches!(o.kind, Kind::Rename | Kind::Chmod))
                .map(|o| (o.chain, o.level))
                .collect::<Vec<_>>()
        };
        assert_eq!(targets(&a), targets(&draw(6)));
        assert!(a
            .iter()
            .all(|o| (o.level as usize) < DEPTH - 1 && (o.chain as usize) < CHAINS));
    }
}
