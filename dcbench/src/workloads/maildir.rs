//! `maildir`: a Dovecot-style mail store (Figure 10), with writes beside
//! reads on one thread, over eight mailboxes. Deliveries are `mkstemp`
//! in `tmp`, a write and `close` (every 16th is `fsync`ed first), then a
//! rename into `new`; messages are accepted into `cur`, renamed as their
//! flags change and unlinked. Reads list `cur` and stat live and
//! just-deleted messages. A shadow model predicts every answer; at the
//! end every mailbox's listings are checked against it, through the
//! kernel and as memfs lists them.
//!
//! The dcache is bounded to 1,024 dentries, so the negative dentries
//! that unlinks and renames leave behind are evicted rather than piling
//! up, and memfs sits on a small device (4,096 blocks, so a 66-block
//! journal) with a 512-page cache and spin-charged writes. This
//! exercises memfs and its journal, block-device writes, negative
//! dentries, `DIR_COMPLETE` and LRU eviction.

use super::Workload;
use crate::env::{sorted_listing, DiskSpec, Env, Listing};
use crate::phase::{self, Class, Rec};
use crate::probe;
use crate::rng::{derive, Rng};
use crate::trace::{self, Name};
use dc_fs::{FileType, FsError, FsResult};
use dc_vfs::{Kernel, OpenFlags, Process};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Mailboxes.
pub const BOXES: usize = 8;
/// Messages in each mailbox's `cur` at set-up.
const MSGS: usize = 48;
/// Deletes leave at least this many messages in `cur`; deliveries turn
/// into deletes while a mailbox holds this many messages in all. The
/// narrow band keeps every mailbox near its set-up size, whatever the
/// seed.
const MIN_CUR: usize = 40;
const MAX_MSGS: usize = 56;
/// The dcache's capacity, dentries.
pub const CAPACITY: usize = 1024;
/// Every this-many-th delivery is `fsync`ed before `close`.
const FSYNC_EVERY: u64 = 16;
/// Deleted names remembered per mailbox, for absent-name stats.
const GONE: usize = 16;
/// The device: 4,096 blocks, 1 µs per block write, a 2 MiB page cache.
const DISK: DiskSpec = DiskSpec {
    blocks: 4096,
    inodes: 2048,
    write_ns: 1_000,
    cache_pages: 512,
};
/// Ops per window.
const WINDOW: u64 = 1024;
/// Ops of warm-up: enough to fill the dcache, so that evictions run
/// from the first timed window on.
const WARM_OPS: u64 = 12_288;

const SALT_STREAM: u64 = 21;

/// What an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `mkstemp` in `tmp`, write, (`fsync`), `close`.
    Deliver,
    /// Rename the oldest `tmp` file into `new` under a unique name.
    MoveNew,
    /// Rename a `new` message into `cur` (a `Mark` when `new` is empty).
    Accept,
    /// Rename a `cur` message to its next flags.
    Mark,
    /// Unlink a `cur` message (a `Mark` when `cur` is short).
    Delete,
    ListCur,
    StatMsg,
    /// `stat` of a deleted message: `ENOENT` is the right answer.
    StatGone,
}

/// One generated op: what, on which mailbox, and a number that picks
/// the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub mailbox: u8,
    pub pick: u32,
}

/// Generates ops from the seed alone; choices that depend on the
/// store's state are resolved by `pick` when the op runs.
pub struct Stream {
    rng: Rng,
    queued: Option<Op>,
}

impl Stream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            rng: Rng::new(derive(seed, SALT_STREAM)),
            queued: None,
        }
    }

    /// The next op. Each delivery is followed by its move into `new`.
    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.queued.take() {
            return op;
        }
        let mailbox = self.rng.below(BOXES) as u8;
        let pick = self.rng.next_u64() as u32;
        let kind = match self.rng.below(90) {
            0..=9 => {
                self.queued = Some(Op {
                    kind: Kind::MoveNew,
                    mailbox,
                    pick,
                });
                Kind::Deliver
            }
            10..=19 => Kind::Accept,
            20..=29 => Kind::Mark,
            30..=39 => Kind::Delete,
            40..=47 => Kind::ListCur,
            48..=79 => Kind::StatMsg,
            _ => Kind::StatGone,
        };
        Op {
            kind,
            mailbox,
            pick,
        }
    }
}

/// A message: its current file name and inode.
#[derive(Debug, Clone)]
struct Msg {
    name: String,
    ino: u64,
}

/// The model of one mailbox.
struct Mailbox {
    dir: String,
    tmp: VecDeque<Msg>,
    new: Vec<Msg>,
    cur: Vec<Msg>,
    gone: VecDeque<String>,
}

impl Mailbox {
    fn len(&self) -> usize {
        self.tmp.len() + self.new.len() + self.cur.len()
    }
}

/// The workload, set up.
pub struct Maildir {
    pub env: Env,
    user: Arc<Process>,
    boxes: Vec<Mailbox>,
    stream: Stream,
    deliveries: u64,
    fsyncs: u64,
    renames: u64,
}

/// The next flags of a `cur` message name (`…:2,<flags>`): "", "S",
/// "FS", then "" again.
fn flagged(name: &str) -> String {
    let (base, flags) = name.rsplit_once(":2,").expect("a cur message name");
    let next = match flags {
        "" => "S",
        "S" => "FS",
        _ => "",
    };
    format!("{base}:2,{next}")
}

/// Sorted `(name, ino, Regular)` records of model messages.
fn model_listing<'a>(msgs: impl IntoIterator<Item = &'a Msg>) -> Listing {
    sorted_listing(
        msgs.into_iter()
            .map(|m| (m.name.clone(), m.ino, FileType::Regular)),
    )
}

impl Workload for Maildir {
    const WINDOW_STEPS: u64 = WINDOW;

    /// Builds the store as an unprivileged user, then runs a warm-up.
    fn setup(seed: u64, traced: bool) -> (Maildir, Rec) {
        let env = Env::new(
            derive(seed, super::warm_lookup::SALT_KEY),
            Some(CAPACITY),
            DISK,
            traced,
        );
        let user = env.users(1).pop().expect("one user");
        let (k, root) = (&env.kernel, &env.root);
        k.mkdir(root, "/mail", 0o755).expect("mkdir");
        k.chown(root, "/mail", Some(1000), Some(1000))
            .expect("chown");
        let mut boxes = Vec::with_capacity(BOXES);
        for b in 0..BOXES {
            let dir = format!("/mail/box{b}");
            k.mkdir(&user, &dir, 0o750).expect("mkdir mailbox");
            for sub in ["tmp", "new", "cur"] {
                k.mkdir(&user, &format!("{dir}/{sub}"), 0o750)
                    .expect("mkdir");
            }
            let mut cur = Vec::with_capacity(MSGS);
            for m in 0..MSGS {
                let name = format!("{m:08}.b{b}.host:2,");
                let path = format!("{dir}/cur/{name}");
                let fd = k
                    .open(&user, &path, OpenFlags::create(), 0o640)
                    .expect("create message");
                k.write_fd(&user, fd, b"Subject: hi\r\n\r\nbody")
                    .expect("write");
                let ino = k.fstat(&user, fd).expect("fstat").ino;
                k.close(&user, fd).expect("close");
                cur.push(Msg { name, ino });
            }
            boxes.push(Mailbox {
                dir,
                tmp: VecDeque::new(),
                new: Vec::new(),
                cur,
                gone: VecDeque::new(),
            });
        }
        let mut w = Maildir {
            env,
            user,
            boxes,
            stream: Stream::new(seed),
            deliveries: 0,
            fsyncs: 0,
            renames: 0,
        };
        let mut warm = Rec::default();
        for _ in 0..WARM_OPS {
            w.step(&mut warm, false);
        }
        (w, warm)
    }

    fn env(&self) -> &Env {
        &self.env
    }

    fn step(&mut self, rec: &mut Rec, traced: bool) {
        let op = self.stream.next_op();
        self.exec(op, rec, traced);
    }

    /// Evictions, journal commits and checkpoints, `fsync`s and renames.
    fn periodic(&self) -> Vec<(&'static str, u64)> {
        let j = self.env.memfs.journal_stats().unwrap_or_default();
        let evictions = self
            .env
            .kernel
            .dcache
            .stats
            .evictions
            .load(Ordering::Relaxed);
        vec![
            ("evictions", evictions),
            ("journal commits", j.commits),
            ("journal checkpoints", j.checkpoints),
            ("fsyncs", self.fsyncs),
            ("renames", self.renames),
        ]
    }

    /// Checks every mailbox directory against the model, both through
    /// the kernel and as memfs lists it below the dcache.
    fn verify(&self) -> Vec<String> {
        let (k, p) = (&self.env.kernel, &self.user);
        let mut problems = Vec::new();
        for mb in &self.boxes {
            let parts = [
                ("tmp", model_listing(&mb.tmp)),
                ("new", model_listing(&mb.new)),
                ("cur", model_listing(&mb.cur)),
            ];
            for (sub, want) in parts {
                let dir = format!("{}/{sub}", mb.dir);
                let got = k
                    .list_dir(p, &dir)
                    .map(|v| sorted_listing(v.into_iter().map(|e| (e.name, e.ino, e.ftype))));
                if !matches!(&got, Ok(l) if *l == want) {
                    problems.push(format!("final listing of {dir} differs from the model"));
                }
                if !matches!(self.env.oracle_listing(&dir), Ok(l) if l == want) {
                    problems.push(format!("memfs listing of {dir} differs from the model"));
                }
            }
        }
        problems
    }
}

impl Maildir {
    fn exec(&mut self, op: Op, rec: &mut Rec, traced: bool) {
        let (k, user) = (self.env.kernel.clone(), self.user.clone());
        let (k, p) = (k.as_ref(), user.as_ref());
        let b = op.mailbox as usize;
        let mut kind = op.kind;
        let mb = &self.boxes[b];
        if kind == Kind::Deliver && mb.len() >= MAX_MSGS {
            kind = Kind::Delete;
        }
        if kind == Kind::Accept && mb.new.is_empty() {
            kind = Kind::Mark;
        }
        if kind == Kind::Delete && mb.cur.len() <= MIN_CUR {
            kind = Kind::Mark;
        }
        if kind == Kind::MoveNew && mb.tmp.is_empty() {
            // Its delivery was turned into a delete.
            kind = Kind::Mark;
        }
        match kind {
            Kind::Deliver => {
                self.deliveries += 1;
                let fsync = self.deliveries.is_multiple_of(FSYNC_EVERY);
                self.fsyncs += u64::from(fsync);
                let tmp = format!("{}/tmp", self.boxes[b].dir);
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Write, Name::VfsCreate, || {
                    deliver(k, p, &tmp, fsync)
                });
                let ok = matches!(&r, Ok(m) if !self.boxes[b].tmp.iter().any(|t| t.name == m.name));
                rec.check(ok, || format!("mkstemp in {tmp}: {r:?}"));
                if let Ok(m) = r {
                    self.boxes[b].tmp.push_back(m);
                }
            }
            Kind::MoveNew => {
                let mb = &mut self.boxes[b];
                let m = mb.tmp.pop_front().expect("checked above");
                // Maildir names deliveries uniquely; `mkstemp`'s random
                // suffix is unique only within `tmp`.
                let name = format!("{:08}.d{b}.host", self.deliveries);
                let from = format!("{}/tmp/{}", mb.dir, m.name);
                let to = format!("{}/new/{name}", mb.dir);
                mb.new.push(Msg { name, ino: m.ino });
                self.rename(rec, k, p, &from, &to);
            }
            Kind::Accept => {
                let mb = &mut self.boxes[b];
                let m = mb.new.swap_remove(op.pick as usize % mb.new.len());
                let name = format!("{}:2,", m.name);
                let from = format!("{}/new/{}", mb.dir, m.name);
                let to = format!("{}/cur/{name}", mb.dir);
                mb.cur.push(Msg { name, ino: m.ino });
                self.rename(rec, k, p, &from, &to);
            }
            Kind::Mark => {
                let mb = &mut self.boxes[b];
                let i = op.pick as usize % mb.cur.len();
                let name = flagged(&mb.cur[i].name);
                let from = format!("{}/cur/{}", mb.dir, mb.cur[i].name);
                let to = format!("{}/cur/{name}", mb.dir);
                mb.cur[i].name = name;
                self.rename(rec, k, p, &from, &to);
            }
            Kind::Delete => {
                let mb = &mut self.boxes[b];
                let m = mb.cur.swap_remove(op.pick as usize % mb.cur.len());
                let path = format!("{}/cur/{}", mb.dir, m.name);
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Write, Name::VfsUnlink, || k.unlink(p, &path));
                rec.check(r.is_ok(), || format!("unlink {path}: {r:?}"));
                if mb.gone.len() == GONE {
                    mb.gone.pop_front();
                }
                mb.gone.push_back(path);
            }
            Kind::ListCur => {
                let mb = &self.boxes[b];
                let dir = format!("{}/cur", mb.dir);
                rec.path_calls += 1;
                let r = phase::op(rec, Class::Read, Name::VfsReaddir, || k.list_dir(p, &dir));
                let want = model_listing(&mb.cur);
                let got =
                    r.map(|v| sorted_listing(v.into_iter().map(|e| (e.name, e.ino, e.ftype))));
                let ok = matches!(&got, Ok(l) if *l == want);
                rec.check(ok, || format!("readdir {dir}: {got:?}, expected {want:?}"));
            }
            Kind::StatMsg => {
                let mb = &self.boxes[b];
                let m = &mb.cur[op.pick as usize % mb.cur.len()];
                let path = format!("{}/cur/{}", mb.dir, m.name);
                self.stat(rec, traced, &path, Some(m.ino));
            }
            Kind::StatGone => {
                let mb = &self.boxes[b];
                let path = match mb.gone.len() {
                    0 => format!("{}/cur/never{}", mb.dir, op.pick % 64),
                    n => mb.gone[op.pick as usize % n].clone(),
                };
                self.stat(rec, traced, &path, None);
            }
        }
    }

    fn rename(&mut self, rec: &mut Rec, k: &Kernel, p: &Process, from: &str, to: &str) {
        rec.path_calls += 2;
        self.renames += 1;
        let r = phase::op(rec, Class::Write, Name::VfsRename, || k.rename(p, from, to));
        rec.check(r.is_ok(), || format!("rename {from} {to}: {r:?}"));
    }

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

/// One delivery into `tmp`: `mkstemp`, write, optional `fsync`, `close`.
fn deliver(k: &Kernel, p: &Process, tmp: &str, fsync: bool) -> FsResult<Msg> {
    let (fd, name) = k.mkstemp(p, tmp, "msg.")?;
    trace::span(Name::VfsWrite, || {
        k.write_fd(p, fd, b"Subject: new\r\n\r\nbody")
    })?;
    if fsync {
        trace::span(Name::VfsFsync, || k.fsync(p, fd))?;
    }
    let ino = k.fstat(p, fd)?.ino;
    trace::span(Name::VfsClose, || k.close(p, fd))?;
    Ok(Msg { name, ino })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let draw = |seed| {
            let mut s = Stream::new(seed);
            (0..5000).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        // Every delivery is followed by the move of its file into new.
        for w in a.windows(2) {
            if w[0].kind == Kind::Deliver {
                assert_eq!((w[1].kind, w[1].mailbox), (Kind::MoveNew, w[0].mailbox));
            }
        }
        assert!(a.iter().all(|o| (o.mailbox as usize) < BOXES));
    }

    #[test]
    fn flags_cycle() {
        assert_eq!(flagged("m:2,"), "m:2,S");
        assert_eq!(flagged("m:2,S"), "m:2,FS");
        assert_eq!(flagged("m:2,FS"), "m:2,");
    }
}
