//! `serve_frames`: `dc-server` with one worker, driven through its
//! public `Server::start`/`Client::call` by one connection that keeps
//! one 64-request frame in flight (a closed loop). Requests mix `stat`,
//! path `lookup`, `lookup_sig` and `readdir` over the `warm_lookup`
//! tree, from the same four users. The same lookups run in-process in
//! `warm_lookup`, so frame time minus in-process time is the server's
//! own cost. The generator and the worker share the one CPU the run is
//! pinned to (`cpu.rs`).

use super::warm_lookup::{self, Tree, USERS};
use super::Workload;
use crate::env::{sorted_listing, Env, Listing};
use crate::hist::Hist;
use crate::phase::{ns_since, Rec};
use crate::report::Metrics;
use crate::rng::{derive, Rng};
use crate::trace::{self, Name, Tracer};
use dc_fs::{FileType, FsError};
use dc_obs::LatencyHist;
use dc_server::WorkerHists;
use dc_server::{Client, ReqBody, Request, RespBody, Response, Server, ServerConfig, Status};
use dc_sighash::Signature;
use dc_vfs::SigLookup;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Requests per frame.
pub const BATCH: usize = 64;
/// Frames per window: 4,096 requests.
const WINDOW: u64 = 64;

/// Frames of warm-up: two windows.
const WARM_FRAMES: u64 = 2 * WINDOW;

const SALT_FRAMES: u64 = 31;

/// What a request asks, by index into the tree's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    Stat(u32),
    Lookup(u32),
    LookupSig(u32),
    Readdir(u32),
}

/// One generated request: a user (credential id `user + 1`) and what it
/// asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub user: u8,
    pub ask: Ask,
}

/// The request stream, drawn from the seed alone, in frames of
/// [`BATCH`]: 35% `stat`, 30% path `lookup` and 25% `lookup_sig` of a
/// uniformly drawn tree file, 5% `readdir` of a leaf directory and 5%
/// path `lookup` of an absent name.
pub struct Stream {
    rng: Rng,
    c: warm_lookup::Counts,
    leaf_dirs: usize,
}

impl Stream {
    /// The stream for `seed` over the tree's table sizes.
    pub fn new(seed: u64, c: warm_lookup::Counts, leaf_dirs: usize) -> Stream {
        Stream {
            rng: Rng::new(derive(seed, SALT_FRAMES)),
            c,
            leaf_dirs,
        }
    }

    /// The next frame's requests.
    pub fn next_frame(&mut self, out: &mut Vec<Req>) {
        out.clear();
        let absent_base = (self.c.files + self.c.sym + self.c.dotdot) as u32;
        for _ in 0..BATCH {
            let rng = &mut self.rng;
            let user = rng.below(USERS) as u8;
            let file = rng.below(self.c.files) as u32;
            let ask = match rng.below(100) {
                0..=34 => Ask::Stat(file),
                35..=64 => Ask::Lookup(file),
                65..=89 => Ask::LookupSig(file),
                90..=94 => Ask::Readdir(rng.below(self.leaf_dirs) as u32),
                _ => Ask::Lookup(absent_base + rng.below(self.c.absent) as u32),
            };
            out.push(Req { user, ask });
        }
    }
}

/// Server counters at the start of a phase.
#[derive(Default, Clone, Copy)]
struct Served {
    batches: u64,
    requests: u64,
    rejected: u64,
}

fn served(s: &Server) -> Served {
    let st = s.stats();
    Served {
        batches: st.batches.load(Ordering::Relaxed),
        requests: st.requests.load(Ordering::Relaxed),
        rejected: st.rejected_requests.load(Ordering::Relaxed),
    }
}

/// The workload, set up: the server, its client and the request stream.
pub struct ServeFrames {
    pub tree: Tree,
    server: Server,
    client: Client,
    /// Each tree file's signature.
    sigs: Vec<Signature>,
    stream: Stream,
    frame: Vec<Req>,
    sent: u64,
    at_begin: Served,
    /// Traced runs: frame time minus in-process time, per frame.
    overhead: Hist,
    /// In-process replays whose answer differed from memfs's.
    replay_mismatches: u64,
}

impl Workload for ServeFrames {
    const WINDOW_STEPS: u64 = WINDOW;
    const READS_ARE_FRAMES: bool = true;

    /// Builds the `warm_lookup` tree, warms it in-process for every
    /// user, starts the server with one worker, and serves a warm-up.
    fn setup(seed: u64, traced: bool) -> (ServeFrames, Rec) {
        let tree = warm_lookup::build(seed, traced);
        let k = &tree.env.kernel;
        for u in &tree.users {
            for p in &tree.paths {
                let _ = k.stat_path(u, p);
            }
        }
        let sigs = tree.paths[..tree.counts.files]
            .iter()
            .map(|p| {
                k.path_signature(&tree.users[0], p)
                    .expect("signature of a tree file")
            })
            .collect();
        let server = Server::start(
            k.clone(),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        for (i, u) in tree.users.iter().enumerate() {
            server.register_cred(i as u16 + 1, u.clone());
        }
        let client = Client::new(server.connect());
        let stream = Stream::new(seed, tree.counts, tree.leaf_dirs.len());
        let mut s = ServeFrames {
            tree,
            server,
            client,
            sigs,
            stream,
            frame: Vec::with_capacity(BATCH),
            sent: 0,
            at_begin: Served::default(),
            overhead: Hist::default(),
            replay_mismatches: 0,
        };
        let mut warm = Rec::default();
        for _ in 0..WARM_FRAMES {
            s.step(&mut warm, false);
        }
        (s, warm)
    }

    fn env(&self) -> &Env {
        &self.tree.env
    }

    /// Zeroes the phase's counters.
    fn begin(&mut self) {
        self.sent = 0;
        self.at_begin = served(&self.server);
        self.overhead = Hist::default();
        for h in self.server.worker_hists() {
            h.reset();
        }
    }

    /// Sends the next frame, waits for its answer and checks every
    /// record. Traced, replays the frame in-process too.
    fn step(&mut self, rec: &mut Rec, traced: bool) {
        let mut frame = std::mem::take(&mut self.frame);
        self.stream.next_frame(&mut frame);
        let reqs: Vec<Request> = frame
            .iter()
            .enumerate()
            .map(|(i, r)| Request {
                id: i as u64,
                cred: r.user as u16 + 1,
                body: self.body(r.ask),
            })
            .collect();
        let t0 = Instant::now();
        let resps = trace::span(Name::Frame, || self.client.call(&reqs));
        let rtt = ns_since(t0);
        rec.reads.record(rtt);
        rec.path_calls += BATCH as u64;
        self.sent += 1;
        for (i, q) in frame.iter().enumerate() {
            let r = resps.get(i);
            let ok = r.is_some_and(|r| r.id == i as u64 && self.answer_ok(q.ask, r));
            rec.check(ok, || format!("request {i} {q:?}: {r:?}"));
        }
        if traced {
            let (_, t) = trace::span_times(Name::Inproc, || self.replay(&frame));
            rec.path_calls += BATCH as u64;
            self.overhead.record(rtt.saturating_sub(t.dur));
        }
        self.frame = frame;
    }

    /// Checks that the server executed exactly the frames and requests
    /// sent, and that in-process replays agreed with memfs.
    fn end(&mut self) -> Vec<String> {
        let now = served(&self.server);
        let mut problems = Vec::new();
        let batches = now.batches - self.at_begin.batches;
        if batches != self.sent {
            problems.push(format!(
                "reconciliation: {} frames sent, the server counted {batches} batches",
                self.sent
            ));
        }
        let requests = now.requests - self.at_begin.requests;
        if requests != self.sent * BATCH as u64 {
            problems.push(format!(
                "reconciliation: {} requests sent, the server counted {requests}",
                self.sent * BATCH as u64
            ));
        }
        if self.replay_mismatches > 0 {
            problems.push(format!(
                "{} in-process answers differ from memfs",
                self.replay_mismatches
            ));
        }
        problems
    }

    /// The server's stage times, its rejections, and the in-process
    /// comparison.
    fn report(&self, m: &mut Metrics, t: &Tracer) {
        type Pick = fn(&WorkerHists) -> &LatencyHist;
        let stages: [(&str, Pick); 4] = [
            ("server.queue_wait_ns", |w| &w.queue_wait),
            ("server.decode_ns", |w| &w.decode),
            ("server.exec_ns", |w| &w.batch_exec),
            ("server.encode_ns", |w| &w.encode),
        ];
        for (name, pick) in stages {
            let h = LatencyHist::new();
            for w in self.server.worker_hists() {
                h.merge_from(pick(w));
            }
            m.set(name, h.percentile(0.5) as f64, h.count());
        }
        let now = served(&self.server);
        let requests = now.requests - self.at_begin.requests;
        let rejected = now.rejected - self.at_begin.rejected;
        m.set(
            "server.rejected_frac",
            rejected as f64 / (requests + rejected).max(1) as f64,
            requests + rejected,
        );
        m.set(
            "server.inproc_ns",
            t.median(Name::Inproc),
            t.count(Name::Inproc),
        );
        m.set(
            "server.overhead_ns",
            self.overhead.median_or_zero(),
            self.overhead.count(),
        );
    }
}

impl ServeFrames {
    fn body(&self, ask: Ask) -> ReqBody<'_> {
        let paths = &self.tree.paths;
        match ask {
            Ask::Stat(p) => ReqBody::Stat {
                path: &paths[p as usize],
            },
            Ask::Lookup(p) => ReqBody::Lookup {
                path: &paths[p as usize],
                want_sig: false,
            },
            Ask::LookupSig(p) => ReqBody::LookupSig {
                sig: self.sigs[p as usize],
            },
            Ask::Readdir(d) => ReqBody::Readdir {
                path: &self.tree.leaf_dirs[d as usize].0,
            },
        }
    }

    /// Whether a response record is the answer memfs gives.
    fn answer_ok(&self, ask: Ask, r: &Response) -> bool {
        let t = &self.tree;
        let entry = |p: u32| t.expect[p as usize];
        match (ask, &r.status, &r.body) {
            (Ask::Stat(p), Status::Ok, RespBody::Stat { attr }) => {
                entry(p).is_some_and(|(ino, ft)| attr.ino == ino && attr.ftype == ft.as_u8())
            }
            (
                Ask::Lookup(p) | Ask::LookupSig(p),
                Status::Ok,
                RespBody::Lookup { ino, ftype, .. },
            ) => entry(p).is_some_and(|(i, ft)| *ino == i && *ftype == ft.as_u8()),
            (Ask::Lookup(p), Status::Fs(FsError::NoEnt), _) => entry(p).is_none(),
            (Ask::Readdir(d), Status::Ok, RespBody::Readdir { entries }) => {
                listing(entries) == t.leaf_dirs[d as usize].1
            }
            _ => false,
        }
    }

    /// Runs a frame's requests in-process, through the calls the server
    /// makes, and counts answers that differ from memfs's.
    fn replay(&mut self, frame: &[Req]) {
        let t = &self.tree;
        let k = &t.env.kernel;
        let mut bad = 0;
        for q in frame {
            let p = &t.users[q.user as usize];
            let want = |i: u32| t.expect[i as usize];
            let ok = match q.ask {
                Ask::Stat(i) => {
                    let r = k.stat_path(p, &t.paths[i as usize]);
                    matches!((r, want(i)), (Ok(a), Some((ino, _))) if a.ino == ino)
                }
                Ask::Lookup(i) => match (k.lookup_path(p, &t.paths[i as usize], false), want(i)) {
                    (Ok(r), Some((ino, _))) => r.ino == ino,
                    (Err(FsError::NoEnt), None) => true,
                    _ => false,
                },
                Ask::LookupSig(i) => match (k.lookup_sig(p, &self.sigs[i as usize]), want(i)) {
                    (SigLookup::Hit(r), Some((ino, _))) => r.ino == ino,
                    _ => false,
                },
                Ask::Readdir(d) => {
                    let (dir, listing) = &t.leaf_dirs[d as usize];
                    let got = k
                        .list_dir(p, dir)
                        .map(|v| sorted_listing(v.into_iter().map(|e| (e.name, e.ino, e.ftype))));
                    matches!(got, Ok(l) if l == *listing)
                }
            };
            bad += u64::from(!ok);
        }
        self.replay_mismatches += bad;
    }
}

/// A readdir response's entries as a sorted listing.
fn listing(entries: &[(u64, u8, String)]) -> Listing {
    sorted_listing(entries.iter().map(|(ino, ft, name)| {
        (
            name.clone(),
            *ino,
            FileType::from_u8(*ft).unwrap_or(FileType::Socket),
        )
    }))
}

impl Drop for ServeFrames {
    fn drop(&mut self) {
        self.server.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames() {
        let c = warm_lookup::Counts {
            files: 300,
            sym: 4,
            dotdot: 4,
            absent: 16,
        };
        let draw = |seed| {
            let mut s = Stream::new(seed, c, 20);
            let mut out = Vec::new();
            let mut all = Vec::new();
            for _ in 0..50 {
                s.next_frame(&mut out);
                assert_eq!(out.len(), BATCH);
                all.extend(out.iter().copied());
            }
            all
        };
        let a = draw(8);
        assert_eq!(a, draw(8));
        assert_ne!(a, draw(9));
    }
}
