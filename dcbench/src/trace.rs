//! In-memory spans for the traced run.
//!
//! A span has a name, start and end (ns since the tracer was installed),
//! the index of its parent span and the id of the benchmark op it serves.
//! The tracer lives in a thread local of the thread that drives the
//! kernel, so spans opened by the file-system wrapper nest under the
//! syscall span that caused them. Spans are kept in memory up to a cap
//! and written out when the run ends; per-name duration and self-time
//! histograms cover every span, kept or not.

use crate::hist::Hist;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// Span names: one per layer boundary the benchmark calls across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One benchmark op (the root span).
    Op,
    VfsStat,
    VfsOpen,
    VfsClose,
    VfsAccess,
    VfsReaddir,
    VfsCreate,
    VfsWrite,
    VfsFsync,
    VfsRename,
    VfsUnlink,
    VfsChmod,
    FsLookup,
    FsGetattr,
    FsReaddir,
    FsMutation,
    /// File-system calls outside the four counted classes (read,
    /// readlink, statfs, sync).
    FsOther,
    SigHash,
    DlhtProbe,
    PccCheck,
    /// One server frame round trip.
    Frame,
    /// The same frame's requests run in-process.
    Inproc,
}

/// Printable span names, indexed by `Name as usize`.
pub const NAMES: [&str; 22] = [
    "op",
    "vfs.stat",
    "vfs.open",
    "vfs.close",
    "vfs.access",
    "vfs.readdir",
    "vfs.create",
    "vfs.write",
    "vfs.fsync",
    "vfs.rename",
    "vfs.unlink",
    "vfs.chmod",
    "fs.lookup",
    "fs.getattr",
    "fs.readdir",
    "fs.mutation",
    "fs.other",
    "sighash.hash",
    "core.dlht_probe",
    "core.pcc_check",
    "server.frame",
    "server.inproc",
];

impl Name {
    /// Every name, in `NAMES` order.
    pub const ALL: [Name; 22] = [
        Name::Op,
        Name::VfsStat,
        Name::VfsOpen,
        Name::VfsClose,
        Name::VfsAccess,
        Name::VfsReaddir,
        Name::VfsCreate,
        Name::VfsWrite,
        Name::VfsFsync,
        Name::VfsRename,
        Name::VfsUnlink,
        Name::VfsChmod,
        Name::FsLookup,
        Name::FsGetattr,
        Name::FsReaddir,
        Name::FsMutation,
        Name::FsOther,
        Name::SigHash,
        Name::DlhtProbe,
        Name::PccCheck,
        Name::Frame,
        Name::Inproc,
    ];

    /// True for spans around `Kernel` calls.
    pub fn is_vfs(self) -> bool {
        (Name::VfsStat as usize..=Name::VfsChmod as usize).contains(&(self as usize))
    }

    /// True for spans around `FileSystem` calls.
    pub fn is_fs(self) -> bool {
        (Name::FsLookup as usize..=Name::FsOther as usize).contains(&(self as usize))
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

/// Duration and self time (duration minus child spans) of a closed span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    pub dur: u64,
    pub self_ns: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    child_ns: u64,
    index: u32,
}

/// Spans and per-name aggregates of one traced phase.
pub struct Tracer {
    epoch: Instant,
    /// Kept spans, in opening order.
    pub spans: Vec<Span>,
    cap: usize,
    /// Spans aggregated but not kept (past the cap).
    pub dropped: u64,
    stack: Vec<Open>,
    op: u64,
    /// Durations by name.
    pub dur: Vec<Hist>,
    /// Self times by name.
    pub self_time: Vec<Hist>,
    /// Summed durations by name.
    pub total_ns: Vec<u64>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts tracing on this thread, keeping at most `cap` spans.
pub fn install(cap: usize) {
    let t = Tracer {
        epoch: Instant::now(),
        spans: Vec::with_capacity(cap.min(1 << 16)),
        cap,
        dropped: 0,
        stack: Vec::new(),
        op: 0,
        dur: vec![Hist::default(); NAMES.len()],
        self_time: vec![Hist::default(); NAMES.len()],
        total_ns: vec![0; NAMES.len()],
    };
    TRACER.with(|c| *c.borrow_mut() = Some(t));
}

/// Stops tracing on this thread and returns what was recorded.
pub fn uninstall() -> Option<Tracer> {
    TRACER.with(|c| c.borrow_mut().take())
}

/// Sets the op id carried by spans opened from now on.
pub fn set_op(op: u64) {
    TRACER.with(|c| {
        if let Some(t) = c.borrow_mut().as_mut() {
            t.op = op;
        }
    });
}

/// Runs `f` inside a span named `name` (just runs it when this thread
/// has no tracer).
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    span_times(name, f).0
}

/// Like [`span`], also returning the span's duration and self time.
pub fn span_times<R>(name: Name, f: impl FnOnce() -> R) -> (R, Times) {
    let traced = TRACER.with(|c| match c.borrow_mut().as_mut() {
        Some(t) => {
            t.open(name);
            true
        }
        None => false,
    });
    let r = f();
    let times = if traced {
        TRACER.with(|c| c.borrow_mut().as_mut().map(Tracer::close))
    } else {
        None
    };
    (r, times.unwrap_or_default())
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: Name) {
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.index);
        let start_ns = self.now();
        let index = if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op: self.op,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            start_ns,
            child_ns: 0,
            index,
        });
    }

    fn close(&mut self) -> Times {
        let end = self.now();
        let o = self.stack.pop().expect("span closed without being opened");
        let dur = end - o.start_ns;
        let self_ns = dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if o.index != NO_PARENT {
            self.spans[o.index as usize].end_ns = end;
        }
        let i = o.name as usize;
        self.dur[i].record(dur);
        self.self_time[i].record(self_ns);
        self.total_ns[i] += dur;
        Times { dur, self_ns }
    }

    /// Median duration of spans named `name` (0 when there are none).
    pub fn median(&self, name: Name) -> f64 {
        self.dur[name as usize].median_or_zero()
    }

    /// Spans named `name`, kept or not.
    pub fn count(&self, name: Name) -> u64 {
        self.dur[name as usize].count()
    }

    /// Writes the kept spans as CSV: `op,name,start_ns,end_ns,parent`
    /// (`parent` is a row index, empty for roots).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "op,name,start_ns,end_ns,parent")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{}",
                s.op, NAMES[s.name as usize], s.start_ns, s.end_ns, parent
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_self_time() {
        install(16);
        set_op(5);
        let ((), outer) = span_times(Name::VfsStat, || {
            span(Name::FsLookup, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let t = uninstall().expect("tracer installed");
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
        assert!(t.spans.iter().all(|s| s.op == 5));
        assert!(outer.dur >= 2_000_000 && outer.self_ns < outer.dur);
        assert_eq!(t.count(Name::FsLookup), 1);
        // Without a tracer, spans are free and report zero.
        let (v, times) = span_times(Name::Op, || 7);
        assert_eq!((v, times.dur), (7, 0));
    }
}
