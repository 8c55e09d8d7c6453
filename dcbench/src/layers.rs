//! Counter snapshots, and the per-layer metrics computed from their
//! differences and from the traced run's spans.

use crate::env::Env;
use crate::report::Metrics;
use crate::trace::{Name, Tracer};
use dc_blockdev::DiskStats;
use dc_fs::FileSystem;
use dcache_core::SpaceReport;

/// Every layer's counters at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snap {
    dcache: Vec<(&'static str, u64)>,
    /// `FsStats` as `(lookups, readdirs, getattrs, mutations)`.
    pub fs: (u64, u64, u64, u64),
    /// The wrapper's call counts, same order (zero when untraced).
    pub calls: (u64, u64, u64, u64),
    pub disk: DiskStats,
    /// `(commits, blocks logged, checkpoints)` of memfs's journal.
    pub journal: (u64, u64, u64),
}

impl Snap {
    /// Reads every counter of `env`'s kernel.
    pub fn take(env: &Env) -> Snap {
        let memfs: &dyn FileSystem = env.memfs.as_ref();
        let journal = env
            .memfs
            .journal_stats()
            .map_or((0, 0, 0), |j| (j.commits, j.blocks_logged, j.checkpoints));
        Snap {
            dcache: env.kernel.dcache.stats.snapshot(),
            fs: memfs.stats().snapshot(),
            calls: env
                .wrapper
                .as_ref()
                .map_or((0, 0, 0, 0), |w| w.calls.snapshot()),
            disk: env.memfs.disk().stats(),
            journal,
        }
    }

    /// Dcache counter `name`.
    pub fn dc(&self, name: &str) -> u64 {
        self.dcache
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no dcache counter {name}"))
    }
}

/// Differences between two snapshots.
pub struct Delta<'a> {
    pub before: &'a Snap,
    pub after: &'a Snap,
}

impl Delta<'_> {
    /// Change of dcache counter `name`.
    pub fn dc(&self, name: &str) -> u64 {
        self.after.dc(name) - self.before.dc(name)
    }

    /// Change of `FsStats`.
    pub fn fs(&self) -> (u64, u64, u64, u64) {
        sub4(self.after.fs, self.before.fs)
    }

    /// Change of the wrapper's counts.
    pub fn calls(&self) -> (u64, u64, u64, u64) {
        sub4(self.after.calls, self.before.calls)
    }
}

fn sub4(a: (u64, u64, u64, u64), b: (u64, u64, u64, u64)) -> (u64, u64, u64, u64) {
    (a.0 - b.0, a.1 - b.1, a.2 - b.2, a.3 - b.3)
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Resident dcache bytes: dentries, DLHTs, the snapshot slab and PCCs.
pub fn mem_bytes(r: &SpaceReport) -> u64 {
    r.dentry_bytes as u64 * r.live_dentries
        + r.dlht_bytes as u64
        + r.snap_slab_bytes as u64
        + (r.pcc_bytes_each * r.pccs) as u64
}

/// The state of a phase at its fixed op index: the same ops have run on
/// every run of one seed, however fast the host was.
pub struct Fixed {
    /// Counters when the phase began.
    pub start: Snap,
    /// Counters at the fixed index.
    pub at: Snap,
    /// The dcache's footprint at the fixed index.
    pub space: SpaceReport,
    /// Ops run up to the fixed index.
    pub ops: u64,
    /// Mutations among them.
    pub writes: u64,
    /// Mean resident bytes ([`mem_bytes`]) from the fixed index on.
    pub mem_bytes: f64,
}

/// Fills the vfs, sighash, core, fs and blockdev metrics of a traced
/// phase: span medians over the whole phase, counts and ratios over the
/// fixed op range.
pub fn fill(m: &mut Metrics, t: &Tracer, f: &Fixed, envelope: &crate::hist::Hist) {
    let span = |m: &mut Metrics, metric: &str, name: Name| {
        m.set(metric, t.median(name), t.count(name));
    };
    span(m, "vfs.stat_ns", Name::VfsStat);
    span(m, "vfs.open_ns", Name::VfsOpen);
    span(m, "vfs.readdir_ns", Name::VfsReaddir);
    span(m, "vfs.create_ns", Name::VfsCreate);
    span(m, "vfs.rename_ns", Name::VfsRename);
    span(m, "vfs.unlink_ns", Name::VfsUnlink);
    span(m, "vfs.chmod_ns", Name::VfsChmod);
    m.set(
        "vfs.envelope_ns",
        envelope.median_or_zero(),
        envelope.count(),
    );
    let (mut vfs_total, mut fs_total) = (0u64, 0u64);
    for (i, name) in Name::ALL.iter().enumerate() {
        if name.is_vfs() {
            vfs_total += t.total_ns[i];
        } else if name.is_fs() {
            fs_total += t.total_ns[i];
        }
    }
    m.set(
        "vfs.fs_share",
        ratio(fs_total, vfs_total),
        t.count(Name::Op),
    );
    span(m, "sighash.hash_ns", Name::SigHash);
    span(m, "core.dlht_probe_ns", Name::DlhtProbe);
    span(m, "core.pcc_check_ns", Name::PccCheck);
    span(m, "fs.lookup_ns", Name::FsLookup);
    span(m, "fs.mutation_ns", Name::FsMutation);

    let d = Delta {
        before: &f.start,
        after: &f.at,
    };
    let (ops, writes) = (f.ops, f.writes);
    let lookups = d.dc("lookups");
    let per = |n: &str| ratio(d.dc(n), lookups);
    m.set(
        "core.fast_hit_ratio",
        ratio(d.dc("fast_hits"), d.dc("fast_attempts")),
        d.dc("fast_attempts"),
    );
    m.set("core.dlht_miss_per_lookup", per("fast_miss_dlht"), lookups);
    m.set("core.pcc_miss_per_lookup", per("fast_miss_pcc"), lookups);
    m.set("core.seq_miss_per_lookup", per("fast_miss_seq"), lookups);
    m.set("core.epoch_pins_per_lookup", per("epoch_pins"), lookups);
    m.set(
        "core.retries_per_lookup",
        ratio(d.dc("read_retries") + d.dc("slow_retries"), lookups),
        lookups,
    );
    m.set("core.slow_steps_per_lookup", per("slow_steps"), lookups);
    m.set(
        "core.shootdown_visits_per_write",
        ratio(d.dc("shootdown_visits"), writes),
        writes,
    );
    let neg = d.dc("hit_negative") + d.dc("fast_neg_hits") + d.dc("complete_neg_avoided");
    m.set("core.neg_hit_ratio", ratio(neg, lookups), lookups);
    let readdirs = d.dc("readdir_cached") + d.dc("readdir_fs");
    m.set(
        "core.readdir_cached_ratio",
        ratio(d.dc("readdir_cached"), readdirs),
        readdirs,
    );
    m.set(
        "core.complete_neg_avoided",
        d.dc("complete_neg_avoided") as f64,
        lookups,
    );
    m.set("core.evictions_per_op", ratio(d.dc("evictions"), ops), ops);
    let s = &f.space;
    m.set(
        "core.dentry_bytes",
        (s.dentry_bytes as u64 * s.live_dentries) as f64,
        s.live_dentries,
    );
    m.set("core.dlht_bytes", s.dlht_bytes as f64, s.dlht_entries);
    m.set(
        "core.pcc_bytes",
        (s.pcc_bytes_each * s.pccs) as f64,
        s.pccs as u64,
    );

    let (lk, _, _, mu) = d.calls();
    m.set("fs.lookup_calls_per_op", ratio(lk, ops), ops);
    m.set("fs.mutation_calls_per_op", ratio(mu, ops), ops);
    let (a, b) = (&f.at, &f.start);
    let commits = a.journal.0 - b.journal.0;
    m.set(
        "fs.journal_commits_per_write",
        ratio(commits, writes),
        writes,
    );
    m.set(
        "fs.journal_blocks_per_commit",
        ratio(a.journal.1 - b.journal.1, commits),
        commits,
    );
    let checkpoints = a.journal.2 - b.journal.2;
    m.set("fs.journal_checkpoints", checkpoints as f64, checkpoints);

    let hits = a.disk.cache_hits - b.disk.cache_hits;
    let misses = a.disk.cache_misses - b.disk.cache_misses;
    m.set(
        "blockdev.page_hit_ratio",
        ratio(hits, hits + misses),
        hits + misses,
    );
    m.set(
        "blockdev.device_reads_per_op",
        ratio(a.disk.device_reads - b.disk.device_reads, ops),
        ops,
    );
    m.set(
        "blockdev.device_writes_per_op",
        ratio(a.disk.device_writes - b.disk.device_writes, ops),
        ops,
    );
    let writebacks = a.disk.writebacks - b.disk.writebacks;
    m.set("blockdev.writebacks", writebacks as f64, writebacks);
}

/// Simulated device time over the syscall time the tracer saw.
pub fn sim_io_share(t: &Tracer, sim_io_ns: u64) -> f64 {
    let vfs_total: u64 = Name::ALL
        .iter()
        .enumerate()
        .filter(|(_, n)| n.is_vfs())
        .map(|(i, _)| t.total_ns[i])
        .sum();
    ratio(sim_io_ns, vfs_total)
}
