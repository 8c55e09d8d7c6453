//! The `stat` every workload issues, and the traced run's view of it:
//! the fastpath's three stages timed on their own, and whether the
//! fastpath answered.

use crate::env::reduced_components;
use crate::phase::{self, Class, Rec};
use crate::trace::{self, Name};
use dc_fs::{FsResult, InodeAttr};
use dc_vfs::{Kernel, Process};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// `stat(path)`, timed as a read. Traced, it runs in a span, the three
/// stages are probed after it, and on a fastpath hit its self time
/// minus the stages goes to `rec.envelope`.
pub fn stat(
    k: &Kernel,
    p: &Process,
    path: &str,
    rec: &mut Rec,
    traced: bool,
) -> FsResult<InodeAttr> {
    rec.path_calls += 1;
    if !traced {
        return phase::op(rec, Class::Read, Name::VfsStat, || k.stat(p, path));
    }
    let hits = &k.dcache.stats.fast_hits;
    let before = hits.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let (r, times) = trace::span_times(Name::VfsStat, || k.stat(p, path));
    rec.reads.record(phase::ns_since(t0));
    let fast = hits.load(Ordering::Relaxed) > before;
    let stages = stages(k, p, path);
    if fast {
        rec.envelope.record(times.self_ns.saturating_sub(stages));
    }
    r
}

/// Times, for `path`, the stages a fastpath hit runs: hashing the
/// reduced components (`HashKey::hash_components`), the DLHT probe
/// (`Dcache::dlht_lookup`) and, when the probe finds a dentry, the PCC
/// check (`Pcc::check` through `Dcache::pcc_ref`). Returns their sum.
fn stages(k: &Kernel, p: &Process, path: &str) -> u64 {
    let comps = reduced_components(path);
    let dcache = &k.dcache;
    let (sig, hash) = trace::span_times(Name::SigHash, || {
        dcache
            .key
            .hash_components(comps.iter().map(|c| c.as_bytes()))
    });
    let ns = p.namespace();
    let (dentry, probe) = trace::span_times(Name::DlhtProbe, || dcache.dlht_lookup(ns.id, &sig));
    let mut total = hash.dur + probe.dur;
    if let Some(d) = dentry {
        let cred = p.cred();
        let guard = crossbeam_epoch::pin();
        let (_, pcc) = trace::span_times(Name::PccCheck, || {
            dcache
                .pcc_ref(&cred, ns.id, &guard)
                .map(|pcc| pcc.check(d.id(), d.seq()))
        });
        total += pcc.dur;
    }
    total
}
