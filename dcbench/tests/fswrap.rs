//! The file-system wrapper is transparent: a kernel over it answers
//! exactly like one over bare memfs, and the kernel's reach into memfs
//! (cache drops, journal and disk statistics) still works through it.

use dc_fs::FileSystem;
use dc_vfs::OpenFlags;
use dcbench::env::{DiskSpec, Env};

/// A mixed script of syscalls, each answer rendered as text.
fn script(env: &Env) -> Vec<String> {
    let (k, p) = (&env.kernel, &env.root);
    let mut out = Vec::new();
    let mut note = |what: &str, r: String| out.push(format!("{what}: {r}"));
    note("mkdir", format!("{:?}", k.mkdir(p, "/a", 0o755)));
    note("mkdir", format!("{:?}", k.mkdir(p, "/a/b", 0o755)));
    for i in 0..20 {
        let path = format!("/a/b/f{i}");
        let fd = k.open(p, &path, OpenFlags::create(), 0o644);
        note("create", format!("{fd:?}"));
        if let Ok(fd) = fd {
            note("write", format!("{:?}", k.write_fd(p, fd, b"data")));
            note("close", format!("{:?}", k.close(p, fd)));
        }
    }
    note("rename", format!("{:?}", k.rename(p, "/a/b/f3", "/a/g3")));
    note("unlink", format!("{:?}", k.unlink(p, "/a/b/f4")));
    note("symlink", format!("{:?}", k.symlink(p, "/a/b", "/l")));
    note("chmod", format!("{:?}", k.chmod(p, "/a/b", 0o700)));
    for path in [
        "/a/b/f1",
        "/a/g3",
        "/a/b/f4",
        "/l/f5",
        "/a/b/../b/f6",
        "/nope",
    ] {
        note(path, format!("{:?}", k.stat(p, path)));
    }
    let mut listing = k.list_dir(p, "/a/b").expect("list");
    listing.sort_by(|x, y| x.name.cmp(&y.name));
    note("list", format!("{listing:?}"));
    k.drop_caches();
    for path in ["/a/b/f7", "/a/g3", "/l/f8"] {
        note(path, format!("{:?}", k.stat(p, path)));
    }
    out
}

#[test]
fn wrapped_kernel_answers_like_bare_memfs() {
    let bare = Env::new(7, None, DiskSpec::FREE, false);
    let wrapped = Env::new(7, None, DiskSpec::FREE, true);
    assert!(bare.wrapper.is_none() && wrapped.wrapper.is_some());
    assert_eq!(script(&bare), script(&wrapped));
    // Every call the wrapper passed down is one memfs counted.
    let w = wrapped.wrapper.as_ref().expect("wrapper");
    let memfs: &dyn FileSystem = wrapped.memfs.as_ref();
    assert_eq!(w.calls.snapshot(), memfs.stats().snapshot());
    assert!(w.calls.snapshot().3 > 20, "mutations reached the wrapper");
}

#[test]
fn kernel_reaches_memfs_through_the_wrapper() {
    let env = Env::new(3, None, DiskSpec::FREE, true);
    script(&env);
    let (k, p) = (&env.kernel, &env.root);

    // drop_caches empties memfs's page cache, so the next lookups go
    // through the wrapper down to the device.
    k.drop_caches();
    assert_eq!(env.memfs.disk().stats().resident_pages, 0);
    let w = env.wrapper.as_ref().expect("wrapper");
    let before = w.calls.snapshot().0;
    k.stat(p, "/a/b/f9").expect("stat after the drop");
    assert!(w.calls.snapshot().0 > before, "the cold stat reached memfs");
    assert!(env.memfs.disk().stats().device_reads > 0);

    // reset_stats reaches the journal and disk statistics.
    assert!(env.memfs.journal_stats().expect("journal on").commits > 0);
    k.reset_stats();
    assert_eq!(env.memfs.journal_stats().expect("journal on").commits, 0);
    assert_eq!(env.memfs.disk().stats().device_reads, 0);
    let memfs: &dyn FileSystem = env.memfs.as_ref();
    assert_eq!(memfs.stats().snapshot(), (0, 0, 0, 0));
}
