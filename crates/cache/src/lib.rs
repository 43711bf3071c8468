//! # qls-cache
//!
//! Persistent fingerprint-keyed artifact cache: the layer that turns repeat
//! solver construction into a disk read.
//!
//! On the committed QSVT workload, `build_seconds` is ~80x `solve_seconds`:
//! phase-factor generation and circuit fusion dominate a solver's lifetime,
//! yet both are pure functions of their inputs.  This crate stores those
//! artifacts on disk, keyed by a collision-resistant content fingerprint of
//! the inputs, so every process after the first pays a read instead of a
//! quasi-Newton solve or an optimizer pass.
//!
//! ## Fingerprint scheme
//!
//! A cache key is a 128-bit [`Fingerprint`]: two independent fixed-key
//! SipHash-2-4 lanes over a typed, length-delimited encoding of the
//! artifact's *parent inputs* ([`FingerprintBuilder`]).  Per kind:
//!
//! * **QSVT phase factors** (`qsvt-phases`): the Chebyshev coefficient
//!   vector by `f64` bit pattern, plus every phase-finding option.  The
//!   coefficients already encode (κ, ε, degree), so the key identifies the
//!   mathematical problem, not the call site.
//! * **Fused circuits** (`fused-circuits`): register width, the full raw
//!   operation list (gate kind tags, angle/matrix bit patterns, targets,
//!   controls), every fusion option, and the [`machine_fingerprint`] —
//!   fused products carry the platform's `sin`/`cos` roundoff, so entries
//!   never migrate between unlike machines; on one machine a warm hit
//!   replays the cold run's fusion decisions exactly.
//!
//! ## Invalidation rules
//!
//! Entries are invalidated by *never being found*, not by deletion:
//!
//! * any input change changes the fingerprint → different file,
//! * each kind carries a format version in both the directory layout
//!   (`<kind>/v<N>/`) and the entry envelope (`"schema"`) — bumping it
//!   orphans old entries,
//! * every entry carries a SipHash-2-4 checksum of its payload bytes as
//!   written, checked against the bytes read before anything is parsed, so
//!   a flipped bit is a miss even where the edited payload would still
//!   decode,
//! * corrupt, truncated, non-UTF-8, over-nested (past the JSON parser's
//!   depth cap), wrong-schema, wrong-key, or wrong-checksum files load
//!   unsuccessfully and count as misses, and so does an entry the caller's
//!   check rejects — the cache **never errors**; worst case it regenerates,
//! * writers stage to a temp file and `rename(2)` into place, so concurrent
//!   writers race benignly (last atomic rename wins; readers see a complete
//!   entry or none).
//!
//! ## Location
//!
//! [`CacheStore::open`] resolves, in order: the thread-local
//! [`with_cache_dir`] override (tests), the `QLS_CACHE_DIR` environment
//! variable (empty disables caching), then `$XDG_CACHE_HOME/qls` or
//! `$HOME/.cache/qls`.  No resolvable directory → caching silently off.
//!
//! ## Observability
//!
//! [`cache_hit_count`] / [`cache_miss_count`] are thread-local counters in
//! the house style of `qls_sim::circuit_compile_count`: read them around a
//! region to assert "warm construction never regenerates" at any layer.

mod hash;

pub use hash::{machine_fingerprint, Fingerprint, FingerprintBuilder};

use hash::siphash24;

use std::cell::{Cell, RefCell};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Whether a constructor consults the persistent artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Consult and populate the cache (the default at the solver layers).
    #[default]
    Enabled,
    /// Never touch the cache — the escape hatch for benchmarking cold
    /// paths, bit-identity baselines, and air-gapped runs.
    Disabled,
}

thread_local! {
    static CACHE_HITS: Cell<usize> = const { Cell::new(0) };
    static CACHE_MISSES: Cell<usize> = const { Cell::new(0) };
    static CACHE_DIR_OVERRIDE: RefCell<Option<PathBuf>> = const { RefCell::new(None) };
}

/// Number of cache lookups by this thread that found an entry the caller
/// used.
pub fn cache_hit_count() -> usize {
    CACHE_HITS.with(|c| c.get())
}

/// Number of cache lookups by this thread that found nothing usable
/// (absent, corrupt, stale-version, unreadable, and caller-rejected entries
/// all count here).
pub fn cache_miss_count() -> usize {
    CACHE_MISSES.with(|c| c.get())
}

/// Run `f` with the cache rooted at `dir` on this thread, restoring the
/// previous root afterwards (panic-safe).  The test-isolation primitive:
/// suites point each test at its own temp directory instead of racing on
/// `QLS_CACHE_DIR` with `std::env::set_var`.
pub fn with_cache_dir<R>(dir: impl Into<PathBuf>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<PathBuf>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            CACHE_DIR_OVERRIDE.with(|o| *o.borrow_mut() = prev);
        }
    }
    let prev = CACHE_DIR_OVERRIDE.with(|o| o.borrow_mut().replace(dir.into()));
    let _restore = Restore(prev);
    f()
}

/// The directory [`CacheStore::open`] would use right now, if any.
pub(crate) fn resolve_cache_dir() -> Option<PathBuf> {
    if let Some(dir) = CACHE_DIR_OVERRIDE.with(|o| o.borrow().clone()) {
        return Some(dir);
    }
    if let Ok(dir) = std::env::var("QLS_CACHE_DIR") {
        if dir.is_empty() {
            return None; // explicit opt-out
        }
        return Some(PathBuf::from(dir));
    }
    if let Ok(xdg) = std::env::var("XDG_CACHE_HOME") {
        if !xdg.is_empty() {
            return Some(Path::new(&xdg).join("qls"));
        }
    }
    if let Ok(home) = std::env::var("HOME") {
        if !home.is_empty() {
            return Some(Path::new(&home).join(".cache").join("qls"));
        }
    }
    None
}

/// Monotonic suffix for staged temp files, so concurrent writers in one
/// process never collide on the staging name (cross-process uniqueness
/// comes from the pid component).
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fixed SipHash-2-4 key of the payload checksum.  Arbitrary but frozen:
/// changing it invalidates every existing entry.
const CHECKSUM_KEY: (u64, u64) = (0x716c732d63616368, 0x652d7061796c6f61); // "qls-cach","e-payloa"

/// The checksum of a payload's bytes, as it appears in the entry: 16
/// lower-case hex digits.
fn checksum_hex(payload: &str) -> String {
    format!(
        "{:016x}",
        siphash24(CHECKSUM_KEY.0, CHECKSUM_KEY.1, payload.as_bytes())
    )
}

/// What separates an entry's checksum from its payload.
const PAYLOAD_TAG: &str = "\",\"payload\":";

/// An on-disk artifact store: `root/<kind>/v<version>/<fingerprint>.json`.
///
/// An entry is one JSON object,
/// `{"schema":"qls-cache/<kind>/v<version>","key":"<fingerprint>",`
/// `"checksum":"<16 hex digits>","payload":<payload>}` with no whitespace,
/// its checksum taken over the payload's bytes.
///
/// Every operation is infallible from the caller's perspective: lookups
/// return `Option`, writes return a best-effort `bool`, and no IO problem
/// ever propagates as an error — a broken cache degrades to cold builds.
#[derive(Debug, Clone)]
pub struct CacheStore {
    root: PathBuf,
}

impl CacheStore {
    /// Open the store at the currently resolved cache directory (see the
    /// crate docs for the resolution order).  `None` means caching is
    /// unavailable/opted out — callers fall through to the cold path.
    pub fn open() -> Option<CacheStore> {
        resolve_cache_dir().map(|root| CacheStore { root })
    }

    /// Open a store rooted at an explicit directory.
    pub fn at(root: impl Into<PathBuf>) -> CacheStore {
        CacheStore { root: root.into() }
    }

    fn entry_path(&self, kind: &str, version: u32, key: Fingerprint) -> PathBuf {
        self.root
            .join(kind)
            .join(format!("v{version}"))
            .join(format!("{}.json", key.hex()))
    }

    /// Everything an entry holds before its checksum: the envelope's schema
    /// and key, which the reader compares byte for byte.
    fn head(kind: &str, version: u32, key: Fingerprint) -> String {
        format!(
            "{{\"schema\":\"qls-cache/{kind}/v{version}\",\"key\":\"{}\",\"checksum\":\"",
            key.hex()
        )
    }

    /// Look up an entry.  Absent, corrupt, wrong-schema, wrong-key, or
    /// wrong-checksum files are all misses, and so is an entry that decodes
    /// into a `T` that `accept` rejects; only an entry the caller uses is a
    /// hit.  Ticks [`cache_hit_count`] / [`cache_miss_count`].
    pub fn load<T: serde::DeserializeOwned>(
        &self,
        kind: &str,
        version: u32,
        key: Fingerprint,
        accept: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let loaded = self.read_entry(kind, version, key).filter(accept);
        match loaded {
            Some(_) => CACHE_HITS.with(|c| c.set(c.get() + 1)),
            None => CACHE_MISSES.with(|c| c.set(c.get() + 1)),
        }
        loaded
    }

    /// The lookup behind [`CacheStore::load`], before the counters tick.
    fn read_entry<T: serde::DeserializeOwned>(
        &self,
        kind: &str,
        version: u32,
        key: Fingerprint,
    ) -> Option<T> {
        let text = fs::read_to_string(self.entry_path(kind, version, key)).ok()?;
        let (checksum, rest) = text
            .strip_prefix(&Self::head(kind, version, key))?
            .split_at_checked(16)?;
        let payload = rest.strip_prefix(PAYLOAD_TAG)?.strip_suffix('}')?;
        if checksum != checksum_hex(payload) {
            return None;
        }
        serde::from_json_str(payload).ok()
    }

    /// Write an entry: serialize, checksum the payload's bytes, stage to a
    /// temp file in the final directory, `rename(2)` into place.  Returns
    /// `false` (never errors) when any step fails — the artifact is simply
    /// not cached.
    pub fn store<T: serde::Serialize + ?Sized>(
        &self,
        kind: &str,
        version: u32,
        key: Fingerprint,
        value: &T,
    ) -> bool {
        let path = self.entry_path(kind, version, key);
        let Some(dir) = path.parent() else {
            return false;
        };
        if fs::create_dir_all(dir).is_err() {
            return false;
        }
        let payload = serde::to_json_string(value);
        let text = format!(
            "{}{}{PAYLOAD_TAG}{payload}}}",
            Self::head(kind, version, key),
            checksum_hex(&payload)
        );
        let staged = dir.join(format!(
            ".{}.{}.{}.tmp",
            key.hex(),
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&staged, text).is_err() {
            let _ = fs::remove_file(&staged);
            return false;
        }
        if fs::rename(&staged, &path).is_err() {
            let _ = fs::remove_file(&staged);
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qls-cache-unit-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Artifact {
        label: String,
        values: Vec<f64>,
    }

    fn sample() -> (Fingerprint, Artifact) {
        let art = Artifact {
            label: "phases".to_string(),
            values: vec![0.1, -2.5, std::f64::consts::PI],
        };
        let key = FingerprintBuilder::new("unit-test")
            .write_f64_slice(&art.values)
            .finish();
        (key, art)
    }

    #[test]
    fn store_then_load_roundtrips() {
        let root = temp_root("roundtrip");
        let store = CacheStore::at(&root);
        let (key, art) = sample();
        assert_eq!(store.load::<Artifact>("k", 1, key, |_| true), None);
        assert!(store.store("k", 1, key, &art));
        assert_eq!(store.load::<Artifact>("k", 1, key, |_| true), Some(art));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn hit_and_miss_counters_tick() {
        let root = temp_root("counters");
        let store = CacheStore::at(&root);
        let (key, art) = sample();
        let (h0, m0) = (cache_hit_count(), cache_miss_count());
        assert!(store.load::<Artifact>("k", 1, key, |_| true).is_none());
        assert_eq!(cache_miss_count(), m0 + 1);
        store.store("k", 1, key, &art);
        assert!(store.load::<Artifact>("k", 1, key, |_| true).is_some());
        assert_eq!(cache_hit_count(), h0 + 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn version_bump_is_a_miss() {
        let root = temp_root("version");
        let store = CacheStore::at(&root);
        let (key, art) = sample();
        store.store("k", 1, key, &art);
        assert_eq!(store.load::<Artifact>("k", 2, key, |_| true), None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_are_misses_not_errors() {
        let root = temp_root("corrupt");
        let store = CacheStore::at(&root);
        let (key, art) = sample();
        store.store("k", 1, key, &art);
        let path = store.entry_path("k", 1, key);
        for bad in [
            "",                                                                   // truncated to nothing
            "{\"schema\":\"qls-cache/k/v1\"", // cut mid-document
            "not json at all",                // garbage
            "{\"schema\":\"qls-cache/other/v1\",\"key\":\"x\",\"payload\":null}", // wrong schema
            "{\"schema\":\"qls-cache/k/v1\",\"key\":\"0\",\"payload\":null}", // wrong key
        ] {
            fs::write(&path, bad).unwrap();
            assert_eq!(
                store.load::<Artifact>("k", 1, key, |_| true),
                None,
                "{bad:?}"
            );
        }
        // Under an intact envelope and checksum, a wrong-shape payload and
        // one nested past the parser's depth cap are misses too.
        for payload in ["{\"label\":3}".to_string(), "[".repeat(1_000_000)] {
            let entry = format!(
                "{}{}{PAYLOAD_TAG}{payload}}}",
                CacheStore::head("k", 1, key),
                checksum_hex(&payload)
            );
            fs::write(&path, entry).unwrap();
            assert_eq!(store.load::<Artifact>("k", 1, key, |_| true), None);
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_edited_payload_that_still_decodes_is_a_miss() {
        let root = temp_root("checksum");
        let store = CacheStore::at(&root);
        let (key, art) = sample();
        store.store("k", 1, key, &art);
        let path = store.entry_path("k", 1, key);
        let text = fs::read_to_string(&path).unwrap();
        let edited = text.replace("\"phases\"", "\"phasez\"");
        assert_ne!(edited, text);
        fs::write(&path, &edited).unwrap();
        let m0 = cache_miss_count();
        assert_eq!(store.load::<Artifact>("k", 1, key, |_| true), None);
        assert_eq!(cache_miss_count(), m0 + 1);
        // The same edit with its checksum restored decodes: only the
        // checksum told the two apart.
        let payload =
            &edited[edited.find(PAYLOAD_TAG).unwrap() + PAYLOAD_TAG.len()..edited.len() - 1];
        let resummed = format!(
            "{}{}{PAYLOAD_TAG}{payload}}}",
            CacheStore::head("k", 1, key),
            checksum_hex(payload)
        );
        fs::write(&path, resummed).unwrap();
        let replayed = store.load::<Artifact>("k", 1, key, |_| true).unwrap();
        assert_eq!(replayed.label, "phasez");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn an_entry_the_caller_rejects_is_a_miss() {
        let root = temp_root("rejected");
        let store = CacheStore::at(&root);
        let (key, art) = sample();
        store.store("k", 1, key, &art);
        let (h0, m0) = (cache_hit_count(), cache_miss_count());
        assert_eq!(
            store.load::<Artifact>("k", 1, key, |a| a.values.len() == 2),
            None
        );
        assert_eq!((cache_hit_count(), cache_miss_count()), (h0, m0 + 1));
        assert_eq!(
            store.load::<Artifact>("k", 1, key, |a| a.values.len() == 3),
            Some(art)
        );
        assert_eq!((cache_hit_count(), cache_miss_count()), (h0 + 1, m0 + 1));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn with_cache_dir_overrides_and_restores() {
        let root_a = temp_root("override-a");
        let root_b = temp_root("override-b");
        let (key, art) = sample();
        with_cache_dir(&root_a, || {
            let store = CacheStore::open().unwrap();
            assert_eq!(store.root, root_a);
            store.store("k", 1, key, &art);
            // Nested override wins, then restores.
            with_cache_dir(&root_b, || {
                let inner = CacheStore::open().unwrap();
                assert_eq!(inner.root, root_b);
                assert_eq!(inner.load::<Artifact>("k", 1, key, |_| true), None);
            });
            assert_eq!(CacheStore::open().unwrap().root, root_a);
        });
        let _ = fs::remove_dir_all(&root_a);
        let _ = fs::remove_dir_all(&root_b);
    }

    #[test]
    fn qls_cache_dir_env_isolates_and_empty_disables() {
        // All env-var assertions live in this one test: `set_var` is
        // process-global, and every other test in this binary goes through
        // the thread-local override or an explicit root, so nothing races.
        let root = temp_root("env");
        std::env::set_var("QLS_CACHE_DIR", &root);
        assert_eq!(resolve_cache_dir().as_deref(), Some(root.as_path()));
        let (key, art) = sample();
        let store = CacheStore::open().expect("env-pointed store");
        assert_eq!(store.root, root);
        assert!(store.store("k", 1, key, &art));
        assert!(store.entry_path("k", 1, key).starts_with(&root));
        assert_eq!(store.load::<Artifact>("k", 1, key, |_| true), Some(art));
        // The thread-local override still beats the environment.
        let other = temp_root("env-override");
        with_cache_dir(&other, || {
            assert_eq!(resolve_cache_dir().as_deref(), Some(other.as_path()));
        });
        // An empty value is the documented opt-out: caching silently off.
        std::env::set_var("QLS_CACHE_DIR", "");
        assert_eq!(resolve_cache_dir(), None);
        assert!(CacheStore::open().is_none());
        std::env::remove_var("QLS_CACHE_DIR");
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&other);
    }

    #[test]
    fn concurrent_writers_leave_one_complete_entry() {
        let root = temp_root("concurrent");
        let (key, _) = sample();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let root = root.clone();
                std::thread::spawn(move || {
                    let store = CacheStore::at(&root);
                    let art = Artifact {
                        label: format!("writer-{i}"),
                        values: vec![i as f64; 64],
                    };
                    for _ in 0..50 {
                        assert!(store.store("k", 1, key, &art));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let root = root.clone();
                std::thread::spawn(move || {
                    let store = CacheStore::at(&root);
                    for _ in 0..100 {
                        // Readers may miss (before the first rename) but must
                        // never observe a torn entry: a hit is a complete,
                        // self-consistent artifact from exactly one writer.
                        if let Some(a) = store.load::<Artifact>("k", 1, key, |_| true) {
                            let i: f64 = a.label.strip_prefix("writer-").unwrap().parse().unwrap();
                            assert_eq!(a.values, vec![i; 64]);
                        }
                    }
                })
            })
            .collect();
        for t in threads.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let _ = fs::remove_dir_all(&root);
    }
}
