//! Hermetic cache directories.
//!
//! Every run builds its solvers in empty cache directories of its own under
//! `perfbench/scratch/` and removes them when it ends.  A shared cache
//! (`~/.cache/qls`) would let one run warm another run's "cold" set-up, and
//! a stale calibration table from another build would change the fused
//! circuit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A run's scratch directory, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: AtomicUsize,
}

impl Scratch {
    /// Create `perfbench/scratch/run-<pid>-<tag>`.
    pub fn create(tag: &str) -> std::io::Result<Scratch> {
        let root = Self::area().join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// The benchmark's scratch area, inside the benchmark's own directory.
    fn area() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch")
    }

    /// The run's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A new, empty directory under the run's root.
    pub fn fresh_dir(&self, label: &str) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).expect("create scratch cache directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leaves the area itself only when no other run is using it.
        let _ = std::fs::remove_dir(Self::area());
    }
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&entry.path()),
            Ok(t) if t.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}
