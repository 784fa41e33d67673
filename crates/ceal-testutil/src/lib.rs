//! Test-support utilities shared across the workspace; a dev-dependency
//! only, so nothing here reaches a shipped build.
//!
//! [`unique_temp_path`] gives collision-free temporary paths for save/load
//! round-trip tests. Cargo runs test binaries concurrently (and a test can
//! rerun within one binary), so a fixed path under
//! [`std::env::temp_dir`] races between writers. Paths from
//! [`unique_temp_path`] embed the process id *and* a process-global
//! counter, so every call yields a distinct path.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Returns `temp_dir()/{prefix}-{pid}-{n}[.ext]`, where `n` increments on
/// every call within the process.
///
/// Pass an empty `ext` for no extension (e.g. a scratch directory the
/// caller will create). The path is not created; callers write to it and
/// should remove it when done.
pub fn unique_temp_path(prefix: &str, ext: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = if ext.is_empty() {
        format!("{prefix}-{pid}-{n}")
    } else {
        format!("{prefix}-{pid}-{n}.{ext}")
    };
    std::env::temp_dir().join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successive_calls_differ() {
        let a = unique_temp_path("ceal-testutil", "json");
        let b = unique_temp_path("ceal-testutil", "json");
        assert_ne!(a, b);
    }

    #[test]
    fn embeds_prefix_pid_and_extension() {
        let p = unique_temp_path("ceal-testutil-x", "json");
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(name.starts_with("ceal-testutil-x-"));
        assert!(name.contains(&std::process::id().to_string()));
        assert!(name.ends_with(".json"));
        assert!(p.starts_with(std::env::temp_dir()));
    }

    #[test]
    fn empty_extension_adds_no_dot() {
        let p = unique_temp_path("ceal-testutil-dir", "");
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(!name.contains('.'));
    }
}
