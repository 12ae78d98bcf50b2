//! The scope of the workspace's source rules, which CI's Clippy step
//! enforces.
//!
//! Reports are compared byte for byte (`tests/golden_reports.rs`), so no
//! code may iterate a `HashMap` (`clippy.toml` lists it under
//! `disallowed-types`), and library code may not `unwrap` or `expect` (each
//! library crate root denies `clippy::unwrap_used` and
//! `clippy::expect_used`).  The deny is an attribute of each crate, so a new
//! crate would escape it silently; these tests make it fail instead.

use std::fs;
use std::path::{Path, PathBuf};

const DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used)]";

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `crates/*/src/lib.rs` but the vendored stand-in for the external
/// `proptest` crate, sorted.
fn library_roots() -> Vec<PathBuf> {
    let crates = workspace_root().join("crates");
    let mut roots: Vec<PathBuf> = fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ lists").path())
        .filter(|dir| !dir.ends_with("proptest-shim"))
        .map(|dir| dir.join("src").join("lib.rs"))
        .filter(|root| root.is_file())
        .collect();
    roots.sort();
    roots
}

#[test]
fn every_library_crate_root_denies_unwrap_and_expect() {
    let roots = library_roots();
    assert!(!roots.is_empty(), "no crate roots under crates/");
    let missing: Vec<&PathBuf> = roots
        .iter()
        .filter(|root| {
            let source = fs::read_to_string(root).expect("crate root is readable");
            !source.lines().any(|line| line.trim() == DENY)
        })
        .collect();
    assert!(missing.is_empty(), "{missing:?} lack `{DENY}`");
}

#[test]
fn clippy_toml_disallows_std_hashmap() {
    let config =
        fs::read_to_string(workspace_root().join("clippy.toml")).expect("clippy.toml is readable");
    let disallowed: Vec<&str> = config
        .lines()
        .skip_while(|line| !line.starts_with("disallowed-types"))
        .take_while(|line| line.trim() != "]")
        .collect();
    assert!(
        disallowed
            .iter()
            .any(|line| line.contains(r#"path = "std::collections::HashMap""#)),
        "clippy.toml's disallowed-types does not list std::collections::HashMap: {disallowed:?}"
    );
}
