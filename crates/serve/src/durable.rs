//! Digest-sealed durable JSON files with quarantine-on-corruption.
//!
//! Every durable artifact of the service (result-cache entries, engine
//! checkpoints) is stored as a *sealed* envelope:
//!
//! ```text
//! { "digest": "<16-hex FNV-1a of the body's canonical pretty form>",
//!   "body":   { ...artifact... } }
//! ```
//!
//! [`seal`] renders the body once and writes that very text after its
//! digest; [`load_sealed`] renders the parsed body again to verify it, so
//! how the body is laid out in the file does not matter.
//!
//! Writes go through [`lad_common::fs::atomic_write`] (temp file, then
//! `fsync`, rename, directory `fsync`), so a crash can only ever leave the old
//! bytes, the new bytes, or — if the storage layer itself misbehaves — a
//! torn file that the digest check catches on load.  [`load_sealed`] never
//! lets a corrupt file brick a boot or poison a result: anything that
//! fails to parse or verify is renamed to `<file>.quarantine` (preserved
//! for post-mortem, invisible to future loads) and reported as
//! [`LoadOutcome::Quarantined`], and the caller simply recomputes.

use std::path::{Path, PathBuf};

use lad_common::fault::{FaultInjector, FaultSite};
use lad_common::json::JsonValue;

use crate::protocol::{fingerprint, fingerprint_hex};

/// Renders `body` in the sealed envelope: its canonical pretty form,
/// rendered once, hashed for the digest and placed verbatim after it.
pub fn seal(body: &JsonValue) -> String {
    let text = body.pretty();
    let digest = fingerprint_hex(fingerprint(&text));
    // `concat` allocates the envelope once, at its exact length.
    [
        "{\n  \"digest\": \"",
        digest.as_str(),
        "\",\n  \"body\": ",
        text.trim_end(),
        "\n}\n",
    ]
    .concat()
}

/// Durably writes `body` to `path` as a sealed envelope, consulting
/// `injector` at `site` (see
/// [`atomic_write_faulty`](lad_common::fs::atomic_write_faulty) for the
/// injected failure modes).
///
/// # Errors
///
/// The underlying (or injected) I/O error.
pub fn write_sealed(
    path: &Path,
    body: JsonValue,
    injector: &FaultInjector,
    site: FaultSite,
) -> std::io::Result<()> {
    lad_common::fs::atomic_write_faulty(path, seal(&body).as_bytes(), injector, site)
}

/// The result of loading a sealed file.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The file verified; here is its body.
    Loaded(JsonValue),
    /// No file at that path.
    Missing,
    /// The file existed but failed to parse or verify; it has been renamed
    /// to the returned `.quarantine` path (best effort — the path is the
    /// intended destination even if the rename itself failed).
    Quarantined(PathBuf),
}

/// Loads and digest-verifies a sealed file.
///
/// A file that is unreadable, unparseable, missing its envelope fields, or
/// whose body does not hash to its recorded digest (one flipped byte is
/// enough) is moved aside to `<path>.quarantine` and reported as
/// [`LoadOutcome::Quarantined`] — never an error, never a wrong body.
pub fn load_sealed(path: &Path) -> LoadOutcome {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return LoadOutcome::Missing,
        Err(_) => return quarantine(path),
    };
    let Ok(JsonValue::Object(mut fields)) = JsonValue::parse(&text) else {
        return quarantine(path);
    };
    // The first field of each name, as `JsonValue::get` finds it.
    let field = |name: &str| fields.iter().position(|(key, _)| key == name);
    let (Some(digest), Some(body)) = (field("digest"), field("body")) else {
        return quarantine(path);
    };
    let sealed = fingerprint_hex(fingerprint(&fields[body].1.pretty()));
    if fields[digest].1.as_str() != Some(sealed.as_str()) {
        return quarantine(path);
    }
    // The envelope is ours: move the verified body out instead of copying it.
    LoadOutcome::Loaded(fields.swap_remove(body).1)
}

/// Moves a corrupt file aside to `<path>.quarantine` (overwriting an older
/// quarantined copy of the same file) and returns the quarantine path.
/// Best effort: the rename's failure is not propagated — the caller is
/// already on a recovery path.
pub fn quarantine_file(path: &Path) -> PathBuf {
    let target = quarantine_path(path);
    let _ = std::fs::rename(path, &target);
    target
}

fn quarantine(path: &Path) -> LoadOutcome {
    LoadOutcome::Quarantined(quarantine_file(path))
}

/// The quarantine destination of a durable file: its path with
/// `.quarantine` appended (`entry.json` → `entry.json.quarantine`).
pub fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantine");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("lad-serve-durable-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn body() -> JsonValue {
        JsonValue::object([
            ("kind", JsonValue::from("test")),
            ("value", JsonValue::from(42u64)),
        ])
    }

    #[test]
    fn sealed_round_trip_verifies() {
        let dir = TempDir::new("roundtrip");
        let path = dir.0.join("entry.json");
        write_sealed(
            &path,
            body(),
            &FaultInjector::disarmed(),
            FaultSite::CacheSpill,
        )
        .unwrap();
        match load_sealed(&path) {
            LoadOutcome::Loaded(loaded) => assert_eq!(loaded, body()),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn envelopes_rendered_whole_still_verify() {
        // Files written before `seal` rendered the body once carry it
        // re-indented inside a whole-envelope rendering.  Both layouts parse
        // to the same envelope, and the digest covers the body's canonical
        // form, so such a file still loads.
        let dir = TempDir::new("layout");
        let path = dir.0.join("entry.json");
        let digest = fingerprint_hex(fingerprint(&body().pretty()));
        let whole = JsonValue::object([("digest", JsonValue::from(digest)), ("body", body())]);
        assert_eq!(JsonValue::parse(&seal(&body())).unwrap(), whole);
        std::fs::write(&path, whole.pretty()).unwrap();
        match load_sealed(&path) {
            LoadOutcome::Loaded(loaded) => assert_eq!(loaded, body()),
            other => panic!("expected Loaded, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_missing_not_quarantined() {
        let dir = TempDir::new("missing");
        assert!(matches!(
            load_sealed(&dir.0.join("nope.json")),
            LoadOutcome::Missing
        ));
    }

    #[test]
    fn every_single_byte_flip_is_caught_and_quarantined() {
        let dir = TempDir::new("byteflip");
        let path = dir.0.join("entry.json");
        write_sealed(
            &path,
            body(),
            &FaultInjector::disarmed(),
            FaultSite::CacheSpill,
        )
        .unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip one byte at a few positions spanning envelope and body.
        for position in [0, good.len() / 3, good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[position] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            match load_sealed(&path) {
                LoadOutcome::Quarantined(target) => {
                    assert!(target.to_string_lossy().ends_with(".quarantine"));
                    assert!(target.is_file(), "corrupt bytes preserved for post-mortem");
                    assert!(!path.exists(), "corrupt file moved out of the way");
                }
                other => panic!("flip at {position} not caught: {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_and_legacy_files_are_quarantined() {
        let dir = TempDir::new("torn");
        let path = dir.0.join("entry.json");
        write_sealed(
            &path,
            body(),
            &FaultInjector::disarmed(),
            FaultSite::CacheSpill,
        )
        .unwrap();
        let good = std::fs::read(&path).unwrap();
        // A torn prefix (what a mid-write crash leaves).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(load_sealed(&path), LoadOutcome::Quarantined(_)));
        // A legacy unsealed file (valid JSON, no envelope).
        std::fs::write(&path, body().pretty()).unwrap();
        assert!(matches!(load_sealed(&path), LoadOutcome::Quarantined(_)));
        // After quarantine the slot reads as missing and can be rewritten.
        assert!(matches!(load_sealed(&path), LoadOutcome::Missing));
        write_sealed(
            &path,
            body(),
            &FaultInjector::disarmed(),
            FaultSite::CacheSpill,
        )
        .unwrap();
        assert!(matches!(load_sealed(&path), LoadOutcome::Loaded(_)));
    }
}
