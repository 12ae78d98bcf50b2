//! The one name of an LLC management scheme (Section 3.3).
//!
//! A scheme of the paper's evaluation is a family plus at most one number:
//! the locality-aware protocol runs at a replication threshold RT, and ASR
//! at a replication level.  [`SchemeId`] is exactly that, so it is the only
//! name a scheme has: the report and matrix key, the report label, the
//! [`ReplicationConfig`](crate::config::ReplicationConfig) field the engine
//! reads RT from, and the key
//! [`builtin_policy`](crate::policy::builtin_policy) builds a policy from.
//! [`SchemeId::BUILTIN`] lists the paper's sweep once.

use std::fmt;

/// A typed identifier for one experiment configuration of the benchmark ×
/// scheme matrix.
///
/// A `SchemeId` names one *column of a figure*: `Rt(3)` and `Rt(8)` are
/// distinct ids of the same family, the ASR sweep runs as `AsrAt(level)`
/// entries that the comparison collapses into the single [`SchemeId::Asr`]
/// column, and out-of-crate policies registered with a
/// [`SchemeRegistry`](crate::policy::SchemeRegistry) use
/// [`SchemeId::Custom`].  Experiment results are keyed by `SchemeId` instead
/// of bare label strings, so a typo'd lookup is a compile error or a typed
/// [`UnknownScheme`] — never a silent `NaN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchemeId {
    /// The Static-NUCA baseline (`S-NUCA`).
    StaticNuca,
    /// The Reactive-NUCA baseline (`R-NUCA`).
    ReactiveNuca,
    /// The Victim Replication baseline (`VR`).
    VictimReplication,
    /// ASR collapsed to its best per-benchmark replication level (`ASR`) —
    /// the paper's methodology for Figures 6–8.  This id exists only as a
    /// comparison column; individual runs use [`SchemeId::AsrAt`].
    Asr,
    /// ASR at a fixed replication level, stored in hundredths
    /// (`AsrAt(50)` is level 0.50, labelled `ASR-0.50`).
    AsrAt(u8),
    /// The locality-aware protocol at replication threshold `RT`
    /// (`Rt(3)` is the paper's headline `RT-3`).
    Rt(u32),
    /// An out-of-crate scheme registered by name.
    ///
    /// Names matching a built-in label (`S-NUCA`, `VR`, `ASR`, `ASR-x.xx`,
    /// `RT-k`, ...) are reserved: [`SchemeId::parse`] maps such labels back
    /// to the built-in variant, so a `Custom` id using one would change
    /// identity across a JSON round trip.
    Custom(&'static str),
}

impl SchemeId {
    /// Every built-in scheme the paper's sweep runs, in the order experiment
    /// matrices queue them: the three baselines, the locality-aware protocol
    /// at RT 1, 3 and 8, then ASR at each of its five replication levels.
    pub const BUILTIN: [SchemeId; 11] = [
        SchemeId::StaticNuca,
        SchemeId::ReactiveNuca,
        SchemeId::VictimReplication,
        SchemeId::Rt(1),
        SchemeId::Rt(3),
        SchemeId::Rt(8),
        SchemeId::AsrAt(0),
        SchemeId::AsrAt(25),
        SchemeId::AsrAt(50),
        SchemeId::AsrAt(75),
        SchemeId::AsrAt(100),
    ];

    /// The short label used in reports and figure axes
    /// (`S-NUCA`, `ASR-0.50`, `RT-3`, ...).
    pub fn label(self) -> String {
        self.to_string()
    }

    /// The [`SchemeId::AsrAt`] id for a replication level in `[0, 1]` —
    /// the single place the level-to-hundredths convention lives.
    pub fn asr_at_level(level: f64) -> SchemeId {
        SchemeId::AsrAt((level.clamp(0.0, 1.0) * 100.0).round() as u8)
    }

    /// Parses a label back into a `SchemeId`.
    ///
    /// Labels produced by [`SchemeId::label`] for the built-in schemes parse
    /// back exactly.  Any other label becomes [`SchemeId::Custom`], backed
    /// by a process-wide intern table (each distinct name is leaked once to
    /// obtain the `&'static str`), so memory stays bounded by the number of
    /// distinct custom names — still, this is meant for configuration/CLI/
    /// report parsing, not for hot loops.
    pub fn parse(label: &str) -> SchemeId {
        match label {
            "S-NUCA" => return SchemeId::StaticNuca,
            "R-NUCA" => return SchemeId::ReactiveNuca,
            "VR" => return SchemeId::VictimReplication,
            "ASR" => return SchemeId::Asr,
            _ => {}
        }
        if let Some(rest) = label.strip_prefix("RT-") {
            if let Ok(rt) = rest.parse::<u32>() {
                return SchemeId::Rt(rt);
            }
        }
        if let Some(rest) = label.strip_prefix("ASR-") {
            if let Ok(level) = rest.parse::<f64>() {
                if (0.0..=1.0).contains(&level) {
                    return SchemeId::asr_at_level(level);
                }
            }
        }
        SchemeId::Custom(intern_label(label))
    }
}

/// Process-wide intern table for custom scheme names parsed from labels:
/// each distinct name is leaked exactly once, so repeated parsing (e.g. of
/// large JSON reports) does not grow memory per call.
fn intern_label(label: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock, PoisonError};

    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    // A poisoned table is still structurally sound (inserts are atomic
    // Box::leak + BTreeSet insert), so interning proceeds.
    let mut table = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match table.get(label) {
        Some(existing) => existing,
        None => {
            let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
            table.insert(leaked);
            leaked
        }
    }
}

impl fmt::Display for SchemeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeId::StaticNuca => f.write_str("S-NUCA"),
            SchemeId::ReactiveNuca => f.write_str("R-NUCA"),
            SchemeId::VictimReplication => f.write_str("VR"),
            SchemeId::Asr => f.write_str("ASR"),
            SchemeId::AsrAt(level) => write!(f, "ASR-{:.2}", f64::from(*level) / 100.0),
            SchemeId::Rt(rt) => write!(f, "RT-{rt}"),
            SchemeId::Custom(name) => f.write_str(name),
        }
    }
}

/// A lookup named a scheme that the registry / comparison does not contain.
///
/// Returned instead of silently producing `None` or `NaN`, so experiment
/// code fails loudly on a missing baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScheme {
    /// The scheme that was looked up.
    pub scheme: SchemeId,
    /// Where the lookup failed (a benchmark label, `"registry"`, ...).
    pub context: String,
}

impl UnknownScheme {
    /// Creates the error for a lookup of `scheme` in `context`.
    pub fn new(scheme: SchemeId, context: impl Into<String>) -> Self {
        UnknownScheme {
            scheme,
            context: context.into(),
        }
    }
}

impl fmt::Display for UnknownScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scheme {} ({})", self.scheme, self.context)
    }
}

impl std::error::Error for UnknownScheme {}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::placement::PlacementPolicy;
    use crate::policy::{builtin_policy, ReplicationPolicy};

    fn builtin(id: SchemeId) -> Arc<dyn ReplicationPolicy> {
        builtin_policy(id).unwrap_or_else(|| panic!("{id} has a built-in policy"))
    }

    #[test]
    fn labels_match_paper_axes() {
        let labels: Vec<String> = SchemeId::BUILTIN.iter().map(|id| id.label()).collect();
        assert_eq!(
            labels,
            [
                "S-NUCA", "R-NUCA", "VR", "RT-1", "RT-3", "RT-8", "ASR-0.00", "ASR-0.25",
                "ASR-0.50", "ASR-0.75", "ASR-1.00",
            ]
        );
    }

    #[test]
    fn placement_policies() {
        // VR and ASR are modelled on Static-NUCA placement; R-NUCA clusters
        // instructions per 4 cores; the locality-aware protocol keeps
        // R-NUCA's data placement and replicates through its classifier.
        for id in SchemeId::BUILTIN {
            let expected = match id {
                SchemeId::ReactiveNuca => PlacementPolicy::Rnuca {
                    instruction_cluster: 4,
                },
                SchemeId::Rt(_) => PlacementPolicy::RnucaDataOnly,
                _ => PlacementPolicy::AddressInterleaved,
            };
            assert_eq!(builtin(id).placement(), expected, "{id}");
        }
    }

    #[test]
    fn replication_flags() {
        for id in SchemeId::BUILTIN {
            let policy = builtin(id);
            let replicates = !matches!(id, SchemeId::StaticNuca | SchemeId::ReactiveNuca);
            let on_eviction = matches!(id, SchemeId::VictimReplication | SchemeId::AsrAt(_));
            assert_eq!(policy.replicates(), replicates, "{id}");
            assert_eq!(policy.replicates_on_eviction(), on_eviction, "{id}");
        }
    }

    #[test]
    fn scheme_id_labels_match_paper_axes() {
        assert_eq!(SchemeId::StaticNuca.label(), "S-NUCA");
        assert_eq!(SchemeId::ReactiveNuca.label(), "R-NUCA");
        assert_eq!(SchemeId::VictimReplication.label(), "VR");
        assert_eq!(SchemeId::Asr.label(), "ASR");
        assert_eq!(SchemeId::AsrAt(50).label(), "ASR-0.50");
        assert_eq!(SchemeId::AsrAt(100).label(), "ASR-1.00");
        assert_eq!(SchemeId::Rt(3).label(), "RT-3");
        assert_eq!(SchemeId::Custom("ALWAYS").label(), "ALWAYS");
    }

    #[test]
    fn scheme_id_parse_roundtrips_builtins() {
        for id in SchemeId::BUILTIN
            .into_iter()
            .chain([SchemeId::Asr, SchemeId::Rt(5)])
        {
            assert_eq!(SchemeId::parse(&id.label()), id, "{id} must round-trip");
        }
        // Unknown labels become Custom ids that still round-trip.
        let custom = SchemeId::parse("MY-SCHEME");
        assert_eq!(custom, SchemeId::Custom("MY-SCHEME"));
        assert_eq!(SchemeId::parse(&custom.label()), custom);
        // A cluster-variant label is not a plain RT id.
        assert_eq!(SchemeId::parse("RT-3/C-16"), SchemeId::Custom("RT-3/C-16"));
    }

    #[test]
    fn custom_labels_are_interned_once() {
        let first = match SchemeId::parse("INTERN-ME") {
            SchemeId::Custom(name) => name,
            other => panic!("expected a custom id, got {other:?}"),
        };
        let second = match SchemeId::parse("INTERN-ME") {
            SchemeId::Custom(name) => name,
            other => panic!("expected a custom id, got {other:?}"),
        };
        // Pointer-identical, not merely equal: repeated parses reuse the
        // single leaked allocation.
        assert!(std::ptr::eq(first, second));
    }

    #[test]
    fn unknown_scheme_error_is_descriptive() {
        let err = UnknownScheme::new(SchemeId::VictimReplication, "BARNES");
        assert_eq!(err.scheme, SchemeId::VictimReplication);
        assert_eq!(err.to_string(), "unknown scheme VR (BARNES)");
    }
}
