//! Configuration of the LLC management scheme under evaluation: which
//! scheme runs (a [`SchemeId`], which carries RT and the ASR level) and the
//! engine knobs it runs with.

use lad_cache::llc_slice::LlcReplacementPolicy;

use crate::classifier::ClassifierKind;
use crate::scheme::SchemeId;

/// Every knob of the replication layer, bundled for an experiment run.
///
/// Use [`ReplicationConfig::of`] or the per-scheme constructors
/// ([`ReplicationConfig::locality_aware`],
/// [`ReplicationConfig::static_nuca`], ...) and the `with_*` builder methods
/// for variations:
///
/// ```
/// use lad_replication::config::ReplicationConfig;
/// use lad_replication::classifier::ClassifierKind;
/// use lad_replication::scheme::SchemeId;
///
/// let rt3 = ReplicationConfig::locality_aware(3);
/// assert_eq!(rt3.scheme, SchemeId::Rt(3));
/// assert_eq!(rt3.replication_threshold(), 3);
///
/// let sweep = rt3.clone().with_classifier(ClassifierKind::Limited(5)).with_cluster_size(4);
/// assert_eq!(sweep.label(), "RT-3/C-4");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Which LLC management scheme to run.  [`SchemeId::Rt`] carries the
    /// locality-aware protocol's replication threshold and
    /// [`SchemeId::AsrAt`] ASR's replication level.
    pub scheme: SchemeId,
    /// Classifier organization (Complete or Limited_k).
    pub classifier: ClassifierKind,
    /// Cluster size for cluster-level replication (Section 2.3.4): at most
    /// one replica per cluster of this many cores.  1 (the paper's choice)
    /// replicates at the requesting core itself.
    pub cluster_size: usize,
    /// LLC victim-selection policy (the paper's sharer-aware modified LRU by
    /// default; plain LRU for the Section 4.2 comparison).
    pub llc_replacement: LlcReplacementPolicy,
}

impl ReplicationConfig {
    /// `scheme` with the paper's knobs: the Limited₃ classifier, cluster
    /// size 1 and sharer-aware LRU replacement.
    pub fn of(scheme: SchemeId) -> Self {
        ReplicationConfig {
            scheme,
            classifier: ClassifierKind::paper_default(),
            cluster_size: 1,
            llc_replacement: LlcReplacementPolicy::SharerAwareLru,
        }
    }

    /// The locality-aware protocol with replication threshold `rt`.
    pub fn locality_aware(rt: u32) -> Self {
        Self::of(SchemeId::Rt(rt))
    }

    /// The paper's headline configuration: RT-3, Limited₃, cluster size 1.
    pub fn paper_default() -> Self {
        Self::locality_aware(3)
    }

    /// The Static-NUCA baseline.
    pub fn static_nuca() -> Self {
        Self::of(SchemeId::StaticNuca)
    }

    /// The Reactive-NUCA baseline.
    pub fn reactive_nuca() -> Self {
        Self::of(SchemeId::ReactiveNuca)
    }

    /// The Victim Replication baseline.
    pub fn victim_replication() -> Self {
        Self::of(SchemeId::VictimReplication)
    }

    /// The Adaptive Selective Replication baseline at a replication level
    /// in `[0, 1]`, kept to the hundredths its label shows.
    pub fn asr(level: f64) -> Self {
        Self::of(SchemeId::asr_at_level(level))
    }

    /// Sets the classifier organization (builder style).
    pub fn with_classifier(mut self, classifier: ClassifierKind) -> Self {
        self.classifier = classifier;
        self
    }

    /// Sets the cluster size (builder style).
    pub fn with_cluster_size(mut self, cluster_size: usize) -> Self {
        self.cluster_size = cluster_size.max(1);
        self
    }

    /// Sets the LLC replacement policy (builder style).
    pub fn with_llc_replacement(mut self, policy: LlcReplacementPolicy) -> Self {
        self.llc_replacement = policy;
        self
    }

    /// The replication threshold RT the classifiers and replica reuse
    /// counters run at: `k` for [`SchemeId::Rt`]`(k)`, and the paper's
    /// optimum 3 for every other scheme (which ignores it).
    pub fn replication_threshold(&self) -> u32 {
        match self.scheme {
            SchemeId::Rt(rt) => rt,
            _ => 3,
        }
    }

    /// A short, unique label for reports: the scheme's label (`S-NUCA`,
    /// `ASR-0.50`, `RT-3`, ...), with a `/C-k` suffix at cluster size
    /// k > 1 (`RT-3/C-4`).
    pub fn label(&self) -> String {
        if self.cluster_size > 1 {
            format!("{}/C-{}", self.scheme, self.cluster_size)
        } else {
            self.scheme.label()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.replication_threshold() == 0 {
            return Err("replication threshold must be at least 1".to_string());
        }
        if self.cluster_size == 0 {
            return Err("cluster size must be at least 1".to_string());
        }
        if let ClassifierKind::Limited(0) = self.classifier {
            return Err("limited classifier must track at least one core".to_string());
        }
        if matches!(self.scheme, SchemeId::AsrAt(level) if level > 100) {
            return Err("ASR level must lie in [0, 1]".to_string());
        }
        Ok(())
    }
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_scheme() {
        assert_eq!(
            ReplicationConfig::static_nuca().scheme,
            SchemeId::StaticNuca
        );
        assert_eq!(
            ReplicationConfig::reactive_nuca().scheme,
            SchemeId::ReactiveNuca
        );
        assert_eq!(
            ReplicationConfig::victim_replication().scheme,
            SchemeId::VictimReplication
        );
        assert_eq!(ReplicationConfig::asr(0.5).scheme, SchemeId::AsrAt(50));
        assert_eq!(ReplicationConfig::locality_aware(3).scheme, SchemeId::Rt(3));
        assert_eq!(
            ReplicationConfig::default(),
            ReplicationConfig::paper_default()
        );
        for id in SchemeId::BUILTIN {
            let config = ReplicationConfig::of(id);
            assert_eq!(config.scheme, id);
            assert_eq!(config.classifier, ClassifierKind::paper_default());
            assert_eq!(config.cluster_size, 1);
            assert_eq!(config.llc_replacement, LlcReplacementPolicy::SharerAwareLru);
        }
    }

    #[test]
    fn scheme_ids_carry_the_sweep_parameter() {
        assert_eq!(ReplicationConfig::asr(0.25).scheme, SchemeId::AsrAt(25));
        assert_eq!(
            ReplicationConfig::locality_aware(8).replication_threshold(),
            8
        );
        // Every other scheme runs its classifiers at the paper's RT.
        for id in [
            SchemeId::StaticNuca,
            SchemeId::VictimReplication,
            SchemeId::AsrAt(50),
            SchemeId::Custom("ALWAYS"),
        ] {
            assert_eq!(ReplicationConfig::of(id).replication_threshold(), 3);
        }
        // The report label is the id's label (cluster size 1).
        for id in SchemeId::BUILTIN {
            assert_eq!(ReplicationConfig::of(id).label(), id.label());
        }
    }

    #[test]
    fn asr_level_is_clamped() {
        assert_eq!(ReplicationConfig::asr(2.0).scheme, SchemeId::AsrAt(100));
        assert_eq!(ReplicationConfig::asr(-1.0).scheme, SchemeId::AsrAt(0));
        // A finer level runs at the hundredths its label shows.
        assert_eq!(ReplicationConfig::asr(0.333).scheme, SchemeId::AsrAt(33));
    }

    #[test]
    fn labels() {
        assert_eq!(ReplicationConfig::static_nuca().label(), "S-NUCA");
        assert_eq!(ReplicationConfig::reactive_nuca().label(), "R-NUCA");
        assert_eq!(ReplicationConfig::victim_replication().label(), "VR");
        assert_eq!(ReplicationConfig::asr(0.25).label(), "ASR-0.25");
        assert_eq!(ReplicationConfig::locality_aware(1).label(), "RT-1");
        assert_eq!(ReplicationConfig::locality_aware(8).label(), "RT-8");
        assert_eq!(
            ReplicationConfig::locality_aware(3)
                .with_cluster_size(16)
                .label(),
            "RT-3/C-16"
        );
        assert_eq!(
            ReplicationConfig::static_nuca()
                .with_cluster_size(4)
                .label(),
            "S-NUCA/C-4"
        );
    }

    #[test]
    fn builders_and_validation() {
        let config = ReplicationConfig::locality_aware(5)
            .with_classifier(ClassifierKind::Complete)
            .with_cluster_size(4)
            .with_llc_replacement(LlcReplacementPolicy::PlainLru);
        assert_eq!(config.classifier, ClassifierKind::Complete);
        assert_eq!(config.cluster_size, 4);
        assert_eq!(config.replication_threshold(), 5);
        assert_eq!(config.llc_replacement, LlcReplacementPolicy::PlainLru);
        config.validate().unwrap();

        // Builder floors keep the config valid.
        assert_eq!(
            ReplicationConfig::paper_default()
                .with_cluster_size(0)
                .cluster_size,
            1
        );

        assert!(ReplicationConfig::locality_aware(0).validate().is_err());
        let mut bad = ReplicationConfig::paper_default();
        bad.cluster_size = 0;
        assert!(bad.validate().is_err());
        let mut bad = ReplicationConfig::paper_default();
        bad.classifier = ClassifierKind::Limited(0);
        assert!(bad.validate().is_err());
        ReplicationConfig::of(SchemeId::AsrAt(100))
            .validate()
            .unwrap();
        assert!(ReplicationConfig::of(SchemeId::AsrAt(101))
            .validate()
            .is_err());
    }
}
