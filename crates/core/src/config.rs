//! Configuration of the LLC management scheme under evaluation.

use lad_cache::llc_slice::LlcReplacementPolicy;

use crate::classifier::ClassifierKind;
use crate::scheme::{SchemeId, SchemeKind};

/// Every knob of the replication layer, bundled for an experiment run.
///
/// Use the per-scheme constructors ([`ReplicationConfig::locality_aware`],
/// [`ReplicationConfig::static_nuca`], ...) and the `with_*` builder methods
/// for variations:
///
/// ```
/// use lad_replication::config::ReplicationConfig;
/// use lad_replication::classifier::ClassifierKind;
///
/// let rt3 = ReplicationConfig::locality_aware(3);
/// assert_eq!(rt3.replication_threshold, 3);
///
/// let sweep = rt3.clone().with_classifier(ClassifierKind::Limited(5)).with_cluster_size(4);
/// assert_eq!(sweep.cluster_size, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Which LLC management scheme to run.
    pub scheme: SchemeKind,
    /// The replication threshold RT of the locality-aware protocol
    /// (ignored by the baselines).  The paper's optimum is 3.
    pub replication_threshold: u32,
    /// Classifier organization (Complete or Limited_k).
    pub classifier: ClassifierKind,
    /// Cluster size for cluster-level replication (Section 2.3.4): at most
    /// one replica per cluster of this many cores.  1 (the paper's choice)
    /// replicates at the requesting core itself.
    pub cluster_size: usize,
    /// ASR replication level: the probability that an eligible L1 victim is
    /// replicated.  The paper sweeps {0, 0.25, 0.5, 0.75, 1}.
    pub asr_level: f64,
    /// LLC victim-selection policy (the paper's sharer-aware modified LRU by
    /// default; plain LRU for the Section 4.2 comparison).
    pub llc_replacement: LlcReplacementPolicy,
}

impl ReplicationConfig {
    /// The locality-aware protocol with replication threshold `rt` and the
    /// paper's default Limited₃ classifier.
    pub fn locality_aware(rt: u32) -> Self {
        ReplicationConfig {
            scheme: SchemeKind::LocalityAware,
            replication_threshold: rt,
            classifier: ClassifierKind::paper_default(),
            cluster_size: 1,
            asr_level: 0.0,
            llc_replacement: LlcReplacementPolicy::SharerAwareLru,
        }
    }

    /// The paper's headline configuration: RT-3, Limited₃, cluster size 1.
    pub fn paper_default() -> Self {
        Self::locality_aware(3)
    }

    /// The Static-NUCA baseline.
    pub fn static_nuca() -> Self {
        ReplicationConfig {
            scheme: SchemeKind::StaticNuca,
            ..Self::baseline_defaults()
        }
    }

    /// The Reactive-NUCA baseline.
    pub fn reactive_nuca() -> Self {
        ReplicationConfig {
            scheme: SchemeKind::ReactiveNuca,
            ..Self::baseline_defaults()
        }
    }

    /// The Victim Replication baseline.
    pub fn victim_replication() -> Self {
        ReplicationConfig {
            scheme: SchemeKind::VictimReplication,
            ..Self::baseline_defaults()
        }
    }

    /// The Adaptive Selective Replication baseline at a given replication
    /// level in `[0, 1]`.
    pub fn asr(level: f64) -> Self {
        ReplicationConfig {
            scheme: SchemeKind::AdaptiveSelectiveReplication,
            asr_level: level.clamp(0.0, 1.0),
            ..Self::baseline_defaults()
        }
    }

    fn baseline_defaults() -> Self {
        ReplicationConfig {
            scheme: SchemeKind::StaticNuca,
            replication_threshold: 3,
            classifier: ClassifierKind::paper_default(),
            cluster_size: 1,
            asr_level: 0.0,
            llc_replacement: LlcReplacementPolicy::SharerAwareLru,
        }
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

    /// The typed identifier of this configuration in experiment matrices
    /// and comparisons: the scheme family plus its *primary* sweep
    /// parameter (`SchemeId::AsrAt` for the ASR level, `SchemeId::Rt` for
    /// the replication threshold).
    ///
    /// Secondary knobs (cluster size, classifier organization, LLC
    /// replacement) are *not* part of the id — `RT-3` and `RT-3/C-16` both
    /// map to `SchemeId::Rt(3)`.  Sweeps over those knobs either run
    /// ad hoc (`ExperimentRunner::run_one`, the way Figures 9 and 10 do) or
    /// register each variant under a distinct `SchemeId::Custom` name.
    pub fn scheme_id(&self) -> SchemeId {
        match self.scheme {
            SchemeKind::StaticNuca => SchemeId::StaticNuca,
            SchemeKind::ReactiveNuca => SchemeId::ReactiveNuca,
            SchemeKind::VictimReplication => SchemeId::VictimReplication,
            SchemeKind::AdaptiveSelectiveReplication => SchemeId::asr_at_level(self.asr_level),
            SchemeKind::LocalityAware => SchemeId::Rt(self.replication_threshold),
        }
    }

    /// A short, unique label for reports: `S-NUCA`, `R-NUCA`, `VR`,
    /// `ASR-0.50`, `RT-3`, `RT-3/C-4`, ...
    pub fn label(&self) -> String {
        match self.scheme {
            SchemeKind::StaticNuca | SchemeKind::ReactiveNuca | SchemeKind::VictimReplication => {
                self.scheme.label().to_string()
            }
            SchemeKind::AdaptiveSelectiveReplication => {
                format!("ASR-{:.2}", self.asr_level)
            }
            SchemeKind::LocalityAware => {
                if self.cluster_size > 1 {
                    format!("RT-{}/C-{}", self.replication_threshold, self.cluster_size)
                } else {
                    format!("RT-{}", self.replication_threshold)
                }
            }
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.replication_threshold == 0 {
            return Err("replication threshold must be at least 1".to_string());
        }
        if self.cluster_size == 0 {
            return Err("cluster size must be at least 1".to_string());
        }
        if let ClassifierKind::Limited(0) = self.classifier {
            return Err("limited classifier must track at least one core".to_string());
        }
        if !(0.0..=1.0).contains(&self.asr_level) {
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
            SchemeKind::StaticNuca
        );
        assert_eq!(
            ReplicationConfig::reactive_nuca().scheme,
            SchemeKind::ReactiveNuca
        );
        assert_eq!(
            ReplicationConfig::victim_replication().scheme,
            SchemeKind::VictimReplication
        );
        assert_eq!(
            ReplicationConfig::asr(0.5).scheme,
            SchemeKind::AdaptiveSelectiveReplication
        );
        assert_eq!(
            ReplicationConfig::locality_aware(3).scheme,
            SchemeKind::LocalityAware
        );
        assert_eq!(
            ReplicationConfig::default(),
            ReplicationConfig::paper_default()
        );
    }

    #[test]
    fn scheme_ids_carry_the_sweep_parameter() {
        assert_eq!(
            ReplicationConfig::static_nuca().scheme_id(),
            SchemeId::StaticNuca
        );
        assert_eq!(
            ReplicationConfig::reactive_nuca().scheme_id(),
            SchemeId::ReactiveNuca
        );
        assert_eq!(
            ReplicationConfig::victim_replication().scheme_id(),
            SchemeId::VictimReplication
        );
        assert_eq!(
            ReplicationConfig::asr(0.25).scheme_id(),
            SchemeId::AsrAt(25)
        );
        assert_eq!(
            ReplicationConfig::locality_aware(8).scheme_id(),
            SchemeId::Rt(8)
        );
        // The id label agrees with the report label (cluster size 1).
        for config in [
            ReplicationConfig::static_nuca(),
            ReplicationConfig::asr(0.5),
            ReplicationConfig::locality_aware(3),
        ] {
            assert_eq!(config.scheme_id().label(), config.label());
        }
    }

    #[test]
    fn asr_level_is_clamped() {
        assert_eq!(ReplicationConfig::asr(2.0).asr_level, 1.0);
        assert_eq!(ReplicationConfig::asr(-1.0).asr_level, 0.0);
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
    }

    #[test]
    fn builders_and_validation() {
        let config = ReplicationConfig::locality_aware(5)
            .with_classifier(ClassifierKind::Complete)
            .with_cluster_size(4)
            .with_llc_replacement(LlcReplacementPolicy::PlainLru);
        assert_eq!(config.classifier, ClassifierKind::Complete);
        assert_eq!(config.cluster_size, 4);
        assert_eq!(config.replication_threshold, 5);
        assert_eq!(config.llc_replacement, LlcReplacementPolicy::PlainLru);
        config.validate().unwrap();

        // Builder floors keep the config valid.
        assert_eq!(
            ReplicationConfig::paper_default()
                .with_cluster_size(0)
                .cluster_size,
            1
        );

        let mut bad = ReplicationConfig::paper_default();
        bad.replication_threshold = 0;
        assert!(bad.validate().is_err());
        let mut bad = ReplicationConfig::paper_default();
        bad.cluster_size = 0;
        assert!(bad.validate().is_err());
        let mut bad = ReplicationConfig::paper_default();
        bad.classifier = ClassifierKind::Limited(0);
        assert!(bad.validate().is_err());
        let mut bad = ReplicationConfig::paper_default();
        bad.asr_level = 3.0;
        assert!(bad.validate().is_err());
    }
}
