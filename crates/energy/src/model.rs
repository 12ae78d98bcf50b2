//! Per-event dynamic energy constants.

/// Per-event dynamic energies in picojoules.
///
/// The defaults are loosely calibrated to published 11 nm-class projections
/// and, more importantly, preserve the relative costs the paper's
/// qualitative arguments rely on (see the crate-level documentation).
/// All values can be overridden for sensitivity studies.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// L1 instruction cache access (read or fill).
    pub l1i_access_pj: f64,
    /// L1 data cache read.
    pub l1d_read_pj: f64,
    /// L1 data cache write (fill or store hit).
    pub l1d_write_pj: f64,
    /// LLC slice tag-array access (includes the embedded directory tags).
    pub llc_tag_pj: f64,
    /// LLC slice data-array read.
    pub llc_data_read_pj: f64,
    /// LLC slice data-array write.
    pub llc_data_write_pj: f64,
    /// Directory entry read/update (sharer list only, ACKwise pointers).
    pub directory_access_pj: f64,
    /// Additional energy per directory access for reading/updating the
    /// locality classifier metadata (mode bits + home reuse counters).  Paid
    /// only by the locality-aware protocol, scaled by the number of tracked
    /// cores relative to Limited₃.
    pub classifier_access_pj: f64,
    /// Router traversal, per flit.
    pub router_flit_pj: f64,
    /// Link traversal, per flit per hop.
    pub link_flit_hop_pj: f64,
    /// DRAM access, per cache line.
    pub dram_access_pj: f64,
}

impl EnergyModel {
    /// The default model used by all experiments.
    pub fn paper_default() -> Self {
        EnergyModel {
            l1i_access_pj: 2.0,
            l1d_read_pj: 3.0,
            l1d_write_pj: 3.6,
            llc_tag_pj: 1.2,
            llc_data_read_pj: 10.0,
            llc_data_write_pj: 12.0,
            directory_access_pj: 1.5,
            classifier_access_pj: 0.5,
            router_flit_pj: 1.0,
            link_flit_hop_pj: 0.6,
            dram_access_pj: 400.0,
        }
    }

    /// Validates that the model preserves the orderings the reproduction
    /// relies on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated ordering.
    pub fn validate(&self) -> Result<(), String> {
        let all = [
            ("l1i_access_pj", self.l1i_access_pj),
            ("l1d_read_pj", self.l1d_read_pj),
            ("l1d_write_pj", self.l1d_write_pj),
            ("llc_tag_pj", self.llc_tag_pj),
            ("llc_data_read_pj", self.llc_data_read_pj),
            ("llc_data_write_pj", self.llc_data_write_pj),
            ("directory_access_pj", self.directory_access_pj),
            ("classifier_access_pj", self.classifier_access_pj),
            ("router_flit_pj", self.router_flit_pj),
            ("link_flit_hop_pj", self.link_flit_hop_pj),
            ("dram_access_pj", self.dram_access_pj),
        ];
        for (name, value) in all {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        if self.dram_access_pj <= self.llc_data_read_pj * 10.0 {
            return Err("DRAM access must cost at least 10x an LLC read".to_string());
        }
        if self.llc_data_write_pj < self.llc_data_read_pj {
            return Err("LLC write must not be cheaper than LLC read".to_string());
        }
        if self.llc_data_read_pj <= self.l1d_read_pj {
            return Err("LLC read must cost more than an L1 read".to_string());
        }
        Ok(())
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_validates() {
        EnergyModel::paper_default().validate().unwrap();
        EnergyModel::default().validate().unwrap();
    }

    #[test]
    fn llc_write_is_about_1_2x_read() {
        let m = EnergyModel::paper_default();
        // The paper quotes an LLC data write at 1.2× a read.
        assert!((m.llc_data_write_pj / m.llc_data_read_pj - 1.2).abs() < 0.01);
    }

    #[test]
    fn validation_catches_broken_orderings() {
        let mut m = EnergyModel::paper_default();
        m.dram_access_pj = 1.0;
        assert!(m.validate().is_err());

        let mut m = EnergyModel::paper_default();
        m.llc_data_write_pj = 1.0;
        assert!(m.validate().is_err());

        let mut m = EnergyModel::paper_default();
        m.llc_data_read_pj = 0.1;
        assert!(m.validate().is_err());

        let mut m = EnergyModel::paper_default();
        m.router_flit_pj = f64::NAN;
        assert!(m.validate().is_err());

        let mut m = EnergyModel::paper_default();
        m.l1d_read_pj = -1.0;
        assert!(m.validate().is_err());
    }
}
