//! MESI coherence states for cached copies (L1 lines and LLC replicas).

use std::fmt;

/// The MESI state of one cached copy of a line.
///
/// The same enum is used for L1 cache lines and for LLC replicas: the paper
/// creates replicas in all valid states (Section 2.3.1) so that migratory
/// shared data can be replicated in `Exclusive`/`Modified` and served writes
/// locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MesiState {
    /// Dirty, exclusive copy; memory is stale.
    Modified,
    /// Clean, exclusive copy; no other cache holds the line.
    Exclusive,
    /// Clean copy that may be shared with other caches.
    Shared,
    /// No valid copy.
    #[default]
    Invalid,
}

impl MesiState {
    /// `true` for any state other than [`MesiState::Invalid`].
    pub fn is_valid(self) -> bool {
        !matches!(self, MesiState::Invalid)
    }

    /// `true` if a write can be performed locally without a coherence
    /// transaction (Modified or Exclusive).
    pub fn can_write_locally(self) -> bool {
        matches!(self, MesiState::Modified | MesiState::Exclusive)
    }

    /// `true` if the copy must be written back when dropped.
    pub fn is_dirty(self) -> bool {
        matches!(self, MesiState::Modified)
    }

    /// State after the local core writes the line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not writable locally; the protocol must have
    /// obtained exclusive permission first.
    pub fn after_local_write(self) -> MesiState {
        assert!(
            self.can_write_locally(),
            "write requires M or E state, had {self}"
        );
        MesiState::Modified
    }

    /// State after receiving a downgrade request (another core wants to
    /// read): M/E fall to S, S and I are unchanged.
    pub fn after_downgrade(self) -> MesiState {
        match self {
            MesiState::Modified | MesiState::Exclusive | MesiState::Shared => MesiState::Shared,
            MesiState::Invalid => MesiState::Invalid,
        }
    }

    /// Parses the single-letter [`std::fmt::Display`] rendering ("M", "E",
    /// "S", "I") back into a state; `None` for anything else.
    pub fn parse(text: &str) -> Option<MesiState> {
        match text {
            "M" => Some(MesiState::Modified),
            "E" => Some(MesiState::Exclusive),
            "S" => Some(MesiState::Shared),
            "I" => Some(MesiState::Invalid),
            _ => None,
        }
    }
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MesiState::Modified => "M",
            MesiState::Exclusive => "E",
            MesiState::Shared => "S",
            MesiState::Invalid => "I",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_invalid() {
        assert_eq!(MesiState::default(), MesiState::Invalid);
    }

    #[test]
    fn validity_and_writability() {
        assert!(MesiState::Modified.is_valid());
        assert!(MesiState::Exclusive.is_valid());
        assert!(MesiState::Shared.is_valid());
        assert!(!MesiState::Invalid.is_valid());

        assert!(MesiState::Modified.can_write_locally());
        assert!(MesiState::Exclusive.can_write_locally());
        assert!(!MesiState::Shared.can_write_locally());
        assert!(!MesiState::Invalid.can_write_locally());

        assert!(MesiState::Modified.is_dirty());
        assert!(!MesiState::Exclusive.is_dirty());
    }

    #[test]
    fn write_transition() {
        assert_eq!(
            MesiState::Exclusive.after_local_write(),
            MesiState::Modified
        );
        assert_eq!(MesiState::Modified.after_local_write(), MesiState::Modified);
    }

    #[test]
    #[should_panic(expected = "requires M or E")]
    fn write_from_shared_panics() {
        let _ = MesiState::Shared.after_local_write();
    }

    #[test]
    fn downgrade_and_invalidate() {
        assert_eq!(MesiState::Modified.after_downgrade(), MesiState::Shared);
        assert_eq!(MesiState::Exclusive.after_downgrade(), MesiState::Shared);
        assert_eq!(MesiState::Shared.after_downgrade(), MesiState::Shared);
        assert_eq!(MesiState::Invalid.after_downgrade(), MesiState::Invalid);
    }

    #[test]
    fn display_single_letters() {
        assert_eq!(MesiState::Modified.to_string(), "M");
        assert_eq!(MesiState::Exclusive.to_string(), "E");
        assert_eq!(MesiState::Shared.to_string(), "S");
        assert_eq!(MesiState::Invalid.to_string(), "I");
    }

    #[test]
    fn parse_inverts_display() {
        for s in [
            MesiState::Modified,
            MesiState::Exclusive,
            MesiState::Shared,
            MesiState::Invalid,
        ] {
            assert_eq!(MesiState::parse(&s.to_string()), Some(s));
        }
        assert_eq!(MesiState::parse("X"), None);
        assert_eq!(MesiState::parse(""), None);
        assert_eq!(MesiState::parse("m"), None);
    }
}
