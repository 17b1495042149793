//! The two servable matrix representations a build can target.
//!
//! This enum used to live in the serve layer; it moved down into the
//! pipeline so the build path can be planned and executed without
//! depending on serving code (the serve crate re-exports it, so
//! `gcm_serve::Backend` keeps working).

/// Which representation a built shard (and its on-disk container) uses.
/// Row shards are the only row partition: every shard holds exactly one
/// matrix of its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Uncompressed CSRV.
    Csrv,
    /// Grammar-compressed `(C, R, V)`.
    Compressed,
}

impl Backend {
    /// Every backend, in container-tag order.
    pub const ALL: [Backend; 2] = [Backend::Csrv, Backend::Compressed];

    /// Stable on-disk tag (the `GCMSERV1` container's backend byte).
    /// Tags 1 and 3 named the retired in-shard row-block backends
    /// (`parcsrv`, `blocked`); they stay reserved and are never reused.
    pub fn tag(&self) -> u8 {
        match self {
            Backend::Csrv => 0,
            Backend::Compressed => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag).
    pub fn from_tag(t: u8) -> Option<Backend> {
        match t {
            0 => Some(Backend::Csrv),
            2 => Some(Backend::Compressed),
            _ => None,
        }
    }

    /// CLI / display name.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Csrv => "csrv",
            Backend::Compressed => "compressed",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Whether shards of this backend are grammar-compressed (and thus
    /// pass through the RePair + encode stages).
    pub fn is_compressed(&self) -> bool {
        *self == Backend::Compressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_tags_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_tag(b.tag()), Some(b));
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        for retired in [1, 3] {
            assert_eq!(Backend::from_tag(retired), None);
        }
        assert_eq!(Backend::from_tag(9), None);
        assert_eq!(Backend::parse("dense"), None);
        assert_eq!(Backend::parse("blocked"), None);
    }

    #[test]
    fn compressed_flag() {
        assert!(!Backend::Csrv.is_compressed());
        assert!(Backend::Compressed.is_compressed());
    }
}
