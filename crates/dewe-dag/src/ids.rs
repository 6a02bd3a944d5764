//! Compact index-based identifiers.
//!
//! Jobs, files and workflows are stored in contiguous `Vec`s and referenced
//! by `u32` newtype indices. A 6.0-degree Montage ensemble of 200 workflows
//! has 1.7 million jobs; 4-byte ids keep the hot dependency-tracking
//! structures small and cache-friendly (see the type-size guidance in the
//! Rust performance literature).

use std::fmt;

macro_rules! index_id {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Index into the owning container.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a container index.
            ///
            /// # Panics
            /// Panics if `i` does not fit in `u32`.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                Self(u32::try_from(i).expect("id overflow: more than u32::MAX entities"))
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

index_id!(
    /// Identifies a job within a single [`crate::Workflow`].
    JobId,
    "j"
);

index_id!(
    /// Identifies a file within a single [`crate::Workflow`].
    FileId,
    "f"
);

index_id!(
    /// Identifies a workflow within an ensemble: its place in an engine's
    /// submission sequence.
    WorkflowId,
    "w"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let j = JobId::from_index(42);
        assert_eq!(j.index(), 42);
        assert_eq!(j, JobId(42));
    }

    #[test]
    fn debug_formatting_is_tagged() {
        assert_eq!(format!("{:?}", JobId(7)), "j7");
        assert_eq!(format!("{:?}", FileId(7)), "f7");
        assert_eq!(format!("{:?}", WorkflowId(7)), "w7");
    }

    #[test]
    fn display_is_bare_number() {
        assert_eq!(JobId(9).to_string(), "9");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(JobId(1) < JobId(2));
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_index_overflow_panics() {
        let _ = JobId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn ids_are_4_bytes() {
        assert_eq!(std::mem::size_of::<JobId>(), 4);
        assert_eq!(std::mem::size_of::<Option<JobId>>(), 8);
    }
}
