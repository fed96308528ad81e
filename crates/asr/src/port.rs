//! Typed identifiers for the entities of a system graph.
//!
//! Newtypes keep block, delay, and external-port indices statically
//! distinct (C-NEWTYPE), so a delay id can never be passed where a block
//! id is expected.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub(crate) usize);

        impl $name {
            /// The raw index of this id within its arena.
            pub fn index(self) -> usize {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a functional block within a [`crate::system::System`].
    BlockId,
    "b"
);
id_type!(
    /// Identifies a delay element within a [`crate::system::System`].
    DelayId,
    "d"
);
id_type!(
    /// Identifies an external input port of a [`crate::system::System`].
    InputId,
    "in"
);
id_type!(
    /// Identifies an external output port of a [`crate::system::System`].
    OutputId,
    "out"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_expose_index_and_display() {
        assert_eq!(BlockId(3).index(), 3);
        assert_eq!(BlockId(3).to_string(), "b3");
        assert_eq!(DelayId(0).to_string(), "d0");
        assert_eq!(InputId(1).to_string(), "in1");
        assert_eq!(OutputId(2).to_string(), "out2");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<BlockId> = [BlockId(2), BlockId(0), BlockId(1)].into_iter().collect();
        let order: Vec<usize> = set.into_iter().map(BlockId::index).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }
}
