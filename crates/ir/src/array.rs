//! Traced arrays: the accelerator-visible memory objects of a kernel.

use std::fmt;

/// Identifier of a traced array within one [`Trace`](crate::Trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub(crate) u32);

impl ArrayId {
    /// Dense index of this array in [`Trace::arrays`](crate::Trace::arrays).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a dense index (used by `.atrc` decoding).
    #[must_use]
    pub fn from_index(idx: usize) -> Self {
        ArrayId(u32::try_from(idx).expect("too many arrays"))
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arr{}", self.0)
    }
}

/// How an array participates in the CPU↔accelerator data exchange.
///
/// This drives the SoC flows in `aladdin-core`: `Input` arrays are copied in
/// (DMA) or demand-fetched (cache) from system memory, `Output` arrays are
/// copied back, and `Internal` arrays live entirely in local scratchpads —
/// the paper keeps e.g. `nw`'s score matrix internal even for cache-based
/// designs (Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// Read by the accelerator; produced by the host.
    Input,
    /// Written by the accelerator; consumed by the host.
    Output,
    /// Both read and written across the accelerator boundary.
    InOut,
    /// Private intermediate storage; never crosses the boundary.
    Internal,
}

impl ArrayKind {
    /// Whether the host must transfer this array *to* the accelerator.
    #[must_use]
    pub fn is_input(self) -> bool {
        matches!(self, ArrayKind::Input | ArrayKind::InOut)
    }

    /// Whether the accelerator must transfer this array back *to* the host.
    #[must_use]
    pub fn is_output(self) -> bool {
        matches!(self, ArrayKind::Output | ArrayKind::InOut)
    }

    /// Whether the array is shared with the rest of the system at all.
    #[must_use]
    pub fn is_shared(self) -> bool {
        !matches!(self, ArrayKind::Internal)
    }
}

impl fmt::Display for ArrayKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArrayKind::Input => "input",
            ArrayKind::Output => "output",
            ArrayKind::InOut => "inout",
            ArrayKind::Internal => "internal",
        };
        f.write_str(s)
    }
}

/// Static description of a traced array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Identifier within the owning trace.
    pub id: ArrayId,
    /// Source-level name (for reports).
    pub name: String,
    /// Role in the host↔accelerator exchange.
    pub kind: ArrayKind,
    /// Base address in the trace (simulated virtual) address space.
    pub base_addr: u64,
    /// Size of one element in bytes.
    pub elem_bytes: u32,
    /// Number of elements.
    pub len: u64,
}

impl ArrayInfo {
    /// Total footprint of the array in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.len * u64::from(self.elem_bytes)
    }

    /// Address of element `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len`.
    #[must_use]
    pub fn addr_of(&self, idx: u64) -> u64 {
        assert!(
            idx < self.len,
            "index {idx} out of bounds for {}",
            self.name
        );
        self.base_addr + idx * u64::from(self.elem_bytes)
    }

    /// Whether `addr` falls inside this array.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base_addr && addr < self.base_addr + self.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> ArrayInfo {
        ArrayInfo {
            id: ArrayId(3),
            name: "m".to_owned(),
            kind: ArrayKind::InOut,
            base_addr: 0x1000,
            elem_bytes: 8,
            len: 16,
        }
    }

    #[test]
    fn addressing() {
        let a = info();
        assert_eq!(a.size_bytes(), 128);
        assert_eq!(a.addr_of(0), 0x1000);
        assert_eq!(a.addr_of(15), 0x1000 + 15 * 8);
        assert!(a.contains(0x1000));
        assert!(a.contains(0x107f));
        assert!(!a.contains(0x1080));
        assert!(!a.contains(0xfff));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn addr_of_out_of_bounds_panics() {
        let _ = info().addr_of(16);
    }

    #[test]
    fn kind_predicates() {
        assert!(ArrayKind::Input.is_input());
        assert!(!ArrayKind::Input.is_output());
        assert!(ArrayKind::Output.is_output());
        assert!(!ArrayKind::Output.is_input());
        assert!(ArrayKind::InOut.is_input() && ArrayKind::InOut.is_output());
        assert!(!ArrayKind::Internal.is_shared());
        assert!(ArrayKind::Output.is_shared());
    }
}
