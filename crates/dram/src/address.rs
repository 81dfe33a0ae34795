//! Physical DRAM addresses.

/// A decoded physical address in the die: bank / subarray / row. Requests
/// are row-granular, so no column is kept.
///
/// The mapping from application addresses (hash-table level + entry) to
/// `PhysAddr` lives in the accelerator crate, because the paper's mapping
/// scheme (Sec. IV-B) is part of the co-design, not of the DRAM itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhysAddr {
    /// Bank index within the die.
    pub bank: u32,
    /// Subarray index within the bank.
    pub subarray: u32,
    /// Row index within the subarray.
    pub row: u32,
}
