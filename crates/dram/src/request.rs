//! Memory requests.

use crate::address::PhysAddr;
use serde::{Deserialize, Serialize};

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A read burst.
    Read,
    /// A write burst.
    Write,
}

/// One row-granularity memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Target address.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
    /// Earliest cycle the request may issue (0 = immediately).
    pub arrival: u64,
}

impl Request {
    /// Creates a request that may issue immediately.
    pub fn new(addr: PhysAddr, kind: AccessKind) -> Self {
        Request {
            addr,
            kind,
            arrival: 0,
        }
    }

    /// Creates a request arriving at `cycle`.
    pub fn at(addr: PhysAddr, kind: AccessKind, cycle: u64) -> Self {
        Request {
            addr,
            kind,
            arrival: cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = PhysAddr {
            bank: 1,
            subarray: 2,
            row: 3,
        };
        assert_eq!(Request::new(a, AccessKind::Read).arrival, 0);
        assert_eq!(Request::at(a, AccessKind::Write, 99).arrival, 99);
    }
}
