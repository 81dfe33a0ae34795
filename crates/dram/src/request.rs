//! Memory requests.

use crate::address::PhysAddr;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read burst.
    Read,
    /// A write burst.
    Write,
}

/// One row-granularity memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Target address.
    pub addr: PhysAddr,
    /// Read or write.
    pub kind: AccessKind,
}

impl Request {
    /// Creates a request.
    pub fn new(addr: PhysAddr, kind: AccessKind) -> Self {
        Request { addr, kind }
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
        let r = Request::new(a, AccessKind::Write);
        assert_eq!((r.addr, r.kind), (a, AccessKind::Write));
        // Address and kind only: the streaming clock times a request.
        assert_eq!(std::mem::size_of::<Request>(), 16);
    }
}
