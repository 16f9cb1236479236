//! Address ranges for routing.

/// A half-open physical address range `[base, base + size)`.
///
/// ```
/// use accesys_interconnect::AddrRange;
///
/// let r = AddrRange::new(0x1000, 0x1000);
/// assert!(r.contains(0x1000));
/// assert!(r.contains(0x1fff));
/// assert!(!r.contains(0x2000));
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, serde::Serialize)]
pub struct AddrRange {
    /// First address in the range.
    pub base: u64,
    /// Length in bytes.
    pub size: u64,
}

impl AddrRange {
    /// Create a range; `size` must be non-zero.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(size > 0, "empty address range");
        assert!(base.checked_add(size).is_some(), "address range overflow");
        AddrRange { base, size }
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.size
    }

    /// One past the last address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Whether two ranges share any address.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

impl std::fmt::Display for AddrRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#x}, {:#x})", self.base, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_is_half_open() {
        let r = AddrRange::new(100, 50);
        assert!(!r.contains(99));
        assert!(r.contains(100));
        assert!(r.contains(149));
        assert!(!r.contains(150));
    }

    #[test]
    fn overlap_detection() {
        let a = AddrRange::new(0, 100);
        let b = AddrRange::new(50, 100);
        let c = AddrRange::new(100, 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "empty address range")]
    fn zero_size_panics() {
        AddrRange::new(0, 0);
    }
}
