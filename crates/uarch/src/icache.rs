//! A direct-mapped instruction cache model.

use bscope_bpu::VirtAddr;

/// Direct-mapped instruction cache tracking which code lines are resident.
///
/// Only *presence* matters for the reproduction: the paper's timing attack
/// (§8) executes "each branch instance two times, but only record\[s\] the
/// latency during the second execution, after the instruction has been
/// placed in the cache". The first touch of a line is reported cold; the
/// model feeds that into [`TimingModel`](crate::TimingModel).
///
/// Each line holds the tag it was filled with and the flush epoch it was
/// filled in; a line from an earlier epoch is empty, so a flush is one
/// increment rather than a pass over the cache.
#[derive(Debug, Clone)]
pub struct InstructionCache {
    /// `(epoch, tag)` per line.
    lines: Vec<(u64, u64)>,
    /// Current flush epoch; lines of any earlier one are empty. Starts at
    /// 1, so the zeroed lines of a new cache are empty too.
    epoch: u64,
    line_shift: u32,
    index_mask: u64,
    /// Index bits between the line offset and the tag (`log2(lines)`).
    tag_shift: u32,
    hits: u64,
    misses: u64,
}

impl InstructionCache {
    /// Cache line size in bytes (x86: 64).
    pub const LINE_BYTES: u64 = 64;

    /// Creates a cache of `lines` lines of 64 bytes.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero or not a power of two.
    #[must_use]
    pub fn new(lines: usize) -> Self {
        assert!(lines.is_power_of_two(), "line count must be a power of two, got {lines}");
        InstructionCache {
            lines: vec![(0, 0); lines],
            epoch: 1,
            line_shift: Self::LINE_BYTES.trailing_zeros(),
            index_mask: (lines - 1) as u64,
            tag_shift: lines.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// A 512-line (32 KiB) L1i, the geometry of all three paper machines.
    #[must_use]
    pub fn l1i_default() -> Self {
        InstructionCache::new(512)
    }

    #[inline]
    fn index_and_tag(&self, addr: VirtAddr) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.index_mask) as usize, line >> self.tag_shift)
    }

    /// Accesses the line containing `addr`, filling it on a miss.
    /// Returns `true` on a hit (the line was already resident).
    #[inline]
    pub fn touch(&mut self, addr: VirtAddr) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        let line = (self.epoch, tag);
        let hit = self.lines[idx] == line;
        self.lines[idx] = line;
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Whether the line containing `addr` is resident, without touching it.
    #[must_use]
    pub fn contains(&self, addr: VirtAddr) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        self.lines[idx] == (self.epoch, tag)
    }

    /// Flushes the whole cache (e.g. on a simulated context switch with a
    /// hostile OS, §9.2), in constant time. Leaves [`InstructionCache::stats`]
    /// unchanged.
    pub fn flush(&mut self) {
        self.epoch += 1;
    }

    /// (hits, misses) counted since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

impl Default for InstructionCache {
    fn default() -> Self {
        InstructionCache::l1i_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_second_hits() {
        let mut ic = InstructionCache::new(64);
        assert!(!ic.touch(0x1000));
        assert!(ic.touch(0x1000));
        assert!(ic.touch(0x1001), "same line");
        assert_eq!(ic.stats(), (2, 1));
    }

    #[test]
    fn distinct_lines_are_independent() {
        let mut ic = InstructionCache::new(64);
        ic.touch(0);
        assert!(!ic.touch(64), "next line is cold");
    }

    #[test]
    fn aliasing_lines_evict() {
        let mut ic = InstructionCache::new(64);
        ic.touch(0);
        // 64 lines of 64 B: addresses 64*64 bytes apart alias.
        ic.touch(64 * 64);
        assert!(!ic.contains(0), "original line evicted by alias");
    }

    #[test]
    fn flush_empties_cache() {
        let mut ic = InstructionCache::new(64);
        ic.touch(0x2000);
        ic.flush();
        assert!(!ic.contains(0x2000));
    }

    /// After a flush every line misses once, whatever was resident before
    /// (including the all-zero line a new cache starts with), no line from
    /// before the flush comes back, and the hit/miss tally is untouched.
    #[test]
    fn flush_makes_every_line_miss_and_keeps_stats() {
        let mut ic = InstructionCache::new(64);
        let addrs: Vec<u64> = (0..64).map(|i| i * InstructionCache::LINE_BYTES).collect();
        for round in 0..3 {
            for &a in &addrs {
                ic.touch(a);
            }
            assert!(addrs.iter().all(|&a| ic.contains(a)), "round {round} filled every line");
            let stats = ic.stats();
            ic.flush();
            assert_eq!(ic.stats(), stats, "flush leaves the tally alone");
            assert!(addrs.iter().all(|&a| !ic.contains(a)), "round {round}: a line survived");
            // A line refilled after the flush does not revive its neighbours.
            assert!(!ic.touch(addrs[5]) && ic.touch(addrs[5]));
            assert!(addrs.iter().filter(|&&a| ic.contains(a)).count() == 1);
        }
        // Tag 0 at index 0 is not resident in a fresh or flushed cache.
        let mut fresh = InstructionCache::new(64);
        assert!(!fresh.contains(0) && !fresh.touch(0) && fresh.touch(0));
        fresh.flush();
        assert!(!fresh.touch(0));
        assert_eq!(fresh.stats(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = InstructionCache::new(100);
    }
}
