//! Resident-memory probes from `/proc/self`: the current resident size, its
//! high-water mark, and resetting that mark so a later reading covers only
//! what happened after the reset.

use std::fs;
use std::io;

fn status_kib(field: &str) -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("no {field} line")))
}

/// Current resident set size in KiB.
pub fn rss_kib() -> io::Result<u64> {
    status_kib("VmRSS:")
}

/// Resident high-water mark in KiB since the last [`reset_peak`].
pub fn hwm_kib() -> io::Result<u64> {
    status_kib("VmHWM:")
}

/// Resets the resident high-water mark to the current resident size.
pub fn reset_peak() -> io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 64 << 20;

    #[test]
    fn reset_drops_an_old_peak() {
        // A block this large is mapped on its own and unmapped on drop, so
        // the peak it leaves behind is no longer resident afterwards.
        let mut block = vec![0u8; BLOCK];
        for i in (0..BLOCK).step_by(4096) {
            block[i] = 1;
        }
        std::hint::black_box(&block);
        drop(block);
        let before = hwm_kib().unwrap();
        let rss = rss_kib().unwrap();
        assert!(
            before >= rss + (BLOCK as u64 >> 10) / 2,
            "peak should include the block"
        );
        reset_peak().unwrap();
        let after = hwm_kib().unwrap();
        assert!(
            after < before - (BLOCK as u64 >> 10) / 2,
            "reset should forget the block"
        );
    }
}
