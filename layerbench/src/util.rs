//! Shared pieces: a seeded generator, order statistics, per-process
//! readings, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// SplitMix64: small, seedable, and identical on every platform, so one
/// seed always yields the same requests.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for stream `stream`, item `index` of workload seed `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut rng =
        Rng::new(seed ^ stream.rotate_left(32) ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    rng.next_u64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The tail latency the sample supports.
pub struct Tail {
    pub label: &'static str,
    pub value: f64,
    /// Samples ranked above the percentile.
    pub beyond: usize,
}

/// The highest of p99/p95/p90/p75 with at least ten samples beyond it;
/// p50 when the sample is too small for any of them.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)] {
        let rank = (q * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return Tail {
                label,
                value: percentile(&s, q),
                beyond: n - rank,
            };
        }
    }
    let rank = (0.5 * n as f64).ceil() as usize;
    Tail {
        label: "p50",
        value: percentile(&s, 0.5),
        beyond: n.saturating_sub(rank),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Total CPU time (user + system, every thread, exited ones included) of
/// process `pid` in nanoseconds. This is the quantity `/proc/<pid>/stat`
/// reports as utime + stime, read from the kernel's per-process CPU clock
/// instead, which is not rounded to 10 ms clock ticks. Falls back to the
/// `/proc` figure where the clock cannot be read.
pub fn process_cpu_ns(pid: u32) -> Option<u64> {
    // Linux names another process's CPU clock ((!pid) << 3) | CPUCLOCK_SCHED.
    let clock = ((!(pid as i32)) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout of a
    // 64-bit Linux target, and clock_gettime writes nothing but it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        return Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64);
    }
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in 1/100 s.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

/// Peak resident set (VmHWM) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |&(v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.label, t.value, t.beyond), ("p90", 90.0, 10));
        let t = tail(&values[..30]);
        assert_eq!(t.label, "p50");
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&values).label, "p99");
    }

    #[test]
    fn derived_seeds_repeat_and_differ() {
        assert_eq!(derive(7, 1, 3), derive(7, 1, 3));
        assert_ne!(derive(7, 1, 3), derive(7, 2, 3));
        assert_ne!(derive(7, 1, 3), derive(8, 1, 3));
    }
}
