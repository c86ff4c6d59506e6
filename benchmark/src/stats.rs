//! Exact statistics over samples the client keeps, span self-time
//! arithmetic, and `/proc` readers. Nothing here reads the engine's log₂
//! histograms.

/// A duration in microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Exact median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// The exact `q`-quantile, but only when at least [`MIN_BEYOND`] samples
/// lie strictly beyond its rank (p99 needs ≥ 1 000 samples, p999 ≥ 10 000).
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = (q * v.len() as f64).ceil() as usize;
    (v.len().saturating_sub(rank) >= MIN_BEYOND).then(|| v[rank.max(1) - 1])
}

/// The median over repetitions of a per-repetition value; repetitions
/// that have no value (too few samples) are left out.
pub fn median_of_reps(per_rep: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    median(&per_rep.into_iter().flatten().collect::<Vec<_>>())
}

/// Medians of `chunks` equal consecutive runs of `samples` (a paced
/// writer's acks, cut into repetitions after the fact). Fewer chunks when
/// there are fewer than eight samples per chunk.
pub fn chunk_medians(samples: &[f64], chunks: usize) -> Vec<Option<f64>> {
    let chunks = chunks.min(samples.len() / 8).max(1);
    let size = samples.len().div_ceil(chunks).max(1);
    samples.chunks(size).map(median).collect()
}

/// One recorded span. `parent` indexes the span that caused it; spans of
/// one request share `req`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children are clipped to the parent and
/// overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The comm
/// field may itself contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the comm: state(3) … utime(14) stime(15) → offsets 11 and 12.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Linux reports process times in units of `sysconf(_SC_CLK_TCK)`, which
/// is 100 on every supported architecture.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds this process has consumed.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 / CLK_TCK)
}

/// Peak resident set of this process, in MiB.
pub fn process_peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(parse_vm_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_are_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), None); // 999 − 990 = 9 beyond
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_quantile(&v, 0.99), Some(990.0)); // exactly 10 beyond
        assert_eq!(tail_quantile(&v, 0.999), None);
        assert_eq!(tail_quantile(&v, 0.5), Some(500.0));
    }

    #[test]
    fn repetitions_reduce_to_their_median() {
        let reps = [Some(9.0), None, Some(1.0), Some(5.0)];
        assert_eq!(median_of_reps(reps), Some(5.0));
        assert_eq!(median_of_reps([Some(9.0), Some(1.0)]), Some(5.0));
        assert_eq!(median_of_reps([None, None]), None);
    }

    #[test]
    fn a_sample_stream_is_cut_into_chunks_of_at_least_eight() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(
            chunk_medians(&v, 4),
            vec![Some(5.5), Some(15.5), Some(25.5), Some(35.5)]
        );
        assert_eq!(chunk_medians(&v, 100).len(), 5);
        assert_eq!(chunk_medians(&v[..5], 4), vec![Some(3.0)]);
        assert_eq!(chunk_medians(&[], 4), Vec::<Option<f64>>::new());
    }

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(None, 0, 100),    // root: children cover 10..40 and 50..70
            span(Some(0), 10, 30), // overlaps the next child on 20..30
            span(Some(0), 20, 40),
            span(Some(0), 50, 70),
            span(Some(3), 55, 60),  // grandchild only reduces its own parent
            span(Some(0), 90, 120), // clipped to the parent: 90..100
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 20, 15, 5, 30]);
    }

    #[test]
    fn parses_proc_stat_with_hostile_comm() {
        let stat = "4242 (dc bench) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    123 45 0 0 20 0 9 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(168));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert!(process_peak_rss_mib().unwrap() > 0.0);
        assert!(process_cpu_seconds().is_some());
    }
}
