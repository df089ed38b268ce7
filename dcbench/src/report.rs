//! Numbers out: order statistics, the process's peak memory, the run
//! stamp, and the one-line JSON the driver reads.

use std::collections::BTreeMap;
use std::path::Path;

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// How many equal time slices a leg of `dur_s` is cut into, aiming at
/// `slice_s` each. Each gated number is the median of its per-slice
/// values, so a burst of interference from the shared box (or the cold
/// first slice) moves a few slices, not the result.
pub fn slices(dur_s: f64, slice_s: f64) -> usize {
    ((dur_s / slice_s).round() as usize).clamp(5, 40)
}

/// Slice length of the sat leg, and of the paced leg (longer, so that the
/// slowest-paced workload still has ten samples beyond each slice's p95).
pub const SAT_SLICE_S: f64 = 0.5;
pub const PACED_SLICE_S: f64 = 1.0;

/// Events/s in each equal slice of `[0, dur_s)`, from ascending
/// `(time ns, events accounted)` marks.
pub fn slice_rates(progress: &[(u64, u64)], dur_s: f64) -> Vec<f64> {
    let n = slices(dur_s, SAT_SLICE_S);
    let slice_ns = dur_s * 1e9 / n as f64;
    // Events accounted at time `t`, interpolated between the marks around
    // it so a slice boundary inside a step does not quantize the rate.
    let events_at = |t: f64| {
        let i = progress.partition_point(|(at, _)| (*at as f64) <= t);
        let (t0, e0) = if i == 0 {
            (0.0, 0.0)
        } else {
            (progress[i - 1].0 as f64, progress[i - 1].1 as f64)
        };
        match progress.get(i) {
            Some((t1, e1)) if *t1 as f64 > t0 => {
                e0 + (*e1 as f64 - e0) * (t - t0) / (*t1 as f64 - t0)
            }
            _ => e0,
        }
    };
    (0..n)
        .map(|i| {
            let (lo, hi) = (
                events_at(i as f64 * slice_ns),
                events_at((i + 1) as f64 * slice_ns),
            );
            (hi - lo) / (slice_ns / 1e9).max(1e-9)
        })
        .collect()
}

/// The `p`th percentile of the values in each non-empty slice, from
/// `(time ns, value)` samples.
pub fn slice_percentiles(samples: &[(u64, u64)], dur_s: f64, p: f64) -> Vec<f64> {
    let n = slices(dur_s, PACED_SLICE_S);
    let slice_ns = dur_s * 1e9 / n as f64;
    let mut by_slice: Vec<Vec<u64>> = vec![Vec::new(); n];
    for (at, v) in samples {
        let i = ((*at as f64 / slice_ns.max(1.0)) as usize).min(n - 1);
        by_slice[i].push(*v);
    }
    by_slice
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|mut s| {
            s.sort_unstable();
            percentile(&s, p)
        })
        .collect()
}

/// Interquartile mean: the mean of what is left after dropping the lowest
/// and the highest quarter. How the per-slice values of a leg become one
/// number: a burst of interference, or the cold first slice, lands in a
/// dropped quarter, and the rest is averaged rather than picked, which a
/// two-humped set of slices needs to stay steady.
pub fn iqm(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, point, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), ty.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, ty)| ty)
}

/// HEAD of the repository the benchmark runs in; `none` in a checkout
/// that is not a git repository.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "none".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return sha.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_owned()))
        })
        .unwrap_or_else(|| "none".to_owned())
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn count_rust_lines(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                count_rust_lines(&p)
            } else if p.extension().is_some_and(|x| x == "rs") {
                std::fs::read_to_string(&p).map_or(0, |s| {
                    s.lines().filter(|l| !l.trim().is_empty()).count() as u64
                })
            } else {
                0
            }
        })
        .sum()
}

/// Non-blank Rust lines under each `crates/<name>/src`, for the "less
/// code, same numbers" line of the roadmap. Informational.
pub fn rust_loc() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir("crates") {
        for e in entries.flatten() {
            let n = count_rust_lines(&e.path().join("src"));
            if n > 0 {
                out.insert(e.file_name().to_string_lossy().into_owned(), n);
            }
        }
    }
    out
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn slices_split_by_time() {
        // 7 s leg, one mark per 0.25 s, 10 events per mark.
        let progress: Vec<(u64, u64)> = (1..=28).map(|i| (i * 250_000_000, i * 10)).collect();
        let rates = slice_rates(&progress, 7.0);
        assert_eq!(rates.len(), 14);
        assert!(rates.iter().all(|r| (*r - 40.0).abs() < 1e-9), "{rates:?}");
        let samples: Vec<(u64, u64)> = (0..70).map(|i| (i * 100_000_000, i)).collect();
        let p50 = slice_percentiles(&samples, 7.0, 50.0);
        assert_eq!(p50, vec![4.0, 14.0, 24.0, 34.0, 44.0, 54.0, 64.0]);
    }

    #[test]
    fn iqm_drops_both_quarters() {
        assert_eq!(iqm(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(iqm(&[7.0]), 7.0);
        assert_eq!(iqm(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_shape() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
