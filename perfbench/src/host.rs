//! Provenance: the host fingerprint, the source revision and the process's
//! peak memory, so results only compare like with like.

use std::path::Path;
use std::process::Command;

use iba_obs::json::JsonObjWriter;

#[derive(Debug, Clone)]
pub struct Host {
    /// Online CPUs (`/sys/devices/system/cpu/online`).
    pub nproc: u64,
    pub available_parallelism: u64,
    pub cpu_model: String,
    pub l2: String,
    pub l3: String,
}

impl Host {
    pub fn collect() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string());
        Host {
            nproc: std::fs::read_to_string("/sys/devices/system/cpu/online")
                .ok()
                .and_then(|s| count_cpus(s.trim()))
                .unwrap_or(0),
            available_parallelism: std::thread::available_parallelism()
                .map_or(0, |p| p.get() as u64),
            cpu_model,
            l2: cache_size(2),
            l3: cache_size(3),
        }
    }
}

/// Counts the CPUs in a list such as `0-3,6,8-9`.
fn count_cpus(list: &str) -> Option<u64> {
    let mut total = 0;
    for part in list.split(',') {
        total += match part.split_once('-') {
            Some((a, b)) => b.parse::<u64>().ok()? - a.parse::<u64>().ok()? + 1,
            None => {
                part.parse::<u64>().ok()?;
                1
            }
        };
    }
    Some(total)
}

/// Size of cpu0's unified or data cache at `level`, as `/sys` prints it.
fn cache_size(level: u32) -> String {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).map(|s| s.trim().to_string());
        if read("level").ok() == Some(level.to_string())
            && read("type").ok().as_deref() != Some("Instruction")
        {
            if let Ok(size) = read("size") {
                return size;
            }
        }
    }
    "unknown".to_string()
}

/// `(rev, dirty)` of the checkout in the working directory. A directory
/// that is not a git work tree reports `unknown`; git is never asked to
/// search the parent directories.
pub fn git_rev() -> (String, Option<bool>) {
    if !Path::new(".git").exists() {
        return ("unknown".to_string(), None);
    }
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git").args(args).output().ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) => {
            let dirty =
                git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
            (rev, dirty)
        }
        None => ("unknown".to_string(), None),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`, 10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The provenance object: host fingerprint, revision, seed and the
/// workload's parameters.
pub fn provenance_json(workload: &str, seed: u64, params: &[(String, String)]) -> String {
    let host = Host::collect();
    let (rev, dirty) = git_rev();
    let mut w = JsonObjWriter::new();
    w.field_str("workload", workload);
    w.field_u64("seed", seed);
    w.field_u64("nproc", host.nproc);
    w.field_u64("available_parallelism", host.available_parallelism);
    w.field_str("cpu_model", &host.cpu_model);
    w.field_str("l2", &host.l2);
    w.field_str("l3", &host.l3);
    w.field_str("git_rev", &rev);
    match dirty {
        Some(d) => w.field_bool("git_dirty", d),
        None => w.field_null("git_dirty"),
    }
    let mut p = JsonObjWriter::new();
    for (k, v) in params {
        p.field_str(k, v);
    }
    w.field_raw("params", &p.finish());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_count() {
        assert_eq!(count_cpus("0"), Some(1));
        assert_eq!(count_cpus("0-1"), Some(2));
        assert_eq!(count_cpus("0-3,6,8-9"), Some(7));
        assert_eq!(count_cpus("x"), None);
    }
}
