//! Host fingerprint and process measurements.
//!
//! Every result depends on threads, so every result file records what the
//! host looked like: CPU model, cores, NUMA nodes, per-core L2 and shared L3,
//! the target features the binary was compiled for, rustc and the git commit
//! (the last two handed in by `run.sh`, which can ask the tools).

use crate::json::Json;
use std::fs;

/// Worker threads a training workload uses: `min(cores, 4)` rounded down to
/// even so they split into two locality groups; 1 on a single-core host.
pub fn worker_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match cores.min(4) {
        0 | 1 => 1,
        n => n & !1,
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.trim().to_string())
}

/// `"4096K"` / `"260M"` → bytes.
fn parse_cache_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

fn cache_bytes(level: u32) -> u64 {
    (0..8)
        .find_map(|index| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let is_level = read_trimmed(&format!("{dir}/level"))? == level.to_string();
            let holds_data = read_trimmed(&format!("{dir}/type"))? != "Instruction";
            (is_level && holds_data)
                .then(|| parse_cache_size(&read_trimmed(&format!("{dir}/size"))?))
                .flatten()
        })
        .unwrap_or(0)
}

pub fn numa_nodes() -> usize {
    fs::read_dir("/sys/devices/system/node")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|entry| {
                    let name = entry.file_name();
                    let name = name.to_string_lossy();
                    name.strip_prefix("node")
                        .is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_digit()))
                })
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The SIMD-relevant target features this binary was *compiled* with (what
/// the kernels can actually use, as opposed to what the CPU offers).
fn target_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    for (name, enabled) in [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ] {
        if enabled {
            features.push(name);
        }
    }
    features
}

pub struct Host {
    pub cpu_model: String,
    pub cores: usize,
    pub nodes: usize,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            cpu_model: cpu_model(),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            nodes: numa_nodes(),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }

    /// `cores × nodes × CPU model slug` — the key baselines are filed under.
    pub fn class(&self) -> String {
        let slug: String = self
            .cpu_model
            .to_ascii_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let slug = slug
            .split('-')
            .filter(|part| !part.is_empty())
            .collect::<Vec<_>>()
            .join("-");
        format!("{}c-{}n-{slug}", self.cores, self.nodes)
    }

    pub fn to_json(&self) -> Json {
        let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
        Json::obj([
            ("class", Json::str(self.class())),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("cores", Json::Num(self.cores as f64)),
            ("numa_nodes", Json::Num(self.nodes as f64)),
            ("l2_bytes_per_core", Json::Num(self.l2_bytes as f64)),
            ("l3_bytes", Json::Num(self.l3_bytes as f64)),
            (
                "target_features",
                Json::Arr(target_features().into_iter().map(Json::str).collect()),
            ),
            ("rustc", Json::str(env("DW_BENCH_RUSTC"))),
            ("git_commit", Json::str(env("DW_BENCH_COMMIT"))),
            ("workers", Json::Num(worker_count() as f64)),
        ])
    }
}

/// Restart the kernel's peak-RSS watermark at the current RSS, so the next
/// [`peak_rss_bytes`] reads the peak *since this call*.  Returns `false`
/// where the kernel refuses (`/proc/self/clear_refs` not writable); peaks
/// are then process-wide, which the result file records.
pub fn reset_peak_rss() -> bool {
    release_free_heap();
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the allocator's free pages back to the kernel.  glibc keeps what an
/// earlier session freed (its mmap threshold grows to 32 MiB once large
/// blocks have been freed), and how much of it the next session can reuse
/// varies: without this one session in four peaks 15-45 MB above the rest.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and is thread-safe; it only
    // returns free heap pages to the kernel.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Peak resident set size (`VmHWM`) of this process, in bytes, since the
/// last successful [`reset_peak_rss`] (since process start without one).
pub fn peak_rss_bytes() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("4096K"), Some(4 << 20));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn class_is_a_filename_safe_slug() {
        let host = Host {
            cpu_model: "Intel(R) Xeon(R) Processor @ 2.10GHz".to_string(),
            cores: 2,
            nodes: 1,
            l2_bytes: 0,
            l3_bytes: 0,
        };
        assert_eq!(host.class(), "2c-1n-intel-r-xeon-r-processor-2-10ghz");
    }
}
