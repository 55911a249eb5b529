//! Physical NUMA placement: host-topology discovery, worker-thread pinning,
//! and page-range memory binding.
//!
//! Everything else in this crate *models* a NUMA machine; this module makes
//! the placement physical on hosts that can honor it.  Three layers, each
//! degrading gracefully:
//!
//! * [`HostTopology`] — the machine actually running the process, discovered
//!   from `/sys/devices/system/node/*` (node count, per-node cpulists,
//!   per-node DRAM).  Parsing is factored over a root path so a unit test
//!   can point it at a fixture tree; a host without the sysfs tree (macOS,
//!   restricted containers) probes to `None`.
//! * [`pin_current_thread`] — plain `sched_setaffinity(2)` thread pinning,
//!   declared directly against the platform libc (the same no-external-dep
//!   pattern as the `mmap` feature of `dw-matrix`).  **Not** feature-gated:
//!   pinning a worker to a core is useful even on single-node hosts, and a
//!   failed call is a no-op, never an error.
//! * [`NodeBinder`] — `mbind(2)` page-range binding of an *existing* shared
//!   allocation, gated behind the `numa` cargo feature.  `mbind` has no
//!   glibc wrapper (it historically lives in libnuma), so the raw
//!   `syscall(2)` entry point is used with per-architecture numbers.  The
//!   binder rounds each range inward to page boundaries so a boundary page
//!   shared by two adjacent shards is bound by neither, and moves
//!   already-touched pages (`MPOL_MF_MOVE`) — no copies, the shard views
//!   keep serving the same bytes.  On single-node hosts, non-Linux targets,
//!   or builds without the feature it is a faithful stub:
//!   [`NodeBinder::is_active`] is `false` and every bind is a recorded
//!   no-op.
//!
//! Binding never changes *what* executes — only where the bytes live — so
//! convergence traces must stay bit-identical with binding on or off.  The
//! root package's `memory_binding_never_moves_a_trace` test asserts exactly
//! that.

use crate::topology::MachineTopology;
use std::path::{Path, PathBuf};

/// Smallest page granularity `mbind` operates on.  Huge-page hosts still
/// accept 4 KiB-aligned ranges (the kernel rounds internally).
pub const PAGE_SIZE: usize = 4096;

// ---------------------------------------------------------------------------
// Host topology discovery (sysfs).
// ---------------------------------------------------------------------------

/// One NUMA node of the host: its online CPUs and attached DRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostNode {
    /// Kernel node id (the `N` of `/sys/devices/system/node/nodeN`).
    pub id: usize,
    /// CPUs attached to the node, parsed from its `cpulist`.
    pub cpus: Vec<usize>,
    /// DRAM attached to the node in bytes (0 when `meminfo` is absent).
    pub ram_bytes: u64,
}

/// The NUMA layout of the machine actually running the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostTopology {
    /// Nodes in ascending id order; never empty for a constructed topology.
    pub nodes: Vec<HostNode>,
}

impl HostTopology {
    /// Discover the host topology from the live sysfs tree.
    ///
    /// `None` when `/sys/devices/system/node` is absent or unreadable (the
    /// caller falls back to a preset).
    pub fn probe() -> Option<HostTopology> {
        Self::from_sysfs(Path::new("/sys/devices/system/node"))
    }

    /// Parse a sysfs-shaped tree rooted at `root`: each `nodeN/` directory
    /// contributes one [`HostNode`] from its `cpulist` (required) and
    /// `meminfo` (optional).  Factored over the root so tests run against a
    /// fixture tree.
    pub fn from_sysfs(root: &Path) -> Option<HostTopology> {
        let entries = std::fs::read_dir(root).ok()?;
        let mut nodes = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name
                .strip_prefix("node")
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            let dir: PathBuf = entry.path();
            let Ok(cpulist) = std::fs::read_to_string(dir.join("cpulist")) else {
                continue;
            };
            let cpus = parse_cpulist(&cpulist);
            if cpus.is_empty() {
                // Memory-only (CXL-style) nodes hold no CPUs; workers cannot
                // be collocated with them, so they don't form a locality
                // group.
                continue;
            }
            let ram_bytes = std::fs::read_to_string(dir.join("meminfo"))
                .ok()
                .and_then(|m| parse_meminfo_total_kb(&m))
                .map(|kb| kb * 1024)
                .unwrap_or(0);
            nodes.push(HostNode {
                id,
                cpus,
                ram_bytes,
            });
        }
        if nodes.is_empty() {
            return None;
        }
        nodes.sort_by_key(|n| n.id);
        Some(HostTopology { nodes })
    }

    /// Total CPUs across all nodes.
    pub fn total_cpus(&self) -> usize {
        self.nodes.iter().map(|n| n.cpus.len()).sum()
    }

    /// Whether the host has more than one NUMA node (binding can win).
    pub fn is_multi_node(&self) -> bool {
        self.nodes.len() > 1
    }

    /// Project the detected host onto the [`MachineTopology`] shape the
    /// cost model consumes.  Bandwidth/cache figures keep the `local2`
    /// defaults — they calibrate the *model*, not the physical placement —
    /// while node count, cores per node, and DRAM come from the host.
    pub fn to_machine(&self) -> MachineTopology {
        let cores_per_node = self
            .nodes
            .iter()
            .map(|n| n.cpus.len())
            .min()
            .unwrap_or(1)
            .max(1);
        let ram_gb = self
            .nodes
            .iter()
            .map(|n| (n.ram_bytes >> 30) as usize)
            .max()
            .unwrap_or(0)
            .max(1);
        let preset = MachineTopology::local2();
        MachineTopology {
            name: format!("detected-{}x{}", cores_per_node, self.nodes.len()),
            nodes: self.nodes.len(),
            cores_per_node,
            ram_per_node_gb: ram_gb,
            ..preset
        }
    }
}

/// Parse a kernel cpulist (`"0-5,12-17"`, `"3"`, `"0,2,4"`) into CPU ids.
pub fn parse_cpulist(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = part.split_once('-') {
            if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
                cpus.extend(lo..=hi);
            }
        } else if let Ok(cpu) = part.parse::<usize>() {
            cpus.push(cpu);
        }
    }
    cpus
}

/// Extract the `MemTotal` figure (kB) from a node `meminfo` file
/// (`"Node 0 MemTotal:       32768 kB"`).
fn parse_meminfo_total_kb(meminfo: &str) -> Option<u64> {
    for line in meminfo.lines() {
        let Some(idx) = line.find("MemTotal:") else {
            continue;
        };
        let rest = &line[idx + "MemTotal:".len()..];
        let kb = rest.split_whitespace().next()?.parse::<u64>().ok()?;
        return Some(kb);
    }
    None
}

// ---------------------------------------------------------------------------
// Thread pinning: sched_setaffinity(2), unconditionally available on Linux.
// ---------------------------------------------------------------------------

/// `cpu_set_t` is 128 bytes (1024 CPUs) in glibc's default ABI.
const CPU_SET_WORDS: usize = 16;
const MAX_PINNABLE_CPU: usize = CPU_SET_WORDS * 64;

#[cfg(target_os = "linux")]
mod affinity {
    // sched_setaffinity *does* have a glibc wrapper (unlike mbind), so it
    // is declared directly — the same no-external-dep pattern as the mmap
    // declarations in dw-matrix.
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin(cpu: usize, words: usize) -> bool {
        let mut mask = vec![0u64; words];
        mask[cpu / 64] |= 1u64 << (cpu % 64);
        // SAFETY: the mask outlives the call and is `words * 8` bytes.
        let rc = unsafe { sched_setaffinity(0, words * 8, mask.as_ptr()) };
        rc == 0
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin(_cpu: usize, _words: usize) -> bool {
        false
    }
}

/// Pin the calling thread to one CPU.  Best-effort: returns `false` (and
/// changes nothing) when the CPU id is out of range, the kernel refuses
/// (cgroup cpuset restrictions), or the target is not Linux.
pub fn pin_current_thread(cpu: usize) -> bool {
    if cpu >= MAX_PINNABLE_CPU {
        return false;
    }
    affinity::pin(cpu, CPU_SET_WORDS)
}

// ---------------------------------------------------------------------------
// Memory binding: mbind(2)/set_mempolicy(2) via raw syscall numbers,
// feature-gated as `numa`.
// ---------------------------------------------------------------------------

/// True when the build carries the raw `mbind` backend.
pub const fn mbind_supported() -> bool {
    cfg!(all(
        feature = "numa",
        target_os = "linux",
        target_pointer_width = "64",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

#[cfg(all(
    feature = "numa",
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::os::raw::{c_long, c_ulong};

    // mbind/set_mempolicy have no libc wrapper (they historically live in
    // libnuma), so they go through the raw syscall(2) entry point with
    // per-architecture numbers.
    #[cfg(target_arch = "x86_64")]
    pub const SYS_MBIND: c_long = 237;
    #[cfg(target_arch = "x86_64")]
    pub const SYS_SET_MEMPOLICY: c_long = 238;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_MBIND: c_long = 235;
    #[cfg(target_arch = "aarch64")]
    pub const SYS_SET_MEMPOLICY: c_long = 237;

    pub const MPOL_DEFAULT: c_long = 0;
    pub const MPOL_BIND: c_long = 2;
    /// Move already-touched pages to the bound node.
    pub const MPOL_MF_MOVE: c_long = 1 << 1;
    /// One mask word covers nodes 0..63.
    pub const MAX_NODE_BITS: c_long = 64;

    extern "C" {
        pub fn syscall(num: c_long, ...) -> c_long;
    }

    /// Bind `[addr, addr+len)` to `node`, migrating resident pages.
    pub fn mbind_to_node(addr: usize, len: usize, node: usize) -> bool {
        let nodemask: c_ulong = 1 << node;
        let rc = unsafe {
            syscall(
                SYS_MBIND,
                addr as c_long,
                len as c_long,
                MPOL_BIND,
                &nodemask as *const c_ulong,
                MAX_NODE_BITS,
                MPOL_MF_MOVE,
            )
        };
        rc == 0
    }

    /// Set the calling thread's allocation policy to bind on `node`
    /// (first-touch allocations land there until reset).
    pub fn set_mempolicy_bind(node: usize) -> bool {
        let nodemask: c_ulong = 1 << node;
        let rc = unsafe {
            syscall(
                SYS_SET_MEMPOLICY,
                MPOL_BIND,
                &nodemask as *const c_ulong,
                MAX_NODE_BITS,
            )
        };
        rc == 0
    }

    /// Restore the default (local first-touch) allocation policy.
    pub fn set_mempolicy_default() -> bool {
        let rc = unsafe {
            syscall(
                SYS_SET_MEMPOLICY,
                MPOL_DEFAULT,
                std::ptr::null::<c_ulong>(),
                0 as c_long,
            )
        };
        rc == 0
    }
}

/// The faithful stub: identical signatures, every call refuses.
#[cfg(not(all(
    feature = "numa",
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub fn mbind_to_node(_addr: usize, _len: usize, _node: usize) -> bool {
        false
    }

    pub fn set_mempolicy_bind(_node: usize) -> bool {
        false
    }

    pub fn set_mempolicy_default() -> bool {
        false
    }
}

/// Set the calling thread's allocations to bind on `node` until
/// [`reset_thread_mempolicy`].  Stubbed to `false` without the `numa`
/// backend.
pub fn set_thread_mempolicy_bind(node: usize) -> bool {
    sys::set_mempolicy_bind(node)
}

/// Restore the default first-touch allocation policy for the calling
/// thread.  Stubbed to `false` without the `numa` backend.
pub fn reset_thread_mempolicy() -> bool {
    sys::set_mempolicy_default()
}

/// Binds page ranges of an existing shared allocation to NUMA nodes.
///
/// Active only when the `numa` backend is compiled in **and** the host has
/// more than one node; everywhere else every call is a faithful no-op that
/// still does the same bookkeeping, so callers never branch on the feature.
#[derive(Debug, Clone)]
pub struct NodeBinder {
    host_nodes: usize,
    active: bool,
}

impl NodeBinder {
    /// Probe the host and build a binder (inert on single-node hosts or
    /// stub builds).
    pub fn detect() -> NodeBinder {
        let host_nodes = HostTopology::probe().map(|h| h.nodes.len()).unwrap_or(1);
        NodeBinder {
            host_nodes,
            active: mbind_supported() && host_nodes > 1,
        }
    }

    /// An always-inert binder (the recorded no-op path).
    pub fn inert() -> NodeBinder {
        NodeBinder {
            host_nodes: 1,
            active: false,
        }
    }

    /// Whether binds physically move pages on this host/build.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// NUMA nodes the host exposes (1 when undetectable).
    pub fn host_nodes(&self) -> usize {
        self.host_nodes
    }

    /// Bind the page-aligned interior of `[addr, addr+len)` to `node`,
    /// migrating resident pages; returns the bytes covered by a successful
    /// bind (0 for no-ops, failures, or ranges smaller than one page after
    /// inward alignment).
    ///
    /// Ranges are rounded *inward* — start up, end down — so a boundary
    /// page shared by two adjacent shards is bound by neither; the kernel
    /// leaves it wherever first-touch put it.  The bytes themselves never
    /// move in address space: shard views keep serving identical content.
    pub fn bind_range(&self, addr: usize, len: usize, node: usize) -> u64 {
        if !self.active || node >= self.host_nodes || len == 0 {
            return 0;
        }
        let start = (addr + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        let end = (addr + len) & !(PAGE_SIZE - 1);
        if end <= start {
            return 0;
        }
        if sys::mbind_to_node(start, end - start, node) {
            (end - start) as u64
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpulist_parsing_handles_ranges_and_singles() {
        assert_eq!(parse_cpulist("0-5,12-17\n"), {
            let mut v: Vec<usize> = (0..=5).collect();
            v.extend(12..=17);
            v
        });
        assert_eq!(parse_cpulist("3"), vec![3]);
        assert_eq!(parse_cpulist("0,2,4"), vec![0, 2, 4]);
        assert_eq!(parse_cpulist(""), Vec::<usize>::new());
        assert_eq!(parse_cpulist("junk"), Vec::<usize>::new());
    }

    #[test]
    fn meminfo_parsing_reads_the_total_line() {
        let meminfo = "Node 0 MemTotal:       32768 kB\nNode 0 MemFree:         1024 kB\n";
        assert_eq!(parse_meminfo_total_kb(meminfo), Some(32768));
        assert_eq!(parse_meminfo_total_kb("no such line"), None);
    }

    #[test]
    fn fixture_sysfs_tree_detects_nodes() {
        // Build a fake /sys/devices/system/node with two CPU-carrying nodes
        // and one memory-only node (which must be skipped).
        let root = std::env::temp_dir().join(format!(
            "dw-numa-fixture-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        for (name, cpulist, mem_kb) in [
            ("node0", "0-5", Some(33554432u64)),
            ("node1", "6-11\n", Some(33554432u64)),
            ("node2", "", None), // memory-only node: no CPUs
        ] {
            let dir = root.join(name);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("cpulist"), cpulist).unwrap();
            if let Some(kb) = mem_kb {
                std::fs::write(
                    dir.join("meminfo"),
                    format!("Node 0 MemTotal:       {kb} kB\n"),
                )
                .unwrap();
            }
        }
        // An unrelated directory must be ignored.
        std::fs::create_dir_all(root.join("possible")).unwrap();

        let host = HostTopology::from_sysfs(&root).expect("fixture parses");
        assert_eq!(host.nodes.len(), 2);
        assert_eq!(host.nodes[0].cpus, (0..=5).collect::<Vec<_>>());
        assert_eq!(host.nodes[1].cpus, (6..=11).collect::<Vec<_>>());
        assert_eq!(host.nodes[0].ram_bytes, 33554432 * 1024);
        assert!(host.is_multi_node());
        assert_eq!(host.total_cpus(), 12);

        let machine = host.to_machine();
        assert_eq!(machine.nodes, 2);
        assert_eq!(machine.cores_per_node, 6);
        assert_eq!(machine.ram_per_node_gb, 32);
        assert_eq!(machine.total_cores(), 12);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_sysfs_root_probes_to_none() {
        let root = Path::new("/definitely/not/a/sysfs/tree");
        assert_eq!(HostTopology::from_sysfs(root), None);
    }

    #[test]
    fn inert_binder_records_noops() {
        let binder = NodeBinder::inert();
        assert!(!binder.is_active());
        let buf = vec![0u8; 4 * PAGE_SIZE];
        assert_eq!(binder.bind_range(buf.as_ptr() as usize, buf.len(), 0), 0);
    }

    #[test]
    fn bind_range_aligns_inward() {
        // A range whose page-aligned interior is empty must be refused by
        // the alignment arithmetic itself, before any syscall.
        let start = PAGE_SIZE + 100;
        let aligned_start = (start + PAGE_SIZE - 1) & !(PAGE_SIZE - 1);
        assert_eq!(aligned_start, 2 * PAGE_SIZE);
        let end = (start + PAGE_SIZE) & !(PAGE_SIZE - 1);
        assert_eq!(end, 2 * PAGE_SIZE);
        assert!(end <= aligned_start, "sub-page interior is empty");
    }

    #[test]
    fn pinning_is_best_effort() {
        // Out-of-range ids are rejected without a syscall.
        assert!(!pin_current_thread(MAX_PINNABLE_CPU));
        assert!(!pin_current_thread(usize::MAX));
        // The stub policy helpers refuse cleanly.
        if !mbind_supported() {
            assert!(!set_thread_mempolicy_bind(0));
            assert!(!reset_thread_mempolicy());
        }
    }
}
