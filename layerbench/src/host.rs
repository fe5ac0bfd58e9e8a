//! Host fingerprint recorded beside every run: nproc, CPU model, git rev.
//! Reads nothing outside the benchmark's checkout: the CPU model comes from
//! `cpuid`, the revision from the checkout's own `.git` when it has one.

use std::path::Path;

pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub git_rev: String,
}

impl Host {
    pub fn probe(repo_root: &Path) -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu: cpu_model(),
            git_rev: git_rev(repo_root).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    let s = String::from_utf8_lossy(&bytes);
    s.trim_matches(char::from(0)).trim().to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// The checkout's HEAD commit, resolved through loose or packed refs.
fn git_rev(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name).map(|rev| rev.trim().to_string()))
}
