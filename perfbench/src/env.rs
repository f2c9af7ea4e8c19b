//! The pinned environment a result is valid in, and the provenance
//! recorded with it.

use pollux::des_overlay::QueueBackend;

/// Refuses to run when any `POLLUX_*` variable is set: they switch
/// library behaviour behind the benchmark's back (`POLLUX_DES_QUEUE`
/// picks the DES queue, `POLLUX_SOLVER_DEBUG` adds I/O to the solvers).
pub fn check_pinned(vars: impl Iterator<Item = (String, String)>) -> Result<(), String> {
    let set: Vec<String> = vars
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("POLLUX_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// Where and with what a result was measured.
pub struct Provenance {
    pub commit: String,
    pub rustc: &'static str,
    pub nproc: usize,
    pub cpu: String,
    pub l3_bytes: Option<u64>,
    pub queue: String,
}

impl Provenance {
    /// Reads the provenance of this process and machine.
    pub fn collect() -> Provenance {
        Provenance {
            commit: commit().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC"),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines().find_map(|l| {
                        l.strip_prefix("model name")
                            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
                    })
                })
                .unwrap_or_else(|| "unknown".into()),
            l3_bytes: l3_bytes(),
            queue: format!("{:?}", QueueBackend::Auto.resolve()),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": {}, \"rustc\": {}, \"nproc\": {}, \"cpu\": {}, \"l3_bytes\": {}, \"des_queue\": {}}}",
            quote(&self.commit),
            quote(self.rustc),
            self.nproc,
            quote(&self.cpu),
            self.l3_bytes.map_or("null".into(), |b| b.to_string()),
            quote(&self.queue),
        )
    }
}

fn quote(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

/// Size of the last-level (L3) cache of CPU 0.
pub fn l3_bytes() -> Option<u64> {
    let size = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let size = size.trim();
    let (digits, scale) = match size.chars().last()? {
        'K' => (&size[..size.len() - 1], 1 << 10),
        'M' => (&size[..size.len() - 1], 1 << 20),
        _ => (size, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pollux_variables_are_refused() {
        let vars = |list: &[&str]| {
            list.iter()
                .map(|k| (k.to_string(), "1".to_string()))
                .collect::<Vec<_>>()
        };
        assert!(check_pinned(vars(&["PATH", "HOME"]).into_iter()).is_ok());
        let err = check_pinned(vars(&["PATH", "POLLUX_DES_QUEUE"]).into_iter()).unwrap_err();
        assert!(err.contains("POLLUX_DES_QUEUE"));
    }

    #[test]
    fn provenance_is_valid_json_text() {
        let p = Provenance {
            commit: "abc".into(),
            rustc: "rustc 1.0",
            nproc: 2,
            cpu: "a \"quoted\" cpu".into(),
            l3_bytes: None,
            queue: "Heap".into(),
        };
        assert_eq!(
            p.to_json(),
            "{\"commit\": \"abc\", \"rustc\": \"rustc 1.0\", \"nproc\": 2, \"cpu\": \"a \\\"quoted\\\" cpu\", \"l3_bytes\": null, \"des_queue\": \"Heap\"}"
        );
    }
}
