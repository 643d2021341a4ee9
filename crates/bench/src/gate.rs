//! Benchmark regression gate: compares a fresh bench report against the
//! committed baseline and fails when a speedup ratio regresses.
//!
//! Gating on *ratios* rather than wall-clock times is what makes this
//! viable in CI: absolute timings swing wildly across runner generations,
//! but blocked-over-naive speedups are paired measurements on the same
//! machine in the same process, so a genuine kernel regression (say, a
//! change that quietly serializes the pool or deoptimizes a micro-kernel)
//! shows up as the ratio collapsing while noise largely cancels.
//!
//! The report's `speedups` object is parsed with a purpose-built scanner
//! instead of a JSON library so the gate works — and its tests run — in
//! dependency-stripped environments; the object is flat (`string: number`
//! pairs only), which is all the scanner supports by design.

use std::collections::BTreeMap;

/// Fraction a speedup may fall below its baseline before the gate fails.
/// 25% absorbs run-to-run noise on shared CI runners while still catching
/// any change that costs a kernel a meaningful part of its win.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Extracts the flat `"speedups": { "key": number, ... }` object from a
/// bench report rendered by the `gemm` binary.
///
/// # Errors
///
/// Returns a description of the first structural problem: no `speedups`
/// key, unbalanced braces, a malformed entry, or an empty map.
pub fn extract_speedups(json: &str) -> Result<BTreeMap<String, f64>, String> {
    let key_at = json
        .find("\"speedups\"")
        .ok_or_else(|| "report has no \"speedups\" object".to_string())?;
    let open = json[key_at..]
        .find('{')
        .map(|o| key_at + o)
        .ok_or_else(|| "\"speedups\" is not followed by an object".to_string())?;
    // The object is flat by construction, so the next '}' closes it.
    let close = json[open..]
        .find('}')
        .map(|c| open + c)
        .ok_or_else(|| "\"speedups\" object is never closed".to_string())?;
    let mut out = BTreeMap::new();
    for entry in json[open + 1..close].split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("malformed speedups entry: {entry:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("speedups[{key:?}] is not a number: {e}"))?;
        out.insert(key, value);
    }
    if out.is_empty() {
        return Err("\"speedups\" object is empty".to_string());
    }
    Ok(out)
}

/// Compares `current` against `baseline`: every baseline key must be
/// present and its current speedup must not fall below
/// `baseline · (1 − tolerance)`. Returns one human-readable violation per
/// failure, empty when the gate passes.
///
/// Direction-aware by design: a *faster* current run never fails the gate,
/// and keys present only in `current` (a newly added kernel the baseline
/// predates) are ignored rather than failed.
#[must_use]
pub fn check(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (key, &base) in baseline {
        match current.get(key) {
            None => violations.push(format!(
                "{key}: present in baseline but missing from the current report"
            )),
            Some(&cur) if cur < base * (1.0 - tolerance) => violations.push(format!(
                "{key}: speedup {cur:.3}x fell more than {:.0}% below the baseline {base:.3}x",
                tolerance * 100.0
            )),
            Some(_) => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "bench": "gemm",
  "mode": "smoke",
  "kernels": [
    { "kernel": "matmul_into", "naive_ms": 5.600, "speedup_blocked": 1.333 }
  ],
  "speedups": {
    "matmul_into": 1.333,
    "matmul_fast": 1.410
  }
}
"#;

    #[test]
    fn extracts_the_flat_speedups_map() {
        let map = extract_speedups(REPORT).unwrap();
        assert_eq!(map.len(), 2);
        assert!((map["matmul_into"] - 1.333).abs() < 1e-9);
        assert!((map["matmul_fast"] - 1.41).abs() < 1e-9);
    }

    #[test]
    fn extraction_rejects_reports_without_speedups() {
        assert!(extract_speedups("{}").is_err());
        assert!(extract_speedups("{\"speedups\": {}}").is_err());
        assert!(extract_speedups("{\"speedups\": {\"a\": \"fast\"}}").is_err());
    }

    #[test]
    fn identical_reports_pass() {
        let map = extract_speedups(REPORT).unwrap();
        assert!(check(&map, &map, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn injected_2x_slowdown_fails_the_gate() {
        // Doctor the report: halve the `matmul_fast` speedup, the signature
        // of a change that made the blocked kernel twice as slow.
        let doctored = REPORT.replace("\"matmul_fast\": 1.410", "\"matmul_fast\": 0.705");
        let current = extract_speedups(&doctored).unwrap();
        let baseline = extract_speedups(REPORT).unwrap();
        let violations = check(&current, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("matmul_fast:"), "{violations:?}");
    }

    #[test]
    fn missing_baseline_key_fails_the_gate() {
        let baseline = extract_speedups(REPORT).unwrap();
        let mut current = baseline.clone();
        current.remove("matmul_into");
        let violations = check(&current, &baseline, DEFAULT_TOLERANCE);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("missing"));
    }

    #[test]
    fn tolerance_boundary_is_one_sided() {
        let baseline = BTreeMap::from([("k".to_string(), 2.0f64)]);
        // 24% below the baseline: inside the 25% band.
        let near = BTreeMap::from([("k".to_string(), 2.0 * 0.76)]);
        assert!(check(&near, &baseline, DEFAULT_TOLERANCE).is_empty());
        // 26% below: out.
        let out = BTreeMap::from([("k".to_string(), 2.0 * 0.74)]);
        assert_eq!(check(&out, &baseline, DEFAULT_TOLERANCE).len(), 1);
        // Faster than the baseline never fails, and extra current-only keys
        // are ignored.
        let faster = BTreeMap::from([("k".to_string(), 4.0), ("new_kernel".to_string(), 1.0)]);
        assert!(check(&faster, &baseline, DEFAULT_TOLERANCE).is_empty());
    }

    #[test]
    fn committed_baseline_parses_and_covers_the_gated_kernels() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/bench_baseline.json");
        let data = std::fs::read_to_string(path).expect("bench_baseline.json is committed");
        let baseline = extract_speedups(&data).expect("baseline parses");
        for key in [
            "matmul_into",
            "matmul_bt_packed",
            "matmul_fast",
            "matmul_t_accum",
            "matmul_t_accum_fast",
            "decode_quantized_vs_pinned",
        ] {
            assert!(baseline.contains_key(key), "baseline lacks {key}");
        }
    }
}
