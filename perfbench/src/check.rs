//! Output checks: per-cell digests of the simulated statistics against
//! a reference recorded at the default seed, and the ZIV invariants.

use std::collections::BTreeMap;
use ziv_common::json::{self, JsonValue};
use ziv_common::Fnv1a;
use ziv_sim::{RunResult, RunSpec};

/// The reference digests, recorded with `--record-reference` at the
/// default seed: `{"<workload>": {"<cell key>": "<hex digest>"}}`.
pub const REFERENCE_JSON: &str = include_str!("../reference.json");

/// Digest of everything a cell simulates: per-core instructions and
/// cycles plus every counter of its `Metrics`.
pub fn digest(r: &RunResult) -> u64 {
    let mut h = Fnv1a::new();
    for c in &r.cores {
        h.write_u64(c.instructions);
        h.write_u64(c.cycles);
    }
    h.write_str(&r.metrics.to_json().to_string());
    h.finish()
}

/// The ZIV guarantee: a ZIV cell suffers no inclusion victim and never
/// falls back to an inclusive eviction.
pub fn ziv_violation(spec: &RunSpec, r: &RunResult) -> Option<String> {
    let m = &r.metrics;
    (spec.mode.is_ziv() && (m.inclusion_victims != 0 || m.ziv_guarantee_fallbacks != 0)).then(
        || {
            format!(
                "ZIV cell reports {} inclusion victim(s) and {} guarantee fallback(s)",
                m.inclusion_victims, m.ziv_guarantee_fallbacks
            )
        },
    )
}

/// One workload's reference digests by cell key.
pub type Digests = BTreeMap<String, u64>;

/// Reads `workload`'s digests out of a reference document; an absent
/// workload yields an empty map.
///
/// # Errors
///
/// Malformed JSON or a digest that is not a 16-digit hex string.
pub fn load_reference(text: &str, workload: &str) -> Result<Digests, String> {
    let doc = json::parse(text).map_err(|e| format!("reference: {e}"))?;
    let Some(JsonValue::Obj(cells)) = doc.get(workload) else {
        return Ok(Digests::new());
    };
    cells
        .iter()
        .map(|(key, v)| {
            let hex = v
                .as_str()
                .ok_or_else(|| format!("reference {key}: not a string"))?;
            let d = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("reference {key}: '{hex}': {e}"))?;
            Ok((key.clone(), d))
        })
        .collect()
}

/// `text` with `workload`'s digests replaced by `digests` (other
/// workloads kept), pretty enough to diff: one cell per line.
///
/// # Errors
///
/// Malformed existing JSON.
pub fn store_reference(text: &str, workload: &str, digests: &Digests) -> Result<String, String> {
    let doc = json::parse(text).map_err(|e| format!("reference: {e}"))?;
    let JsonValue::Obj(mut workloads) = doc else {
        return Err("reference: not an object".into());
    };
    let cells = JsonValue::Obj(
        digests
            .iter()
            .map(|(k, d)| (k.clone(), JsonValue::str(format!("{d:016x}"))))
            .collect(),
    );
    match workloads.iter_mut().find(|(k, _)| k == workload) {
        Some((_, v)) => *v = cells,
        None => workloads.push((workload.to_string(), cells)),
    }
    let mut out = String::from("{\n");
    for (i, (w, cells)) in workloads.iter().enumerate() {
        let JsonValue::Obj(cells) = cells else {
            return Err(format!("reference {w}: not an object"));
        };
        out.push_str(&format!("  {}: {{\n", JsonValue::str(w.as_str())));
        for (j, (k, v)) in cells.iter().enumerate() {
            let sep = if j + 1 < cells.len() { "," } else { "" };
            out.push_str(&format!("    {}: {v}{sep}\n", JsonValue::str(k.as_str())));
        }
        let sep = if i + 1 < workloads.len() { "," } else { "" };
        out.push_str(&format!("  }}{sep}\n"));
    }
    out.push_str("}\n");
    Ok(out)
}

/// Checks one finished cell: the ZIV invariant always, and the digest
/// when a reference is given. Returns the digest, or why the cell fails.
///
/// # Errors
///
/// The invariant violation, a digest mismatch, or a cell missing from
/// the reference.
pub fn check_cell(
    key: &str,
    spec: &RunSpec,
    r: &RunResult,
    reference: Option<&Digests>,
) -> Result<u64, String> {
    if let Some(v) = ziv_violation(spec, r) {
        return Err(format!("{key}: {v}"));
    }
    let d = digest(r);
    match reference.map(|refs| refs.get(key)) {
        None => Ok(d),
        Some(Some(&want)) if want == d => Ok(d),
        Some(Some(&want)) => Err(format!(
            "{key}: digest {d:016x} differs from reference {want:016x}"
        )),
        Some(None) => Err(format!("{key}: no reference digest")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ziv_common::config::SystemConfig;
    use ziv_core::{LlcMode, ZivProperty};

    fn cell(mode: LlcMode) -> (RunSpec, RunResult) {
        let sys = SystemConfig::scaled();
        let wl = ziv_workloads::mixes::homogeneous(
            ziv_workloads::apps::APPS[4],
            2,
            500,
            1,
            ziv_workloads::ScaleParams::from_system(&sys),
        );
        let spec = RunSpec::new("x", sys).with_mode(mode);
        let r = ziv_sim::run_one(&spec, &wl);
        (spec, r)
    }

    #[test]
    fn wrong_reference_digest_is_caught() {
        let (spec, r) = cell(LlcMode::Inclusive);
        let good = Digests::from([("k".to_string(), digest(&r))]);
        assert_eq!(check_cell("k", &spec, &r, Some(&good)), Ok(digest(&r)));
        assert_eq!(check_cell("k", &spec, &r, None), Ok(digest(&r)));
        let wrong = Digests::from([("k".to_string(), digest(&r) ^ 1)]);
        let err = check_cell("k", &spec, &r, Some(&wrong)).unwrap_err();
        assert!(err.contains("differs from reference"), "{err}");
        let err = check_cell("other", &spec, &r, Some(&good)).unwrap_err();
        assert!(err.contains("no reference"), "{err}");
    }

    #[test]
    fn digest_covers_metrics_and_core_clocks() {
        let (_, r) = cell(LlcMode::Inclusive);
        let mut m = r.clone();
        m.metrics.llc_hits += 1;
        assert_ne!(digest(&r), digest(&m));
        let mut c = r.clone();
        c.cores[1].cycles += 1;
        assert_ne!(digest(&r), digest(&c));
        let mut l = r.clone();
        l.label = "relabelled".into();
        assert_eq!(digest(&r), digest(&l), "labels are presentation only");
    }

    #[test]
    fn ziv_invariant_is_checked_without_a_reference() {
        let (spec, mut r) = cell(LlcMode::Ziv(ZivProperty::LikelyDead));
        assert!(check_cell("k", &spec, &r, None).is_ok());
        r.metrics.ziv_guarantee_fallbacks = 1;
        assert!(check_cell("k", &spec, &r, None).is_err());
        let (spec, mut r) = cell(LlcMode::Inclusive);
        r.metrics.inclusion_victims = 5;
        assert!(
            check_cell("k", &spec, &r, None).is_ok(),
            "inclusive may have victims"
        );
    }

    #[test]
    fn reference_round_trips_per_workload() {
        let a = Digests::from([("c1".to_string(), 0xabc), ("c2".to_string(), u64::MAX)]);
        let text = store_reference("{}", "w1", &a).unwrap();
        let text = store_reference(&text, "w2", &Digests::new()).unwrap();
        assert_eq!(load_reference(&text, "w1").unwrap(), a);
        assert!(load_reference(&text, "w2").unwrap().is_empty());
        assert!(load_reference(&text, "absent").unwrap().is_empty());
        assert!(load_reference(r#"{"w": {"c": "zz"}}"#, "w").is_err());
    }
}
