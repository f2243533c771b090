//! The perf-regression ledger: an append-only `results/ledger.jsonl`
//! of simulated-count runs plus the comparison that gates CI.
//!
//! Each run of the `ledger` binary appends one [`LedgerEntry`] per
//! metric group: the git revision, a digest of the exact configuration
//! swept, and a flat metric map (simulated cycles, key counters,
//! histogram percentiles, snapshot bytes). Before appending, the run is
//! compared against the most recent committed entry with the *same*
//! config digest — so a config change starts a fresh baseline instead
//! of tripping a false alarm.
//!
//! Every metric is deterministic: byte-reproducible on a given revision
//! (the engine-equivalence suite pins that), so each gates at
//! [`THRESHOLD_PCT`] and any drift beyond it is a real behavioural
//! change someone must own. Host time is not recorded here; it belongs
//! to `benchmark/`. A metric present on one side only is shown as `new`
//! or `gone` and never gates, so a row that stops being emitted is
//! visible rather than silently dropped from the gate.
//!
//! Higher is worse for every metric the ledger records (cycles, stall
//! counters, latency percentiles); improvements are reported but never
//! fail.

use std::collections::{BTreeMap, BTreeSet};
use wb_kernel::json::{self, Json};

/// A metric may grow this much before the verdict flips to
/// `REGRESSED`. Nonzero to tolerate metrics that round (e.g. histogram
/// percentiles snapping between log-2 bucket bounds).
pub const THRESHOLD_PCT: f64 = 2.0;

/// One appended ledger record: a bench group measured at one revision
/// under one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Git revision the run was taken at (short hash, or `unknown`).
    pub rev: String,
    /// Digest of the swept configuration (cells, budgets, engine
    /// modes). Entries only compare against baselines with an equal
    /// digest.
    pub config_digest: String,
    /// Bench group name (e.g. `ledger-smoke`).
    pub group: String,
    /// Flat metric map. Keys sorted for stable JSON output.
    pub metrics: BTreeMap<String, u64>,
}

impl LedgerEntry {
    /// Render as a single JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"rev\":\"{}\",\"config_digest\":\"{}\",\"group\":\"{}\",\"metrics\":{{",
            json::escape(&self.rev),
            json::escape(&self.config_digest),
            json::escape(&self.group)
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json::escape(k)));
        }
        out.push_str("}}");
        out
    }

    /// Parse one JSONL line back into an entry (strict: every field
    /// required, metrics must be non-negative integers).
    pub fn parse_line(line: &str) -> Result<LedgerEntry, String> {
        let doc = json::parse(line)?;
        let field = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("ledger line missing string field {k:?}"))
        };
        let mut metrics = BTreeMap::new();
        for (k, v) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| "ledger line missing metrics object".to_owned())?
        {
            let n = v.as_u64().ok_or_else(|| format!("metric {k:?} is not a u64"))?;
            metrics.insert(k.clone(), n);
        }
        Ok(LedgerEntry {
            rev: field("rev")?,
            config_digest: field("config_digest")?,
            group: field("group")?,
            metrics,
        })
    }
}

/// Parse a whole ledger file (blank lines ignored), oldest first.
pub fn parse_ledger(src: &str) -> Result<Vec<LedgerEntry>, String> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| LedgerEntry::parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The newest entry matching `group` and `config_digest`, if any — the
/// baseline a fresh run compares against.
pub fn baseline_for<'a>(
    entries: &'a [LedgerEntry],
    group: &str,
    config_digest: &str,
) -> Option<&'a LedgerEntry> {
    entries.iter().rev().find(|e| e.group == group && e.config_digest == config_digest)
}

/// Per-metric verdict of one baseline/current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None`: the metric is new).
    pub base: Option<u64>,
    /// Current value (`None`: the metric is gone).
    pub cur: Option<u64>,
    /// Relative change in percent (positive = grew = worse; 0 when a
    /// side is missing).
    pub delta_pct: f64,
    /// `true` when the metric grew beyond [`THRESHOLD_PCT`].
    pub regressed: bool,
}

impl Comparison {
    /// Short verdict string for the table.
    pub fn verdict(&self) -> &'static str {
        match (self.base, self.cur) {
            (None, _) => "new",
            (_, None) => "gone",
            _ if self.regressed => "REGRESSED",
            _ if self.delta_pct < -THRESHOLD_PCT => "improved",
            _ => "ok",
        }
    }
}

/// Compare `cur` against `base` metric by metric, over the union of
/// their metrics in name order. A metric on one side only is reported
/// (`new` / `gone`) but cannot regress — renames therefore reset their
/// history, visibly.
pub fn compare(base: &LedgerEntry, cur: &LedgerEntry) -> Vec<Comparison> {
    let names: BTreeSet<&String> = base.metrics.keys().chain(cur.metrics.keys()).collect();
    names
        .into_iter()
        .map(|k| {
            let (b, c) = (base.metrics.get(k).copied(), cur.metrics.get(k).copied());
            let delta_pct = match (b, c) {
                (Some(0), Some(0)) | (None, _) | (_, None) => 0.0,
                (Some(0), Some(_)) => 100.0,
                (Some(b), Some(c)) => (c as f64 - b as f64) * 100.0 / b as f64,
            };
            Comparison {
                metric: k.clone(),
                base: b,
                cur: c,
                delta_pct,
                regressed: delta_pct > THRESHOLD_PCT,
            }
        })
        .collect()
}

/// Did any metric regress?
pub fn has_regression(comparisons: &[Comparison]) -> bool {
    comparisons.iter().any(|c| c.regressed)
}

/// Fixed-width verdict table, one row per metric.
pub fn render_comparison(base_rev: &str, cur_rev: &str, comparisons: &[Comparison]) -> String {
    let mut out =
        format!("== ledger: {cur_rev} vs baseline {base_rev} (gate +{THRESHOLD_PCT:.1}%) ==\n");
    out.push_str(&format!(
        "{:<36} {:>14} {:>14} {:>9}  verdict\n",
        "metric", "base", "current", "delta%"
    ));
    let cell = |v: Option<u64>| v.map_or_else(|| "-".to_owned(), |v| v.to_string());
    for c in comparisons {
        let delta = match (c.base, c.cur) {
            (Some(_), Some(_)) => format!("{:+.2}", c.delta_pct),
            _ => "-".to_owned(),
        };
        out.push_str(&format!(
            "{:<36} {:>14} {:>14} {:>9}  {}\n",
            c.metric,
            cell(c.base),
            cell(c.cur),
            delta,
            c.verdict()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(rev: &str, metrics: &[(&str, u64)]) -> LedgerEntry {
        LedgerEntry {
            rev: rev.to_owned(),
            config_digest: "cfg0".to_owned(),
            group: "g".to_owned(),
            metrics: metrics.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
        }
    }

    #[test]
    fn json_line_round_trips() {
        let mut e = entry("abc\"123", &[("mp_sim_cycles", 1234), ("odd \\ \"key\"", 99)]);
        e.group = "g\nroup".to_owned();
        let line = e.to_json_line();
        assert_eq!(LedgerEntry::parse_line(&line).expect("parse"), e);
        // And the emitted line is strict JSON by the in-tree parser.
        json::parse(&line).expect("valid JSON");
    }

    #[test]
    fn ledger_file_round_trips_and_rejects_garbage() {
        let a = entry("a", &[("x", 1)]);
        let b = entry("b", &[("x", 2)]);
        let file = format!("{}\n{}\n\n", a.to_json_line(), b.to_json_line());
        let parsed = parse_ledger(&file).expect("parse");
        assert_eq!(parsed, vec![a.clone(), b.clone()]);
        assert!(parse_ledger("not json\n").is_err());
        assert!(baseline_for(&parsed, "g", "cfg0") == Some(&b));
        assert!(baseline_for(&parsed, "g", "other").is_none());
    }

    #[test]
    fn self_comparison_is_clean() {
        let e = entry("same", &[("cycles", 5000), ("retired", 777)]);
        let cmp = compare(&e, &e);
        assert_eq!(cmp.len(), 2);
        assert!(!has_regression(&cmp));
        assert!(cmp.iter().all(|c| c.delta_pct == 0.0 && c.verdict() == "ok"));
    }

    #[test]
    fn synthetic_twenty_percent_slowdown_gates() {
        // The acceptance scenario: a 20% jump in a metric must exit
        // nonzero.
        let base = entry("old", &[("fft_sim_cycles", 1000), ("fft_retired", 1000)]);
        let cur = entry("new", &[("fft_sim_cycles", 1200), ("fft_retired", 1000)]);
        let cmp = compare(&base, &cur);
        assert!(has_regression(&cmp));
        let cycles = cmp.iter().find(|c| c.metric == "fft_sim_cycles").expect("cycles row");
        assert!(cycles.regressed);
        assert_eq!(cycles.verdict(), "REGRESSED");
        let table = render_comparison("old", "new", &cmp);
        assert!(table.contains("REGRESSED"), "{table}");
    }

    #[test]
    fn small_drift_and_improvements_pass() {
        let base = entry("old", &[("cycles", 10_000), ("retries", 50)]);
        let cur = entry("new", &[("cycles", 10_100), ("retries", 10)]);
        let cmp = compare(&base, &cur);
        assert!(!has_regression(&cmp), "1% drift and an improvement must pass");
        assert_eq!(
            cmp.iter().find(|c| c.metric == "retries").expect("retries").verdict(),
            "improved"
        );
    }

    #[test]
    fn disjoint_metrics_are_skipped_and_zero_base_guarded() {
        let base = entry("old", &[("dropped", 5), ("zero", 0)]);
        let cur = entry("new", &[("fresh", 9), ("zero", 3)]);
        let cmp = compare(&base, &cur);
        let rows: Vec<_> =
            cmp.iter().map(|c| (c.metric.as_str(), c.base, c.cur, c.verdict())).collect();
        assert_eq!(
            rows,
            [
                ("dropped", Some(5), None, "gone"),
                ("fresh", None, Some(9), "new"),
                ("zero", Some(0), Some(3), "REGRESSED"),
            ],
            "one-sided metrics are shown, in name order"
        );
        assert!(cmp.iter().filter(|c| c.base.is_none() || c.cur.is_none()).all(|c| !c.regressed));
        assert_eq!(cmp[2].delta_pct, 100.0, "0 -> 3 counts as 100% growth");
        let table = render_comparison("old", "new", &cmp);
        assert!(table.contains(" gone\n") && table.contains(" new\n"), "{table}");
        // One-sided rows alone never gate.
        let only_disjoint =
            compare(&entry("old", &[("dropped", 5)]), &entry("new", &[("fresh", 9)]));
        assert!(!has_regression(&only_disjoint));
    }
}
