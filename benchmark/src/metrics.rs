//! Metric names, units, directions and bounds (the contract
//! `BENCHMARK.json` repeats), sample statistics and JSON emission.

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the simulator waits on and pays, per workload. The
/// issue's sixth, `fail_share`, is `failed` ÷ `attempted` of the result
/// line and not a metric here: a metric of the contract is never 0 and
/// its bound is a share of the parent's median.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("sim_cycles_per_s", "cycles/s", "higher", 0.20),
    e2e("sim_instr_per_s", "instr/s", "higher", 0.20),
    e2e("cells_per_s", "cells/s", "higher", 0.20),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
];

/// Single-layer metrics from the traced run. No bounds: they explain
/// an end-to-end move, they do not gate one. `model.*` and the exact
/// engine counts have no better direction a speed change may use (they
/// must not move at all); "lower" is nominal there.
pub const PER_LAYER: [MetricDef; 49] = [
    layer("cpu.tick_ns_per_visit", "ns", "lower"),
    layer("cpu.tick_share", "ratio", "lower"),
    layer("cpu.visits", "count", "lower"),
    layer("cpu.next_event_ns_per_call", "ns", "lower"),
    layer("cpu.next_event_share", "ratio", "lower"),
    layer("cache.tick_ns_per_visit", "ns", "lower"),
    layer("cache.handle_msg_ns_per_msg", "ns", "lower"),
    layer("cache.share", "ratio", "lower"),
    layer("cache.msgs", "count", "lower"),
    layer("dir.tick_ns_per_visit", "ns", "lower"),
    layer("dir.receive_ns_per_msg", "ns", "lower"),
    layer("dir.share", "ratio", "lower"),
    layer("dir.visits", "count", "lower"),
    layer("mesh.tick_ns_per_visit", "ns", "lower"),
    layer("mesh.send_ns_per_msg", "ns", "lower"),
    layer("mesh.drain_ns_per_msg", "ns", "lower"),
    layer("mesh.share", "ratio", "lower"),
    layer("mesh.msgs", "count", "lower"),
    layer("mesh.retransmit_ratio", "ratio", "lower"),
    layer("sched.ns_per_op", "ns", "lower"),
    layer("sched.ops", "count", "lower"),
    layer("sched.share", "ratio", "lower"),
    layer("engine.run_ns_per_cycle", "ns", "lower"),
    layer("engine.residual_share", "ratio", "lower"),
    layer("engine.visits_per_cycle", "ratio", "lower"),
    layer("engine.skipped_cycle_share", "ratio", "higher"),
    layer("engine.new_ms_per_cell", "ms", "lower"),
    layer("stats.report_us_per_call", "us", "lower"),
    layer("stats.timeline_overhead_ratio", "ratio", "lower"),
    layer("tso.check_ns_per_event", "ns", "lower"),
    layer("tso.share", "ratio", "lower"),
    layer("tso.oracle_ms_per_test", "ms", "lower"),
    layer("snap.snapshot_ms_per_cell", "ms", "lower"),
    layer("snap.restore_ms_per_cell", "ms", "lower"),
    layer("snap.bytes_per_cell", "count", "lower"),
    layer("snap.share", "ratio", "lower"),
    layer("audit.final_us_per_cell", "us", "lower"),
    layer("audit.share", "ratio", "lower"),
    layer("gen.workload_ms_per_cell", "ms", "lower"),
    layer("model.cycles", "count", "lower"),
    layer("model.retired", "count", "lower"),
    layer("model.ipc", "ratio", "higher"),
    layer("model.blocked_writes", "count", "lower"),
    layer("model.flits", "count", "lower"),
    layer("model.retransmits", "count", "lower"),
    layer("model.soft_detected", "count", "lower"),
    layer("trace.timer_ns", "ns", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.rig_exact", "ratio", "higher"),
];

/// `BENCHMARK.json`, generated from the tables above so the file at the
/// repository root cannot drift from what the command prints (a unit
/// test compares them, and prints this text when they differ).
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = crate::cells::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w),
                json_str(crate::cells::why(w))
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better),
                json_num(d.bound.unwrap_or(0.0))
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(d.name),
                json_str(d.unit),
                json_str(d.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Median, extremes and count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarize `xs` (median of an even count is the mean of the middle two).
pub fn summarize(xs: &[f64]) -> Summary {
    if xs.is_empty() {
        return Summary {
            median: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    Summary {
        median,
        min: v[0],
        max: v[n - 1],
        n,
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A measured value under its metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub def: MetricDef,
    pub value: f64,
    /// Spread of the sample behind a median, when there is one.
    pub summary: Option<Summary>,
}

/// Pair `values` (by name) with `defs`, in `defs` order. Every metric
/// must be present exactly once.
pub fn bind(
    defs: &[MetricDef],
    values: &[(&str, f64, Option<Summary>)],
) -> Result<Vec<Value>, String> {
    if values.len() != defs.len() {
        return Err(format!(
            "{} values for {} metrics",
            values.len(),
            defs.len()
        ));
    }
    defs.iter()
        .map(|d| {
            let mut hits = values.iter().filter(|(n, _, _)| *n == d.name);
            match (hits.next(), hits.next()) {
                (Some(&(_, value, summary)), None) => Ok(Value {
                    def: *d,
                    value,
                    summary,
                }),
                (None, _) => Err(format!("metric `{}` was not measured", d.name)),
                _ => Err(format!("metric `{}` was measured twice", d.name)),
            }
        })
        .collect()
}

/// A JSON number with all the digits measured (never NaN or infinite).
pub fn json_num(x: f64) -> String {
    if !x.is_finite() {
        return "0".to_owned();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x}")
    }
}

/// Escape `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(v.def.name),
                json_num(v.value),
                json_str(v.def.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Human-readable table of `values`: name, value, unit, spread.
pub fn table(values: &[Value]) -> String {
    let mut out = String::new();
    for v in values {
        out.push_str(&format!(
            "  {:<34}{:>18.4} {:<9}",
            v.def.name, v.value, v.def.unit
        ));
        if let Some(s) = v.summary {
            out.push_str(&format!(
                " [median {:.4} min {:.4} max {:.4} n={}]",
                s.median, s.min, s.max, s.n
            ));
        }
        if let Some(b) = v.def.bound {
            out.push_str(&format!(
                " ({} is better, bound {:.0}%)",
                v.def.better,
                b * 100.0
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&crate::cells::WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in crate::cells::WORKLOADS {
            assert!(name_ok(w), "{w}");
            assert!(seen.insert(w), "{w} used twice");
            let why = crate::cells::why(w);
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{w}"
            );
        }
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        for d in END_TO_END {
            let b = d.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_parses() {
        let vals = bind(
            &END_TO_END,
            &[
                ("peak_rss_mb", 61.25, None),
                ("setup_s", 0.0123456789, None),
                ("cells_per_s", 1.5, None),
                ("sim_instr_per_s", 2e6, None),
                ("sim_cycles_per_s", 123456.789, Some(summarize(&[1.0]))),
            ],
        )
        .expect("all bound");
        let line = result_line(true, 7, 0, &vals);
        let doc = wb_kernel::json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let m = doc
            .get("metrics")
            .and_then(|m| m.as_obj())
            .expect("metrics object");
        assert_eq!(m.len(), END_TO_END.len());
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(
            setup.get("value").and_then(|v| v.as_f64()),
            Some(0.0123456789)
        );
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    /// Every metric and workload named in `BENCHMARK.json` is one the
    /// command prints, and the other way round: the file is the
    /// generated text, byte for byte.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let generated = benchmark_json();
        let doc = wb_kernel::json::parse(&generated).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("workloads"), crate::cells::WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert!(generated.len() <= 64 * 1024);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(
            on_disk == generated,
            "BENCHMARK.json differs from the tables in src/metrics.rs and src/cells.rs; it should read:\n{generated}"
        );
    }

    #[test]
    fn bind_rejects_missing_and_duplicate() {
        assert!(bind(&END_TO_END[..1], &[("nope", 1.0, None)]).is_err());
        assert!(bind(&END_TO_END[..1], &[]).is_err());
        let twice = [
            ("sim_cycles_per_s", 1.0, None),
            ("sim_cycles_per_s", 2.0, None),
        ];
        assert!(bind(&END_TO_END[..2], &twice).is_err());
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\n\"");
    }
}
