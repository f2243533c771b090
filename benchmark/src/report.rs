//! Output files, provenance, and the same-commit agreement check.

use std::fs;
use std::path::Path;

use wb_kernel::json::{self, Json};

use crate::metrics::{json_num, json_str, MetricDef};
use crate::timed::Outcome;

/// The checked-out commit, read from `.git` without running git
/// (`unknown` outside a repository, as in the driver's checkout).
pub fn git_rev() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_owned(),
        Some(r) => fs::read_to_string(Path::new(".git").join(r)).unwrap_or_else(|_| {
            // Packed refs: "<sha> <ref>" lines.
            fs::read_to_string(".git/packed-refs")
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|sha| sha.trim().to_owned()))
                .unwrap_or_default()
        }),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.to_owned()
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn str_list(xs: &[String]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|x| json_str(x))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn num_list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|&x| json_num(x))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The record of one run: provenance, cell list, pass walls, metrics.
pub fn run_record(workload: &str, seed: u64, seconds: f64, traced: bool, o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .values
        .iter()
        .map(|v| {
            let spread = v.summary.map_or(String::new(), |s| {
                format!(
                    ", \"pass_median\": {}, \"pass_min\": {}, \"pass_max\": {}, \"samples\": {}",
                    json_num(s.median),
                    json_num(s.min),
                    json_num(s.max),
                    s.n
                )
            });
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}{spread}}}",
                json_str(v.def.name),
                json_num(v.value),
                json_str(v.def.unit)
            )
        })
        .collect();
    let model: Vec<String> = o
        .model
        .fields()
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let fields = [
        format!("  \"workload\": {}", json_str(workload)),
        format!("  \"traced\": {traced}"),
        format!("  \"git_rev\": {}", json_str(&git_rev())),
        format!("  \"nproc\": {}", nproc()),
        format!(
            "  \"malloc_mmap_threshold\": {}",
            json_str(
                &std::env::var("MALLOC_MMAP_THRESHOLD_").unwrap_or_else(|_| "unset".to_owned())
            )
        ),
        format!("  \"seed\": {seed}"),
        format!("  \"seconds\": {}", json_num(seconds)),
        format!("  \"correct\": {}", o.correct),
        format!("  \"attempted\": {}", o.attempted),
        format!("  \"failed\": {}", o.failed),
        format!("  \"fail_share\": {}", json_num(o.fail_share())),
        format!("  \"model\": {{{}}}", model.join(", ")),
        format!("  \"pass_walls_s\": {}", num_list(&o.pass_walls_s)),
        format!("  \"cells\": {}", str_list(&o.cell_names)),
        format!("  \"cell_walls_s\": {}", num_list(&o.cell_walls_s)),
        format!("  \"notes\": {}", str_list(&o.notes)),
        format!("  \"headline\": {}", str_list(&o.headline)),
        format!("  \"metrics\": {{\n{}\n  }}", metrics.join(",\n")),
    ];
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Write the run record (and the trace of a traced run) under `dir`.
pub fn write_outputs(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    o: &Outcome,
) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = if traced {
        dir.join(format!("{workload}.traced.json"))
    } else {
        timed_record_path(dir, workload)
    };
    fs::write(&path, run_record(workload, seed, seconds, traced, o))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    if traced {
        let header = format!(
            "{{\"workload\": {}, \"git_rev\": {}, \"nproc\": {}, \"seed\": {seed}, \"pass_walls_s\": {}, \"cells\": {}}}",
            json_str(workload),
            json_str(&git_rev()),
            nproc(),
            num_list(&o.pass_walls_s),
            str_list(&o.cell_names)
        );
        let mut body = header;
        for line in &o.trace {
            body.push('\n');
            body.push_str(line);
        }
        body.push('\n');
        let path = dir.join(format!("{workload}.trace.jsonl"));
        fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Where `write_outputs` puts the record of an untraced run.
pub fn timed_record_path(dir: &Path, workload: &str) -> std::path::PathBuf {
    dir.join(format!("{workload}.timed.json"))
}

/// `attempted`, `failed` and every `model` count of a run record: what
/// two runs of one commit on one seed must agree on exactly.
pub fn exact_counts(record: &str) -> Result<Vec<(String, u64)>, String> {
    let doc = json::parse(record)?;
    let count = |v: Option<&Json>, k: &str| {
        v.and_then(Json::as_u64)
            .ok_or_else(|| format!("run record has no count `{k}`"))
    };
    let mut out = Vec::new();
    for k in ["attempted", "failed"] {
        out.push((k.to_owned(), count(doc.get(k), k)?));
    }
    let model = doc
        .get("model")
        .and_then(Json::as_obj)
        .ok_or("run record has no model")?;
    for (k, v) in model {
        out.push((format!("model.{k}"), count(Some(v), k)?));
    }
    Ok(out)
}

/// Metric values by name.
pub type Values = Vec<(String, f64)>;

/// Whether a result line says `correct`, and its metric values.
pub fn parse_result(line: &str) -> Result<(bool, Values), String> {
    let doc = json::parse(line)?;
    let correct = matches!(doc.get("correct"), Some(Json::Bool(true)));
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?;
    let values = metrics
        .iter()
        .map(|(k, v)| {
            v.get("value")
                .and_then(Json::as_f64)
                .map(|x| (k.clone(), x))
                .ok_or_else(|| format!("metric `{k}` has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((correct, values))
}

/// Is `second` worse than `first` by more than `def`'s bound?
pub fn worse_than_bound(def: &MetricDef, first: f64, second: f64) -> bool {
    let bound = def.bound.unwrap_or(0.0);
    let worsening = match def.better {
        "higher" => (first - second) / first,
        _ => (second - first) / first,
    };
    first > 0.0 && worsening > bound
}

/// One row of the agreement table; true when the pair agrees.
pub fn agree_row(workload: &str, def: &MetricDef, first: f64, second: f64) -> (String, bool) {
    let ok = !worse_than_bound(def, first, second) && !worse_than_bound(def, second, first);
    let row = format!(
        "  {workload:<10} {:<18} {first:>16.4} {second:>16.4}  ratio {:>7.4}  bound {:>3.0}%  {}",
        def.name,
        if first > 0.0 { second / first } else { 0.0 },
        def.bound.unwrap_or(0.0) * 100.0,
        if ok { "pass" } else { "FAIL" }
    );
    (row, ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    #[test]
    fn bounds_cut_both_ways() {
        let higher = END_TO_END[0];
        let b = higher.bound.expect("bound");
        assert!(!worse_than_bound(&higher, 100.0, 100.0 * (1.0 - b) + 0.01));
        assert!(worse_than_bound(&higher, 100.0, 100.0 * (1.0 - b) - 0.01));
        assert!(!worse_than_bound(&higher, 100.0, 1000.0));
        let lower = *END_TO_END
            .iter()
            .find(|d| d.better == "lower")
            .expect("a lower-is-better metric");
        let b = lower.bound.expect("bound");
        assert!(worse_than_bound(&lower, 1.0, 1.0 + b + 0.01));
        assert!(!worse_than_bound(&lower, 1.0, 0.1));
        assert!(agree_row("w", &higher, 100.0, 99.0).1);
        assert!(!agree_row("w", &higher, 100.0, 10.0).1);
        assert!(!agree_row("w", &higher, 10.0, 100.0).1);
    }

    #[test]
    fn run_record_is_json_with_provenance() {
        let o = Outcome {
            correct: true,
            attempted: 2,
            cell_names: vec!["a/b".to_owned(), "c \"d\"".to_owned()],
            cell_walls_s: vec![0.5, 0.25],
            pass_walls_s: vec![1.5],
            ..Outcome::default()
        };
        let record = run_record("kernels16", 3, 18.0, false, &o);
        let doc = json::parse(&record).expect("valid JSON");
        for key in [
            "git_rev",
            "nproc",
            "malloc_mmap_threshold",
            "seed",
            "pass_walls_s",
            "cells",
            "metrics",
            "fail_share",
        ] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(3));
        assert_eq!(
            doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let counts = exact_counts(&record).expect("counts");
        assert_eq!(counts.len(), 2 + o.model.fields().len());
        assert_eq!(counts[0], ("attempted".to_owned(), 2));
        assert_eq!(counts[2], ("model.cycles".to_owned(), 0));
        assert!(exact_counts("{}").is_err());
    }

    #[test]
    fn parse_result_reads_values() {
        let line = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1.5, "unit": "s"}}}"#;
        assert_eq!(parse_result(line), Ok((true, vec![("a".to_owned(), 1.5)])));
        assert!(parse_result("{}").is_err());
    }
}
