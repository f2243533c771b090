//! The command's two forms on a cut-down workload: every metric of the
//! contract is printed, the result line parses, and every check holds.

use wb_benchmark::metrics::{self, END_TO_END, PER_LAYER};
use wb_benchmark::{report, timed, traced};

fn names_in(line: &str) -> Vec<String> {
    let (correct, values) = report::parse_result(line).expect("result line parses");
    assert!(correct, "{line}");
    values.into_iter().map(|(n, _)| n).collect()
}

#[test]
fn untraced_smoke_prints_every_end_to_end_metric() {
    let o = timed::run("verify4", 2, 1.0, true, &[]).expect("runs");
    assert!(o.correct, "{:?}", o.notes);
    assert_eq!((o.attempted, o.failed), (19, 0), "{:?}", o.notes);
    let line = metrics::result_line(o.correct, o.attempted, o.failed, &o.values);
    assert_eq!(
        names_in(&line),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    for v in &o.values {
        assert!(v.value > 0.0, "{} must never be 0", v.def.name);
    }
}

#[test]
fn traced_smoke_prints_every_per_layer_metric_and_the_rig_is_exact() {
    for w in ["verify4", "resil4"] {
        let o = traced::run(w, 2, 1.0, true).expect("runs");
        assert!(o.correct, "{w}: {:?}", o.notes);
        let line = metrics::result_line(o.correct, o.attempted, o.failed, &o.values);
        assert_eq!(
            names_in(&line),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        let get = |k: &str| {
            o.values
                .iter()
                .find(|v| v.def.name == k)
                .map(|v| v.value)
                .expect(k)
        };
        assert_eq!(get("trace.rig_exact"), 1.0, "{w}");
        assert!(
            get("cpu.tick_share") > 0.0 && get("trace.timer_ns") > 0.0,
            "{w}"
        );
        assert!(
            !o.trace.is_empty() && o.trace.iter().all(|l| wb_kernel::json::parse(l).is_ok()),
            "{w}"
        );
        assert_eq!(o.headline.len(), 1, "{w}: the top-two line");
    }
}

/// A child process that fails says why itself (here: it cannot write
/// its run record), and the parent names the workload that failed
/// where it used to report a JSON parse error on an empty line.
#[test]
fn a_failing_childs_message_reaches_the_user() {
    let cwd = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("unwritable-out");
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(cwd.join("benchmark")).expect("scratch directory");
    std::fs::write(cwd.join("benchmark/out"), "a file where the directory goes").expect("file");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_wb-benchmark"))
        .arg("--smoke")
        .current_dir(&cwd)
        .output()
        .expect("the benchmark binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: creating benchmark/out"), "{stderr}");
    assert!(stderr.contains("error: kernels16 failed"), "{stderr}");
}
