//! `benchmark/run.sh` builds this and passes its arguments through.
//!
//! With `--workload` it is one measured process (the driver's form);
//! without, it runs every workload, untraced and traced, each in a
//! fresh child process, one after the other.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use wb_benchmark::cells::WORKLOADS;
use wb_benchmark::metrics::{self, END_TO_END};
use wb_benchmark::report::{self, Values};
use wb_benchmark::{measure, timed, traced, RUN_SECONDS};

const USAGE: &str = "usage: benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--agree]
       benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

  --workload NAME  run one workload in this process and end with one JSON
                   result line (kernels16, scale256, resil4, verify4)
  --trace 0|1      0: end-to-end metrics (default); 1: per-layer metrics
                   from the traced run
  --seed N         seed of every generated input (default 0, the family
                   that holds the known livelock torture-40)
  --seconds S      seconds of timed passes per run (default 18; a driver
                   passes `run_seconds` of BENCHMARK.json)
  --smoke          one timed pass of a cut-down cell list
  --setup-only     with --workload: set the workload up once and print the
                   seconds it took (the untraced form runs itself this
                   way to sample set-up in fresh processes)
  --agree          run every workload untraced twice and compare each
                   end-to-end value of the two result lines against its
                   bound, and the failure and model counts exactly

Run records and traces go to benchmark/out/.";

/// Where run records and traces go (ignored by git).
const OUT_DIR: &str = "benchmark/out";
/// Fresh processes `setup_s` is sampled in, the measuring one included.
const COLD_SETUPS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        agree: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => a.smoke = true,
            "--agree" => a.agree = true,
            "--setup-only" => a.setup_only = true,
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.setup_only && a.workload.is_none() {
        return Err("--setup-only needs --workload".to_owned());
    }
    if a.seed > u64::MAX / 1000 - 1 {
        return Err("--seed is too large (cell seeds are seed*1000 + i)".to_owned());
    }
    Ok(a)
}

/// This binary on `workload` in a fresh child process.
fn child(a: &Args, workload: &str) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &a.seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    Ok(cmd)
}

/// `--setup-only`: one set-up, the first thing this process does.
fn setup_only(a: &Args, workload: &str) -> Result<bool, String> {
    let (_, _, ns) = measure::setup_once(workload, a.seed, a.smoke)?;
    println!("{}", metrics::json_num(ns as f64 / 1e9));
    Ok(true)
}

/// Set-up seconds of `workload` in `COLD_SETUPS - 1` fresh processes.
fn cold_setups(a: &Args, workload: &str) -> Result<Vec<f64>, String> {
    (1..COLD_SETUPS)
        .map(|_| {
            let out = child(a, workload)?
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("setting {workload} up: {e}"))?;
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .map_err(|_| format!("setting {workload} up in a fresh process failed"))
        })
        .collect()
}

/// One workload in this process. Prints the metrics by name and unit,
/// then the result line; false when a correctness check failed.
fn run_one(a: &Args, workload: &str) -> Result<bool, String> {
    let o = if a.trace {
        traced::run(workload, a.seed, a.seconds, a.smoke)?
    } else {
        let cold = cold_setups(a, workload)?;
        timed::run(workload, a.seed, a.seconds, a.smoke, &cold)?
    };
    println!(
        "== {workload} ({}, seed {}, {} cells, {} passes of {:.2} s median)",
        if a.trace { "traced" } else { "untraced" },
        a.seed,
        o.attempted,
        o.pass_walls_s.len(),
        metrics::summarize(&o.pass_walls_s).median
    );
    for line in o.notes.iter().chain(&o.headline) {
        println!("{line}");
    }
    print!("{}", metrics::table(&o.values));
    println!(
        "  {:<34}{:>18.4} ratio     ({} of {} cells not done and verified)",
        "fail_share",
        o.fail_share(),
        o.failed,
        o.attempted
    );
    report::write_outputs(Path::new(OUT_DIR), workload, a.seed, a.seconds, a.trace, &o)?;
    println!(
        "{}",
        metrics::result_line(o.correct, o.attempted, o.failed, &o.values)
    );
    Ok(o.correct)
}

/// Run `workload` in a fresh child process; its output passes through,
/// and so do its error messages. Returns the child's output and whether
/// it exited cleanly.
fn spawn_one(a: &Args, workload: &str, trace: bool) -> Result<(String, bool), String> {
    let out = child(a, workload)?
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).trim_end().to_owned();
    // Everything but the result line, which is for drivers.
    println!("{}", text.rsplit_once('\n').map_or("", |(body, _)| body));
    Ok((text, out.status.success()))
}

/// The last line of a child's output, parsed. A child that failed
/// before its result line has said why itself.
fn result_of(workload: &str, text: &str) -> Result<(bool, Values), String> {
    let line = text.rsplit_once('\n').map_or(text, |(_, last)| last);
    report::parse_result(line).map_err(|_| format!("{workload} failed before its result line"))
}

/// What `--agree` compares of one workload's untraced run: the
/// end-to-end values of its result line and the exact counts of its
/// run record.
struct Untraced {
    values: Values,
    counts: Vec<(String, u64)>,
}

/// Every workload untraced (and traced unless `untraced_only`), each in
/// its own process.
fn run_all(a: &Args, untraced_only: bool) -> Result<(Vec<Untraced>, bool), String> {
    let mut ok = true;
    let mut e2e = Vec::new();
    let mut tops = Vec::new();
    for w in WORKLOADS {
        let (text, clean) = spawn_one(a, w, false)?;
        let (correct, values) = result_of(w, &text)?;
        ok &= clean && correct;
        let path = report::timed_record_path(Path::new(OUT_DIR), w);
        let record = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let counts = report::exact_counts(&record).map_err(|e| format!("{w}: {e}"))?;
        e2e.push(Untraced { values, counts });
        if !untraced_only {
            let (text, clean) = spawn_one(a, w, true)?;
            ok &= clean && result_of(w, &text)?.0;
            tops.extend(
                text.lines()
                    .filter(|l| l.starts_with("top layers"))
                    .map(|l| format!("  {w:<10} {l}")),
            );
        }
    }
    if !tops.is_empty() {
        println!("== the workloads side by side");
        println!("{}", tops.join("\n"));
    }
    Ok((e2e, ok))
}

/// `--agree`: the whole untraced benchmark twice on this commit.
fn agree(a: &Args) -> Result<bool, String> {
    let (first, ok1) = run_all(a, true)?;
    let (second, ok2) = run_all(a, true)?;
    println!("== agreement of two runs of the same commit (first, second)");
    let mut all = ok1 && ok2;
    for (w, (f, s)) in WORKLOADS.iter().zip(first.iter().zip(&second)) {
        for def in &END_TO_END {
            let get =
                |vs: &[(String, f64)]| vs.iter().find(|(n, _)| n == def.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(&f.values), get(&s.values)) else {
                return Err(format!(
                    "{w}: metric `{}` missing from a result line",
                    def.name
                ));
            };
            let (row, ok) = report::agree_row(w, def, x, y);
            println!("{row}");
            all &= ok;
        }
        // Counts compare exactly: a run of the same commit on the same
        // seed simulates the same machine.
        let same = f.counts == s.counts;
        println!(
            "  {w:<10} {:<18} {}",
            "exact counts",
            if same { "identical" } else { "DIFFER" }
        );
        for ((k, x), (_, y)) in f.counts.iter().zip(&s.counts).filter(|(x, y)| x != y) {
            println!("  {w:<10}   {k}: {x} then {y}");
        }
        all &= same;
    }
    Ok(all)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match &a.workload {
        Some(w) if a.setup_only => setup_only(&a, w),
        Some(w) => run_one(&a, w),
        None if a.agree => agree(&a),
        None => run_all(&a, false).map(|(_, ok)| ok),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a correctness check failed (see the WRONG lines above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
