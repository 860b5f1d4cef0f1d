//! The repository benchmark: one named workload from one seed, through a
//! real `sma-server` (`--trace 0`) or replayed layer by layer in process
//! (`--trace 1`). See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload point --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod fixture;
mod serve;
mod stats;
mod trace;

/// Confines the process to one CPU.
///
/// The host this benchmark was tuned on lends its second vCPU only part of
/// the time: two CPU-bound processes took anywhere from 1× to 2× as long
/// as one, in phases lasting minutes. Any figure that relied on two
/// threads running at once came out bimodal (Q1 on `tpcd_scan` read 65 ms
/// or 125 ms depending on the phase), so every run measures one core: the
/// total work each request costs. Threads spawned afterwards inherit the
/// mask, and `available_parallelism()` reports 1 to the program.
///
/// The highest-numbered allowed CPU is taken. The tuning host delivers its
/// block device's interrupts there, so a thread waiting on an fsync wakes
/// on the CPU its completion arrives at: `mixed` (an fsync per insert)
/// acked about 40% more inserts per second there than on CPU 0 (medians
/// of ten runs: 3,340 against 2,340).
mod affinity {
    use std::io;

    /// `cpu_set_t` as glibc sizes it: 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pins the calling thread (and every thread it spawns later) to the
    /// highest-numbered CPU it may run on.
    pub fn pin_to_one_cpu() -> io::Result<()> {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let r =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
        if r != 0 {
            return Err(io::Error::last_os_error());
        }
        let cpu = (0..allowed.len() * 64)
            .rev()
            .find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), one.as_ptr()) };
        if r != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use fixture::{Inserts, Workload, COMMIT_POLICY, FLUSH_ROWS, MAX_SEGMENTS};
use serve::{Expected, Inserter, Served};
use stats::{quote, result_line, Metrics, Tally};

/// Set-ups per untraced run; `setup_s` is their median. The TPC-D
/// set-ups take seconds each, the others tens of milliseconds.
fn setup_reps(w: Workload) -> usize {
    if w.is_tpcd() {
        3
    } else {
        30
    }
}
/// Pings timed for `server.ping_rtt_us`.
const PINGS: usize = 500;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where runs keep their warehouses; emptied as each run ends.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn fresh_dir(args: &Args, n: usize) -> Result<PathBuf, String> {
    let dir = work_dir().join(format!(
        "{}-{}-{}-{n}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {dir:?}: {e}"))?;
    }
    Ok(dir)
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The workload's selects and the oracle's answers to them.
struct Answers {
    pool: Vec<fixture::Select>,
    rows: Vec<fixture::Rows>,
}

impl Answers {
    fn expected(&self) -> Expected<'_> {
        Expected {
            pool: &self.pool,
            rows: &self.rows,
        }
    }
}

fn oracle_for(args: &Args, sw: &smadb::ingest::StreamingWarehouse) -> Result<Answers, String> {
    let pool = fixture::select_pool(args.workload, args.seed);
    let table = sw
        .warehouse()
        .table(args.workload.relation())
        .ok_or("workload relation missing")?;
    let rows = fixture::oracle(table, &pool)?;
    Ok(Answers { pool, rows })
}

/// What a run reports: the metrics it prints, those only its run record
/// keeps, and the plan kinds the server's responses named.
struct Report {
    metrics: Metrics,
    unreported: Metrics,
    plan_kinds: String,
}

/// One timed set-up: generate and load the data into a fresh warehouse,
/// serve it and warm up. The first computes the oracle, untimed.
fn set_up(
    args: &Args,
    rep: usize,
    answers: &mut Option<Answers>,
    tally: &mut Tally,
) -> Result<(Served, Option<Inserter>, f64), String> {
    // Each set-up's inserter restarts from the seed; only the served
    // one's acknowledgements are checked after the window.
    let mut inserter = (args.workload == Workload::Mixed).then(|| Inserter::new(args.seed));
    let dir = fresh_dir(args, rep)?;
    let t = Instant::now();
    let sw = fixture::build(args.workload, args.seed, &dir)?;
    let mut secs = t.elapsed().as_secs_f64();
    if answers.is_none() {
        *answers = Some(oracle_for(args, &sw)?);
    }
    let expected = answers.as_ref().ok_or("no oracle")?;
    let t = Instant::now();
    let served = Served::start(sw, dir)?;
    serve::warm_up(&served, &expected.expected(), inserter.as_mut(), tally)?;
    secs += t.elapsed().as_secs_f64();
    Ok((served, inserter, secs))
}

/// The untraced run: `setup_reps` timed set-ups, about half before the
/// timed window (which runs against the last of those) and the rest
/// after it, so set-up time is sampled across the run's span as the
/// window's slices are.
fn run_served(args: &Args, tally: &mut Tally) -> Result<Report, String> {
    let w = args.workload;
    let reps = setup_reps(w);
    let before = reps - reps / 2;
    let mut answers = None;
    let mut setup_s = Vec::new();
    let mut last: Option<(Served, Option<Inserter>)> = None;
    for rep in 0..before {
        if let Some((s, _)) = last.take() {
            s.stop()?;
        }
        let (s, inserter, secs) = set_up(args, rep, &mut answers, tally)?;
        setup_s.push(secs);
        last = Some((s, inserter));
    }
    let (served, mut inserter) = last.ok_or("no set-up ran")?;
    // Before the window: what the window adds is the benchmark's own
    // per-request samples, which grow with throughput.
    let peak_rss = peak_rss_mb();
    let expected = answers.as_ref().ok_or("no oracle")?.expected();
    let win = serve::window(
        &served,
        w,
        args.seed,
        &expected,
        inserter.as_mut(),
        args.seconds,
    )?;
    tally.add(win.tally);
    if let Some(ins) = &inserter {
        serve::check_acked_visible(&served, ins, tally)?;
    }
    served.stop()?;
    for rep in before..reps {
        let (s, _, secs) = set_up(args, rep, &mut answers, tally)?;
        s.stop()?;
        setup_s.push(secs);
    }

    setup_s.sort_by(f64::total_cmp);
    let secs = win.seconds;
    let mut m = Metrics::default();
    let mut unreported = Metrics::default();
    m.put("setup_s", setup_s[setup_s.len() / 2], "s");
    m.put("read_qps", win.read_qps(), "1/s");
    m.put_some("read_p50_us", win.read_p50(), "us");
    // Figures a workload has but not every workload has: the result line
    // holds the same metrics on every workload, so the run record keeps
    // these.
    match w {
        Workload::Point => {
            unreported.put_some("read_p99_us", win.read.p99(), "us");
        }
        Workload::TpcdSma | Workload::TpcdScan => {
            unreported.put_some("q1_p50_us", win.q1.p50(secs), "us");
            unreported.put_some("q6_p50_us", win.q6.p50(secs), "us");
        }
        Workload::Mixed => {
            unreported.put_some("read_p99_us", win.read.p99(), "us");
            unreported.put("insert_rps", win.insert.rate(secs), "1/s");
            unreported.put_some("insert_p50_us", win.insert.p50(secs), "us");
            unreported.put_some("insert_p99_us", win.insert.p99(), "us");
        }
    }
    m.put_some("peak_rss_mb", peak_rss, "MiB");
    let kinds: Vec<String> = win
        .plan_kinds
        .iter()
        .map(|(k, n)| format!("{}: {n}", quote(k)))
        .collect();
    Ok(Report {
        metrics: m,
        unreported,
        plan_kinds: format!("{{{}}}", kinds.join(", ")),
    })
}

/// The traced run: a served window for the client-side read and ping
/// p50s, then the in-process replay on a fresh warehouse.
fn run_traced(args: &Args, tally: &mut Tally) -> Result<Report, String> {
    let w = args.workload;
    let half = args.seconds / 2.0;
    let dir = fresh_dir(args, 0)?;
    let sw = fixture::build(w, args.seed, &dir)?;
    let answers = oracle_for(args, &sw)?;
    let mut inserter = (w == Workload::Mixed).then(|| Inserter::new(args.seed));
    let served = Served::start(sw, dir)?;
    serve::warm_up(&served, &answers.expected(), inserter.as_mut(), tally)?;
    let win = serve::window(
        &served,
        w,
        args.seed,
        &answers.expected(),
        inserter.as_mut(),
        half,
    )?;
    tally.add(win.tally);
    let ping = serve::ping_p50(&served, PINGS, tally)?;
    served.stop()?;

    let dir = fresh_dir(args, 1)?;
    let mut sw = fixture::build(w, args.seed, &dir)?;
    let mut layers = trace::replay(w, args.seed, &mut sw, &answers.expected(), half)?;
    drop(sw);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    if w != Workload::Mixed {
        // The ingest layer's write path, on the fixture `mixed` writes to.
        let dir = fresh_dir(args, 2)?;
        let mut sw = fixture::build(Workload::Mixed, args.seed, &dir)?;
        trace::write_probe(&mut layers, &mut sw, &mut Inserts::new(args.seed))?;
        drop(sw);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    }
    tally.add(layers.tally);
    if layers.page_pass_mismatches > 0 {
        eprintln!(
            "warning: {} page passes visited other than the pages charged",
            layers.page_pass_mismatches
        );
    }
    Ok(Report {
        metrics: layers.metrics(ping, &win.shape_p50s()),
        unreported: Metrics::default(),
        plan_kinds: "{}".to_string(),
    })
}

/// `YYYY-MM-DDTHH:MM:SSZ` for a Unix time (Hinnant's `civil_from_days`).
fn utc_timestamp(unix: u64) -> String {
    let days = (unix / 86_400) as i64;
    let secs = unix % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        secs / 3600,
        secs / 60 % 60,
        secs % 60
    )
}

/// `git describe` of the checkout when it is a git work tree.
fn git_describe() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Appends one line describing this run to `records/runs.jsonl`.
fn write_record(
    args: &Args,
    host_cores: usize,
    tally: Tally,
    report: &Report,
) -> Result<(), String> {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let line = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"host_cores\": {host_cores}, \"cores\": {cores}, \
         \"git\": {}, \"date\": {}, \"commit_policy\": {{\"batch_rows\": {}, \"max_delay_ms\": {}}}, \
         \"flush_rows\": {FLUSH_ROWS}, \"max_segments\": {MAX_SEGMENTS}, \"attempted\": {}, \
         \"failed\": {}, \"failed_frac\": {:?}, \"plan_kinds\": {}, \"metrics\": {}, \
         \"unreported\": {}}}\n",
        quote(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        quote(&git_describe()),
        quote(&utc_timestamp(now)),
        COMMIT_POLICY.batch_rows,
        COMMIT_POLICY.max_delay.as_millis(),
        tally.attempted,
        tally.failed,
        tally.failed_frac(),
        report.plan_kinds,
        report.metrics.to_json(),
        report.unreported.to_json(),
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("records");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))
        .map_err(|e| format!("open run record: {e}"))?;
    f.write_all(line.as_bytes())
        .map_err(|e| format!("write run record: {e}"))
}

fn run(args: &Args, host_cores: usize) -> Result<(Tally, Metrics), String> {
    let mut tally = Tally::default();
    let report = if args.trace {
        run_traced(args, &mut tally)?
    } else {
        run_served(args, &mut tally)?
    };
    write_record(args, host_cores, tally, &report)?;
    println!(
        "workload {} seed {} trace {}: attempted {} failed {} (failed_frac {}), plan kinds {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        tally.attempted,
        tally.failed,
        tally.failed_frac(),
        report.plan_kinds
    );
    Ok((tally, report.metrics))
}

fn main() {
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Err(e) = affinity::pin_to_one_cpu() {
        eprintln!("perfbench: cannot pin to one CPU: {e}");
        std::process::exit(1);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <point|tpcd_sma|tpcd_scan|mixed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args, host_cores) {
        Ok((tally, metrics)) => println!("{}", result_line(tally, &metrics)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_timestamp_matches_known_dates() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_timestamp(1_792_202_034), "2026-10-17T01:53:54Z");
    }

    /// The `name`s listed under `key` in the repository's `BENCHMARK.json`.
    fn manifest_names(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let start = text.find(&format!("\"{key}\"")).unwrap();
        let section = &text[start..];
        let section = &section[..section.find(']').unwrap()];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    /// The manifest names the workloads it gates on, each a workload this
    /// program knows. `point` and `mixed` are left out of it (README).
    #[test]
    fn manifest_names_known_workloads() {
        let names = manifest_names("workloads");
        assert_eq!(names, ["tpcd_sma", "tpcd_scan"]);
        assert!(names.iter().all(|n| Workload::parse(n).is_some()));
    }

    /// A short run of every workload ends with no failed request and
    /// prints every metric the manifest lists for its trace mode.
    #[test]
    fn smoke_run_of_each_workload_has_no_failures() {
        let end_to_end = manifest_names("end_to_end");
        let per_layer = manifest_names("per_layer");
        assert!(!end_to_end.is_empty() && !per_layer.is_empty());
        for w in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload: w,
                    seed: 3,
                    seconds: 0.4,
                    trace,
                };
                let mut tally = Tally::default();
                let report = if trace {
                    run_traced(&args, &mut tally).unwrap()
                } else {
                    run_served(&args, &mut tally).unwrap()
                };
                assert!(tally.attempted > 0, "{} trace {trace}", w.name());
                assert_eq!(tally.failed, 0, "{} trace {trace}", w.name());
                let printed = report.metrics.names();
                let wanted = if trace { &per_layer } else { &end_to_end };
                for name in wanted {
                    assert!(
                        printed.contains(&name.as_str()),
                        "{} trace {trace} lacks {name}",
                        w.name()
                    );
                }
                assert_eq!(printed.len(), wanted.len(), "{} trace {trace}", w.name());
            }
        }
    }
}
