//! The end-to-end run: a real `sma-server` spawned in process over the
//! workload's warehouse, driven by closed-loop clients on TCP.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sma_server::{Client, Response, Server, ServerConfig, ServerHandle, Status};
use smadb::ingest::StreamingWarehouse;

use crate::fixture::{count_from, Inserts, Picker, Rows, Select, Shape, Workload, POINT_ROWS};
use crate::stats::{Samples, Series, Tally};

/// Mismatches printed per run; the rest are only counted.
const MAX_PRINTED: u64 = 10;
/// Rows the `mixed` inserter writes while warming up.
const WARM_INSERTS: usize = 16;

/// A running server and the directory its warehouse lives in.
pub struct Served {
    handle: ServerHandle,
    dir: PathBuf,
}

impl Served {
    pub fn start(sw: StreamingWarehouse, dir: PathBuf) -> Result<Served, String> {
        let handle = Server::spawn(
            ServerConfig {
                max_sessions: 16,
                max_inflight: 16,
                ..ServerConfig::default()
            },
            sw,
        )
        .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Served { handle, dir })
    }

    pub fn client(&self) -> Result<Client, String> {
        let mut c = Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("client timeout: {e}"))?;
        Ok(c)
    }

    /// Drains and stops the server, then deletes its directory.
    pub fn stop(self) -> Result<(), String> {
        self.handle
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}"))?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("remove {:?}: {e}", self.dir))
    }
}

/// The workload's selects with their expected answers.
pub struct Expected<'a> {
    pub pool: &'a [Select],
    pub rows: &'a [Rows],
}

/// What a response must be to count as good.
enum Want<'a> {
    /// `Ok` or `Degraded` with exactly these rows.
    Rows(&'a Rows),
    /// `Ok` with an `acked seq N` above the previous ack's.
    AckAfter(u64),
    /// `Ok`.
    Pong,
}

fn acked_seq(r: &Response) -> Option<u64> {
    r.info.strip_prefix("acked seq ")?.parse().ok()
}

/// Counts a response as good or failed, printing the first mismatches
/// with their request.
fn check(tally: &mut Tally, request: &str, got: &Result<Response, String>, want: Want) -> bool {
    let ok = match (got, &want) {
        (Ok(r), Want::Rows(rows)) => {
            matches!(r.status, Status::Ok | Status::Degraded) && &r.rows == *rows
        }
        (Ok(r), Want::AckAfter(last)) => {
            r.status == Status::Ok && acked_seq(r).is_some_and(|s| s > *last)
        }
        (Ok(r), Want::Pong) => r.status == Status::Ok,
        (Err(_), _) => false,
    };
    tally.record(ok);
    if !ok && tally.failed <= MAX_PRINTED {
        let len = request.len().min(160);
        eprintln!("MISMATCH request `{}`", &request[..len]);
        match got {
            Ok(r) => eprintln!("  got {:?} {} {:?}", r.status, r.info, r.rows),
            Err(e) => eprintln!("  got error {e}"),
        }
        match want {
            Want::Rows(rows) => eprintln!("  want {rows:?}"),
            Want::AckAfter(last) => eprintln!("  want Ok with acked seq > {last}"),
            Want::Pong => eprintln!("  want Ok"),
        }
    }
    ok
}

fn timed(c: &mut Client, text: &str) -> (Result<Response, String>, f64) {
    let t = Instant::now();
    let r = c.request(text).map_err(|e| e.to_string());
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// The `mixed` inserter's state across warm-up, window and final check.
pub struct Inserter {
    rows: Inserts,
    last_seq: u64,
    pub acked: u64,
}

impl Inserter {
    pub fn new(seed: u64) -> Inserter {
        Inserter {
            rows: Inserts::new(seed),
            last_seq: 0,
            acked: 0,
        }
    }

    /// Sends one insert; good only if acked with a strictly increasing
    /// `acked seq N`.
    fn send(&mut self, c: &mut Client, tally: &mut Tally) -> Option<f64> {
        let row = self.rows.next_row();
        let text = self.rows.statement(row);
        let (r, us) = timed(c, &text);
        if !check(tally, &text, &r, Want::AckAfter(self.last_seq)) {
            return None;
        }
        self.last_seq = r.as_ref().ok().and_then(acked_seq)?;
        self.acked += 1;
        Some(us)
    }
}

/// What the clients saw in one timed window.
#[derive(Default)]
pub struct Window {
    pub read: Series,
    pub q1: Series,
    pub q6: Series,
    pub insert: Series,
    pub seconds: f64,
    pub tally: Tally,
    /// Plan kind named in each select response's `info` field.
    pub plan_kinds: BTreeMap<String, u64>,
}

impl Window {
    /// Select answers per second: the median slice rate of the point
    /// reads, or on the TPC-D workloads both shapes together.
    pub fn read_qps(&self) -> f64 {
        let mut all = self.read.clone();
        all.extend(self.q1.clone());
        all.extend(self.q6.clone());
        all.rate(self.seconds)
    }

    /// The select shapes the window answered, with their latencies.
    fn shapes(&self) -> impl Iterator<Item = (Shape, &Series)> {
        [
            (Shape::Read, &self.read),
            (Shape::Q1, &self.q1),
            (Shape::Q6, &self.q6),
        ]
        .into_iter()
    }

    /// The client's unsliced p50 of each select shape the window
    /// answered, for comparison with the traced replay's p50s.
    pub fn shape_p50s(&self) -> Vec<(Shape, f64)> {
        self.shapes()
            .filter_map(|(shape, series)| Some((shape, series.p50_unsliced()?)))
            .collect()
    }

    /// Select latency: the p50 of the point reads, or on the TPC-D
    /// workloads the mean of the Q1 and Q6 p50s, the typical latency of
    /// a request in their even mix. The shapes differ up to 4×, so a
    /// pooled median would jump between them.
    pub fn read_p50(&self) -> Option<f64> {
        let p50s: Vec<f64> = self
            .shapes()
            .filter_map(|(_, series)| series.p50(self.seconds))
            .collect();
        if p50s.is_empty() {
            return None;
        }
        Some(p50s.iter().sum::<f64>() / p50s.len() as f64)
    }

    fn absorb(&mut self, other: Window) {
        self.read.extend(other.read);
        self.q1.extend(other.q1);
        self.q6.extend(other.q6);
        self.insert.extend(other.insert);
        self.tally.add(other.tally);
        for (k, n) in other.plan_kinds {
            *self.plan_kinds.entry(k).or_default() += n;
        }
    }
}

/// Closed loop of selects on one connection until `deadline`.
fn read_loop(
    served: &Served,
    w: Workload,
    seed: u64,
    want: &Expected,
    start: Instant,
    deadline: Instant,
) -> Result<Window, String> {
    let mut c = served.client()?;
    let mut picker = Picker::new(w, seed, want.pool.len());
    let mut out = Window::default();
    // Every shape is sent at least once, however short the window.
    let mut sent = 0;
    while sent < picker.shapes() || Instant::now() < deadline {
        sent += 1;
        let i = picker.next();
        let s = &want.pool[i];
        let (r, us) = timed(&mut c, &s.text);
        if let Ok(resp) = &r {
            *out.plan_kinds.entry(resp.info.clone()).or_default() += 1;
        }
        if check(&mut out.tally, &s.text, &r, Want::Rows(&want.rows[i])) {
            let done = start.elapsed().as_secs_f64();
            match s.shape {
                Shape::Read => out.read.push(done, us),
                Shape::Q1 => out.q1.push(done, us),
                Shape::Q6 => out.q6.push(done, us),
            }
        }
    }
    Ok(out)
}

fn insert_loop(
    served: &Served,
    ins: &mut Inserter,
    start: Instant,
    deadline: Instant,
) -> Result<Window, String> {
    let mut c = served.client()?;
    let mut out = Window::default();
    while Instant::now() < deadline {
        if let Some(us) = ins.send(&mut c, &mut out.tally) {
            out.insert.push(start.elapsed().as_secs_f64(), us);
        }
    }
    Ok(out)
}

/// Sends every select of the pool once (and, on `mixed`, a few inserts)
/// so caches and lazy state are warm before anything is timed.
pub fn warm_up(
    served: &Served,
    want: &Expected,
    inserter: Option<&mut Inserter>,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut c = served.client()?;
    for (s, rows) in want.pool.iter().zip(want.rows) {
        let (r, _) = timed(&mut c, &s.text);
        check(tally, &s.text, &r, Want::Rows(rows));
    }
    if let Some(ins) = inserter {
        for _ in 0..WARM_INSERTS {
            ins.send(&mut c, tally);
        }
    }
    Ok(())
}

/// Runs the workload's traffic for `seconds` and returns what the
/// clients measured: one reader connection, and on `mixed` one inserter
/// beside it. The process runs on one core, so a second reader would
/// only queue behind the first.
pub fn window(
    served: &Served,
    w: Workload,
    seed: u64,
    want: &Expected,
    inserter: Option<&mut Inserter>,
    seconds: f64,
) -> Result<Window, String> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut total = Window::default();
    std::thread::scope(|s| -> Result<(), String> {
        let read_join = s.spawn(move || read_loop(served, w, seed, want, start, deadline));
        let insert_join =
            inserter.map(|ins| s.spawn(move || insert_loop(served, ins, start, deadline)));
        total.absorb(
            read_join
                .join()
                .map_err(|_| "reader panicked".to_string())??,
        );
        if let Some(j) = insert_join {
            total.absorb(j.join().map_err(|_| "inserter panicked".to_string())??);
        }
        Ok(())
    })?;
    // The clients stop at the deadline; slices span the window as set.
    total.seconds = seconds;
    Ok(total)
}

/// After a `mixed` window: every acknowledged row must be visible, so a
/// count over the inserted key range equals the inserts acked.
pub fn check_acked_visible(
    served: &Served,
    ins: &Inserter,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut c = served.client()?;
    let s = count_from(POINT_ROWS);
    let (r, _) = timed(&mut c, &s.text);
    check(
        tally,
        &s.text,
        &r,
        Want::Rows(&vec![vec![ins.acked.to_string()]]),
    );
    Ok(())
}

/// p50 round trip of `n` pings on an idle server, in microseconds.
pub fn ping_p50(served: &Served, n: usize, tally: &mut Tally) -> Result<Option<f64>, String> {
    let mut c = served.client()?;
    let mut s = Samples::default();
    for _ in 0..n {
        let (r, us) = timed(&mut c, "ping");
        if check(tally, "ping", &r, Want::Pong) {
            s.push(us);
        }
    }
    Ok(s.p50())
}
