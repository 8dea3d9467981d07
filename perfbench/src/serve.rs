//! `serve`: a durable `SqlServer` under a closed loop of client
//! connections.
//!
//! Why: it is the only workload crossing `server` and `sql`. Reads
//! dominate (about 90 %), so `core` evaluation does light work per
//! request, and the `wal` fsync sits on the write path only (one group
//! fsync per writer batch, before the ack).
//!
//! The server starts on a fresh data directory and is seeded through a
//! client with multi-row INSERTs — the path a fresh durable server
//! gives its users. (Rows passed to `SqlServer::spawn` alongside a
//! `data_dir` are dropped for catalog tables, so that path would seed
//! nothing; the seeded row count is asserted before timing.)
//!
//! Each client thread sends its next request only after the previous
//! reply (a closed loop). Writes are INSERT/DELETE pairs of rows under
//! client-private customer names, so the state returns to the seeded
//! one and every read about a seeded customer has one right answer,
//! computed at set-up by a `SerialTwin` replay.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use balg_core::eval::{Evaluator, Limits};
use balg_core::schema::Database;
use balg_server::frame::{decode_reply, encode_reply, read_frame, write_frame, MAX_FRAME};
use balg_server::prelude::*;
use balg_sql::prelude::{
    compile_query, database_from_rows, decode_result, encode_value, parse_statement, Catalog,
    Response, SqlRuntime, SqlValue, Statement,
};

use crate::stats::{histogram_quantile, median, ms, us};
use crate::{offset_ns, timed, trace, Config, Metric, Op, Outcome, Rng, Timing};

/// Input sizes.
#[derive(Clone, Copy, Debug)]
struct Size {
    rows: usize,
    customers: u64,
    items: u64,
    /// In-process statements replayed through the layers (traced runs).
    probe_ops: usize,
}

const FULL: Size = Size {
    rows: 4096,
    customers: 64,
    items: 50,
    probe_ops: 2000,
};

const SMOKE: Size = Size {
    rows: 256,
    customers: 8,
    items: 10,
    probe_ops: 100,
};

/// Rows per seeding INSERT statement.
const SEED_CHUNK: usize = 256;
/// `:ping` round trips timed by a traced run.
const PINGS: usize = 500;
/// Percentage of operations that are writes.
const WRITE_PCT: u64 = 10;

/// Two clients run concurrently, and writes are durable before the ack.
const TIMING: Timing = Timing {
    wall_clock: true,
    fsync: true,
};

const VIEWS: [&str; 2] = [
    "CREATE VIEW big AS SELECT customer, item FROM orders WHERE qty >= 10",
    "CREATE VIEW custs AS SELECT DISTINCT customer FROM orders",
];

fn catalog() -> Catalog {
    Catalog::new().with_table(
        "orders",
        &[("customer", false), ("item", false), ("qty", true)],
    )
}

/// The set-up statements: seeding INSERTs, then the two views.
fn setup_statements(seed: u64, size: Size) -> Vec<String> {
    let mut rng = Rng::new(seed, 1);
    let rows: Vec<String> = (0..size.rows)
        .map(|_| {
            format!(
                "('c{:02}', 'i{:02}', {})",
                rng.below(size.customers),
                rng.below(size.items),
                1 + rng.below(10)
            )
        })
        .collect();
    let mut out: Vec<String> = rows
        .chunks(SEED_CHUNK)
        .map(|chunk| format!("INSERT INTO orders VALUES {}", chunk.join(", ")))
        .collect();
    out.extend(VIEWS.iter().map(|v| (*v).to_owned()));
    out
}

const COUNT_ROWS: &str = "SELECT COUNT(*) FROM orders";

/// One client request.
#[derive(Clone, Debug)]
enum Request {
    /// A read whose reply is fixed by the seeded state.
    Fixed(String),
    /// `:rows VIEW` — the reply may include other clients' rows in
    /// flight; checked against the seeded rows plus well-formed extras.
    ViewRows(&'static str),
    /// Insert a client-private row (remembered for the paired delete).
    Insert(String),
    /// Delete the row the previous insert added.
    Delete(String),
}

impl Request {
    fn line(&self) -> String {
        match self {
            Request::Fixed(line) => line.clone(),
            Request::ViewRows(view) => format!(":rows {view}"),
            Request::Insert(row) => format!("INSERT INTO orders VALUES {row}"),
            Request::Delete(row) => format!("DELETE FROM orders VALUES {row}"),
        }
    }

    fn is_write(&self) -> bool {
        matches!(self, Request::Insert(_) | Request::Delete(_))
    }
}

/// A client's seeded operation stream. Writes alternate insert/delete
/// of one private row, so each client has at most one row in flight.
struct OpStream {
    rng: Rng,
    client: usize,
    customers: u64,
    pending: Option<String>,
    next_row: u64,
}

impl OpStream {
    fn new(seed: u64, client: usize, customers: u64) -> OpStream {
        OpStream {
            rng: Rng::new(seed, 100 + client as u64),
            client,
            customers,
            pending: None,
            next_row: 0,
        }
    }

    fn next(&mut self) -> Request {
        if self.rng.below(100) < WRITE_PCT {
            return self.write();
        }
        let customer = self.rng.below(self.customers);
        match self.rng.below(100) {
            0..=39 => Request::Fixed(format!(
                "SELECT SUM(qty) FROM orders WHERE customer = 'c{customer:02}'"
            )),
            40..=74 => Request::Fixed(format!(
                "SELECT item, qty FROM orders WHERE customer = 'c{customer:02}' AND qty >= 5"
            )),
            75..=89 => Request::ViewRows("big"),
            _ => Request::ViewRows("custs"),
        }
    }

    fn write(&mut self) -> Request {
        match &self.pending {
            Some(row) => Request::Delete(row.clone()),
            None => {
                self.next_row += 1;
                Request::Insert(format!("('w{}_{}', 'i00', 10)", self.client, self.next_row))
            }
        }
    }

    /// Record a write's outcome. A delete is never retried, whatever
    /// its reply: after a failure the row may already be gone, and
    /// retrying could loop forever. A row left behind fails the final
    /// checks instead.
    fn settled(&mut self, op: &Request, ok: bool) {
        match op {
            Request::Insert(row) if ok => self.pending = Some(row.clone()),
            Request::Delete(_) => self.pending = None,
            _ => {}
        }
    }
}

/// The right answers, from a `SerialTwin` replay of the set-up.
struct Oracle {
    fixed: BTreeMap<String, String>,
    views: BTreeMap<&'static str, String>,
    count: String,
}

impl Oracle {
    fn build(statements: &[String], size: Size) -> Result<Oracle, String> {
        let catalog = catalog();
        let db = database_from_rows(&catalog, &[]).map_err(|e| e.to_string())?;
        let mut twin = SerialTwin::new(catalog, db, Limits::default());
        for statement in statements {
            let reply = twin.execute(statement);
            if !reply.ok {
                return Err(format!("twin set-up failed: {}", reply.text));
            }
        }
        let mut fixed = BTreeMap::new();
        for customer in 0..size.customers {
            for line in [
                format!("SELECT SUM(qty) FROM orders WHERE customer = 'c{customer:02}'"),
                format!(
                    "SELECT item, qty FROM orders WHERE customer = 'c{customer:02}' AND qty >= 5"
                ),
            ] {
                let reply = twin.execute(&line);
                if !reply.ok {
                    return Err(format!("twin read failed: {}", reply.text));
                }
                fixed.insert(line, reply.text);
            }
        }
        let mut views = BTreeMap::new();
        for view in ["big", "custs"] {
            views.insert(view, twin.execute(&format!(":rows {view}")).text);
        }
        let count = twin.execute(COUNT_ROWS).text;
        Ok(Oracle {
            fixed,
            views,
            count,
        })
    }

    /// Is `reply` the right answer to `op`?
    fn check(&self, op: &Request, reply: &Reply) -> bool {
        reply.ok
            && match op {
                Request::Fixed(line) => self.fixed.get(line) == Some(&reply.text),
                Request::ViewRows(view) => view_rows_match(&reply.text, &self.views[view]),
                Request::Insert(_) => reply.text == "orders: +1 -0",
                Request::Delete(_) => reply.text == "orders: +0 -1",
            }
    }
}

/// A `:rows` reply equals the seeded rows plus in-flight client rows
/// (customers `w…`, one occurrence each), with a matching total.
fn view_rows_match(reply: &str, seeded: &str) -> bool {
    let mut lines: Vec<&str> = reply.lines().collect();
    let mut base: Vec<&str> = seeded.lines().collect();
    let (Some(footer), Some(base_footer)) = (lines.pop(), base.pop()) else {
        return false;
    };
    let in_flight: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| l.starts_with('w'))
        .collect();
    if !in_flight.iter().all(|l| l.ends_with("  x1")) {
        return false;
    }
    lines.retain(|l| !l.starts_with('w'));
    let total = |f: &str| {
        f.strip_prefix('(')
            .and_then(|f| f.strip_suffix(" rows)"))
            .and_then(|n| n.parse::<usize>().ok())
    };
    lines == base
        && matches!((total(footer), total(base_footer)), (Some(n), Some(b)) if n == b + in_flight.len())
}

/// Start a durable server on `dir` and seed it through a client.
fn start(
    cfg: &Config,
    statements: &[String],
    oracle: &Oracle,
    dir: &Path,
) -> Result<SqlServer, String> {
    let config = ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        threads: Some(cfg.threads),
        ..ServerConfig::default()
    };
    let server = SqlServer::spawn("127.0.0.1:0", catalog(), Database::new(), config)
        .map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for statement in statements {
        let reply = client
            .request(statement)
            .map_err(|e| format!("seed: {e}"))?;
        if !reply.ok {
            return Err(format!("seed statement failed: {}", reply.text));
        }
    }
    let count = client
        .request(COUNT_ROWS)
        .map_err(|e| format!("count: {e}"))?;
    if count.text != oracle.count {
        return Err(format!(
            "seeded count {:?}, expected {:?}",
            count.text, oracle.count
        ));
    }
    Ok(server)
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    /// Reads are the primary operations; writes are the rest.
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    /// Bytes of the rows written, in the WAL's value encoding.
    user_bytes: u64,
}

impl ClientLog {
    fn absorb(&mut self, other: ClientLog) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.user_bytes += other.user_bytes;
    }

    /// Latencies of the reads.
    fn read_latencies(&self) -> Vec<u64> {
        self.ops
            .iter()
            .filter(|op| op.primary)
            .map(|op| op.ns)
            .collect()
    }
}

/// Bytes of one written row in the WAL's value encoding — the least a
/// log must store for it.
fn row_bytes(row: &str) -> u64 {
    let fields: Vec<SqlValue> = row
        .trim_matches(|c| c == '(' || c == ')')
        .split(", ")
        .map(|f| match f.parse::<i64>() {
            Ok(v) => SqlValue::Int(v),
            Err(_) => SqlValue::Str(f.trim_matches('\'').to_owned()),
        })
        .collect();
    let numeric = [false, false, true];
    let value = balg_core::value::Value::tuple(
        fields
            .iter()
            .zip(numeric)
            .map(|(f, n)| encode_value(f, n).expect("well-formed row")),
    );
    let mut out = Vec::new();
    balg_core::wal::put_value(&mut out, &value);
    out.len() as u64
}

/// One closed-loop client until `deadline`, finishing its write pair.
fn client_loop(
    addr: SocketAddr,
    stream: &mut OpStream,
    oracle: &Oracle,
    started: Instant,
    deadline: Instant,
) -> Result<ClientLog, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut log = ClientLog::default();
    while Instant::now() < deadline || stream.pending.is_some() {
        let op = if Instant::now() < deadline {
            stream.next()
        } else {
            stream.write()
        };
        let line = op.line();
        let request = trace::request_id();
        let start_ns = offset_ns(started, Instant::now());
        let (reply, took, _) = trace::span("serve.request", request, 0, |_| client.request(&line));
        let reply = reply.map_err(|e| format!("request {line:?}: {e}"))?;
        let ok = oracle.check(&op, &reply);
        stream.settled(&op, ok);
        log.attempted += 1;
        if !ok {
            log.failed += 1;
            continue;
        }
        let ns = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX);
        log.ops.push(Op {
            start_ns,
            ns,
            primary: !op.is_write(),
        });
        if let Request::Insert(row) | Request::Delete(row) = &op {
            log.user_bytes += row_bytes(row);
        }
    }
    Ok(log)
}

/// Run every client for `budget` and merge their logs.
fn drive(
    addr: SocketAddr,
    streams: &mut [OpStream],
    oracle: &Oracle,
    budget: Duration,
) -> Result<ClientLog, String> {
    let started = Instant::now();
    let deadline = started + budget;
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| scope.spawn(move || client_loop(addr, stream, oracle, started, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut merged = ClientLog::default();
    for log in logs {
        merged.absorb(log?);
    }
    Ok(merged)
}

/// The `durable:` line of a `:stats` reply: (lsn, snapshot lsn, WAL
/// bytes since checkpoint, checkpoints).
fn durability(client: &mut Client) -> Result<[u64; 4], String> {
    let reply = client
        .request(":stats")
        .map_err(|e| format!("stats: {e}"))?;
    let line = reply
        .text
        .lines()
        .find_map(|l| l.strip_prefix("durable: "))
        .ok_or_else(|| format!("no durability line in {:?}", reply.text))?;
    let numbers: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    match numbers.as_slice() {
        [lsn, snapshot_lsn, wal_bytes, _replayed, checkpoints] => {
            Ok([*lsn, *snapshot_lsn, *wal_bytes, *checkpoints])
        }
        _ => Err(format!("unexpected durability line {line:?}")),
    }
}

/// Verify the final state through `client`; returns (attempted, failed).
fn final_checks(client: &mut Client, oracle: &Oracle) -> Result<(u64, u64), String> {
    let mut checks: Vec<(String, String)> = vec![
        (":check".into(), "consistent".into()),
        (COUNT_ROWS.into(), oracle.count.clone()),
    ];
    for (view, rows) in &oracle.views {
        checks.push((format!(":rows {view}"), rows.clone()));
    }
    let mut failed = 0;
    for (line, expected) in &checks {
        let reply = client.request(line).map_err(|e| format!("{line}: {e}"))?;
        if !reply.ok || &reply.text != expected {
            eprintln!("serve: final check {line:?} failed: {:?}", reply.text);
            failed += 1;
        }
    }
    Ok((checks.len() as u64, failed))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let size = if cfg.smoke { SMOKE } else { FULL };
    let statements = setup_statements(cfg.seed, size);
    let oracle = Oracle::build(&statements, size)?;
    let mut out = Outcome::default();

    let ((server, dir), setup_s) = crate::repeated_setup(
        TIMING,
        |rep| {
            let dir = cfg.scratch_dir(&format!("serve{rep}"));
            Ok((start(cfg, &statements, &oracle, &dir)?, dir))
        },
        |(server, dir)| {
            SqlServer::shutdown(server);
            let _ = std::fs::remove_dir_all(dir);
        },
    )?;
    out.setup_s = setup_s;
    let addr = server.addr();
    let mut admin = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;

    let clients = cfg.threads.clamp(1, 2);
    let mut streams: Vec<OpStream> = (0..clients)
        .map(|c| OpStream::new(cfg.seed, c, size.customers))
        .collect();
    // Warm-up: session threads, allocator and page cache settle before
    // timing starts; its replies are still checked.
    let warm = drive(
        addr,
        &mut streams,
        &oracle,
        (cfg.budget() / 10).min(Duration::from_secs(1)),
    )?;
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    let mut phase_budget = cfg.budget();
    let mut untraced_p50 = 0.0;
    if cfg.trace {
        // Half the budget untraced, half traced: their difference is
        // the tracing overhead.
        phase_budget /= 2;
        let log = drive(addr, &mut streams, &oracle, phase_budget)?;
        out.attempted += log.attempted;
        out.failed += log.failed;
        untraced_p50 = median(&log.read_latencies());
        crate::enable_tracing();
    }
    let before = durability(&mut admin)?;
    let registry_before = crate::registry_snapshot();
    // The slices' operations go to the phase summary; `totals` keeps
    // the counts and written bytes.
    let mut totals = ClientLog::default();
    let phase = crate::sliced(phase_budget, TIMING, |share| {
        let mut slice = drive(addr, &mut streams, &oracle, share)?;
        let ops = std::mem::take(&mut slice.ops);
        totals.absorb(slice);
        Ok(ops)
    })?;
    out.phase = phase;
    let registry_after = crate::registry_snapshot();
    out.attempted += totals.attempted;
    out.failed += totals.failed;

    // Transport: `:ping` round trips on the idle server — framing,
    // socket and session dispatch with no statement work.
    let mut pings = Vec::new();
    if cfg.trace {
        for _ in 0..PINGS {
            let (reply, took) = timed(|| admin.request(":ping"));
            let ok = reply.is_ok_and(|r| r.ok && r.text == "pong");
            out.count(ok);
            pings.push(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
        }
    }
    let after = durability(&mut admin)?;
    let (checked, failed) = final_checks(&mut admin, &oracle)?;
    out.attempted += checked;
    out.failed += failed;
    drop(admin);
    SqlServer::shutdown(server);

    // Bytes the run made durable: WAL records (sized from the records
    // since the last checkpoint) plus one snapshot per checkpoint.
    let [lsn0, _, _, ckpt0] = before;
    let [lsn1, snap_lsn1, wal1, ckpt1] = after;
    let record_bytes = if lsn1 > snap_lsn1 {
        wal1 as f64 / (lsn1 - snap_lsn1) as f64
    } else {
        0.0
    };
    let snapshot_bytes = std::fs::metadata(dir.join("snapshot.balg")).map_or(0, |m| m.len());
    let durable_bytes =
        record_bytes * (lsn1 - lsn0) as f64 + (snapshot_bytes * (ckpt1 - ckpt0)) as f64;

    // Recovery: respawn on the directory until the views verify.
    let (recovered, recovery) = timed(|| -> Result<(u64, u64), String> {
        let config = ServerConfig {
            data_dir: Some(dir.clone()),
            threads: Some(cfg.threads),
            ..ServerConfig::default()
        };
        let server = SqlServer::spawn("127.0.0.1:0", catalog(), Database::new(), config)
            .map_err(|e| format!("respawn: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let checked = final_checks(&mut client, &oracle);
        drop(client);
        SqlServer::shutdown(server);
        checked
    });
    let (checked, failed) = recovered?;
    out.attempted += checked;
    out.failed += failed;
    let _ = std::fs::remove_dir_all(&dir);

    let (reads, writes) = (&out.phase.primary, &out.phase.other);
    out.report = vec![
        Metric::new("read_p50_ms", ms(reads.quantile(0.5)), "ms", reads.len()),
        Metric::new("read_p99_ms", ms(reads.quantile(0.99)), "ms", reads.len()),
        Metric::new("write_p50_ms", ms(writes.quantile(0.5)), "ms", writes.len()),
        Metric::new(
            "write_p99_ms",
            ms(writes.quantile(0.99)),
            "ms",
            writes.len(),
        ),
        Metric::new("recovery_s", recovery.as_secs_f64(), "s", 1),
        Metric::new(
            "write_amp",
            durable_bytes / totals.user_bytes.max(1) as f64,
            "ratio",
            writes.len(),
        ),
    ];

    if cfg.trace {
        let reads = &out.phase.primary;
        out.layers.push(Metric::new(
            "trace.overhead_pct",
            100.0 * (reads.quantile(0.5) / untraced_p50.max(1.0) - 1.0),
            "%",
            reads.len(),
        ));
        let delta = |name: &str| crate::registry_delta(&registry_before, &registry_after, name);
        let read_service = delta("balg_server_read_duration_ns");
        let write_service = delta("balg_server_write_duration_ns");
        out.layers.extend([
            Metric::new(
                "server.read_service_p50_us",
                us(histogram_quantile(&read_service, 0.5)),
                "us",
                read_service.iter().sum::<u64>() as usize,
            ),
            Metric::new(
                "server.write_service_p50_us",
                us(histogram_quantile(&write_service, 0.5)),
                "us",
                write_service.iter().sum::<u64>() as usize,
            ),
            Metric::new(
                "server.write_service_p99_us",
                us(histogram_quantile(&write_service, 0.99)),
                "us",
                write_service.iter().sum::<u64>() as usize,
            ),
            Metric::new(
                "server.transport_p50_us",
                us(median(&pings)),
                "us",
                pings.len(),
            ),
            Metric::new(
                "server.busy_rejections",
                delta("balg_server_busy_rejections_total")[0] as f64,
                "count",
                1,
            ),
        ]);
        let probed = probe(cfg, size, &statements, &oracle, &mut out)?;
        out.layers.extend(probed);
    }
    Ok(out)
}

/// Replay a client's statement stream in-process through the layers the
/// server calls, one span per stage: frame → parse → compile → eval →
/// decode → render for reads, execute → publish for writes.
fn probe(
    cfg: &Config,
    size: Size,
    statements: &[String],
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<Vec<Metric>, String> {
    let catalog = catalog();
    let db = database_from_rows(&catalog, &[]).map_err(|e| e.to_string())?;
    let mut rt = SqlRuntime::with_limits(catalog, db, Limits::default());
    rt.set_parallel_threads(cfg.threads);
    for statement in statements {
        rt.execute(statement)
            .map_err(|e| format!("probe set-up: {e}"))?;
    }
    let mark = trace::mark();
    let mut seq = 0u64;
    let mut snapshot = snapshot_of(&rt, seq);
    let mut stream = OpStream::new(cfg.seed, 0, size.customers);
    let mut rows_read = Vec::new();
    for _ in 0..size.probe_ops {
        let op = stream.next();
        let line = op.line();
        let request = trace::request_id();
        let (reply, _, _) =
            trace::span("serve.probe", request, 0, |root| -> Result<Reply, String> {
                let reply = match &op {
                    Request::Insert(_) | Request::Delete(_) => {
                        let (response, _, _) =
                            trace::span("sql.execute_write", request, root, |_| rt.execute(&line));
                        let response = response.map_err(|e| e.to_string())?;
                        seq += 1;
                        let (published, _, _) =
                            trace::span("server.publish", request, root, |_| snapshot_of(&rt, seq));
                        snapshot = published;
                        Reply::ok(response.to_string())
                    }
                    Request::ViewRows(view) => {
                        let (bag, columns) =
                            snapshot.views.get(*view).cloned().ok_or("view missing")?;
                        let (result, _, _) = trace::span("sql.decode", request, root, |_| {
                            decode_result(&bag, columns)
                        });
                        let result = result.map_err(|e| e.to_string())?;
                        let (text, _, _) = trace::span("sql.render", request, root, |_| {
                            Response::Rows(result).to_string()
                        });
                        Reply::ok(text)
                    }
                    Request::Fixed(_) => {
                        let (parsed, _, _) =
                            trace::span("sql.parse", request, root, |_| parse_statement(&line));
                        let Ok(Statement::Query(query)) = parsed else {
                            return Err(format!("probe: {line:?} is not a query"));
                        };
                        let (compiled, _, _) = trace::span("sql.compile", request, root, |_| {
                            compile_query(&query, &snapshot.catalog)
                        });
                        let compiled = compiled.map_err(|e| e.to_string())?;
                        let (bag, _, _) = trace::span("core.eval", request, root, |_| {
                            let mut evaluator =
                                Evaluator::new(&snapshot.db, snapshot.limits.clone());
                            evaluator.set_parallel_threads(cfg.threads);
                            evaluator.eval_bag(&compiled.expr)
                        });
                        let bag = bag.map_err(|e| e.to_string())?;
                        let (result, _, _) = trace::span("sql.decode", request, root, |_| {
                            decode_result(&bag, compiled.output)
                        });
                        let result = result.map_err(|e| e.to_string())?;
                        rows_read.push(result.rows.len() as u64);
                        let (text, _, _) = trace::span("sql.render", request, root, |_| {
                            Response::Rows(result).to_string()
                        });
                        Reply::ok(text)
                    }
                };
                let (framed, _, _) =
                    trace::span("server.frame", request, root, |_| frame_roundtrip(&reply));
                framed
            });
        let reply = reply?;
        let ok = oracle.check(&op, &reply);
        out.count(ok);
        stream.settled(&op, ok);
    }
    let mut metrics: Vec<Metric> = [
        ("server.frame", "server.frame_roundtrip_us"),
        ("server.publish", "server.publish_us"),
        ("sql.parse", "sql.parse_us"),
        ("sql.compile", "sql.compile_us"),
        ("sql.decode", "sql.decode_us"),
        ("sql.render", "sql.render_us"),
        ("sql.execute_write", "sql.execute_write_us"),
        ("core.eval", "core.eval_us"),
    ]
    .into_iter()
    .map(|(span, metric)| {
        let d = trace::durations(mark, span);
        Metric::new(metric, us(median(&d)), "us", d.len())
    })
    .collect();
    let mean_rows = rows_read.iter().sum::<u64>() as f64 / rows_read.len().max(1) as f64;
    metrics.push(Metric::new(
        "sql.rows_per_read",
        mean_rows,
        "rows",
        rows_read.len(),
    ));
    Ok(metrics)
}

/// Encode a reply, frame it into a buffer, read it back and decode it —
/// the server's and the client's framing work for one reply, without
/// the socket.
fn frame_roundtrip(reply: &Reply) -> Result<Reply, String> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &encode_reply(reply)).map_err(|e| e.to_string())?;
    let payload = read_frame(&mut wire.as_slice(), MAX_FRAME)
        .map_err(|e| e.to_string())?
        .ok_or("empty frame")?;
    decode_reply(&payload).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_rows_accept_in_flight_rows_only() {
        let seeded = "c01 | i02  x1\nc03 | i04  x2\n(3 rows)";
        assert!(view_rows_match(seeded, seeded));
        assert!(view_rows_match(
            "c01 | i02  x1\nc03 | i04  x2\nw0_1 | i00  x1\n(4 rows)",
            seeded
        ));
        assert!(!view_rows_match(
            "c01 | i02  x1\nw0_1 | i00  x1\n(2 rows)",
            seeded
        ));
        assert!(!view_rows_match(
            "c01 | i02  x1\nc03 | i04  x2\nw0_1 | i00  x1\n(3 rows)",
            seeded
        ));
    }

    #[test]
    fn oracle_rejects_wrong_answers() {
        let oracle = Oracle::build(&setup_statements(7, SMOKE), SMOKE).expect("oracle");
        let line = "SELECT SUM(qty) FROM orders WHERE customer = 'c01'".to_owned();
        let right = oracle.fixed[&line].clone();
        let read = Request::Fixed(line);
        assert!(oracle.check(&read, &Reply::ok(right.clone())));
        assert!(!oracle.check(&read, &Reply::ok(format!("{right}0"))));
        assert!(!oracle.check(&read, &Reply::err(right)));
        let insert = Request::Insert("('w0_1', 'i00', 10)".into());
        assert!(oracle.check(&insert, &Reply::ok("orders: +1 -0")));
        assert!(!oracle.check(&insert, &Reply::ok("orders: +0 -1")));
    }

    #[test]
    fn op_streams_pair_their_writes() {
        let mut stream = OpStream::new(7, 0, 8);
        let mut balance = 0i64;
        for _ in 0..500 {
            let op = stream.next();
            match op {
                Request::Insert(_) => balance += 1,
                Request::Delete(_) => balance -= 1,
                _ => {}
            }
            assert!((0..=1).contains(&balance));
            stream.settled(&op, true);
        }
    }

    #[test]
    fn a_failed_delete_is_not_retried() {
        let mut stream = OpStream::new(7, 0, 8);
        let insert = stream.write();
        stream.settled(&insert, true);
        let delete = stream.write();
        assert!(matches!(delete, Request::Delete(_)));
        stream.settled(&delete, false);
        assert!(stream.pending.is_none());
        assert!(matches!(stream.write(), Request::Insert(_)));
    }
}
